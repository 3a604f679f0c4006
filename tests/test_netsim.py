"""Round discipline, adversary views, and the simulators' determinism."""

import re

import pytest

from psmt import fixtures
from psmt.errors import ParamError
from psmt.field import GF
from psmt.netsim import (
    AdversarySpec,
    AdversaryView,
    HyperNet,
    PathNetwork,
    TamperContext,
    broadcast,
    majority_of,
    recv_broadcast,
    reliable_send,
)
from psmt.randomness import Randomness, TracingRandomness
from psmt.strategies import constant_replacer, shift_tamperer
from psmt.topology import to_hypergraph


def test_unknown_channel_rejected():
    seen = []
    net = PathNetwork(2, 0, AdversarySpec(frozenset({("AB", 0)}),
                                          lambda ctx: seen.append(ctx.payload)))
    with pytest.raises(ParamError):
        net.end_round({("AB", 0): "x", ("AB", 2): "x"})
    with pytest.raises(ParamError):
        net.end_round({("AB", 0): "x", ("BA", 0): "x"})
    # every channel is checked before any is tampered, recorded or delivered
    assert (seen, net.view.events, net.transcript, net.round) == ([], [], [], 0)
    with pytest.raises(ParamError):
        PathNetwork(2, 0, AdversarySpec(frozenset({("BA", 0)})))


@pytest.mark.parametrize("bad", [("AB", 0.5), ("AB", -1), ("AB", "0"), ("CD", 0),
                                 ("AB",), "AB0", 0])
def test_a_channel_outside_the_network_is_refused_and_named(bad):
    net = PathNetwork(2, 0)
    with pytest.raises(ParamError, match=re.escape(f"no such channel {bad!r}")):
        net.end_round({("AB", 0): "x", bad: "y"})
    assert (net.transcript, net.round) == ([], 0)
    with pytest.raises(ParamError, match=re.escape(f"corrupted channel {bad!r} does not exist")):
        PathNetwork(2, 0, AdversarySpec(frozenset({("AB", 1), bad})))


def test_a_round_lists_its_channels_in_str_order():
    net = PathNetwork(12, 2, AdversarySpec(frozenset({("AB", 10)}),
                                           lambda ctx: "forged"))
    channels = [("BA", 1), ("BA", 0)] + [("AB", i) for i in range(11, -1, -1)]
    delivered = net.end_round({ch: ch[0] + str(ch[1]) for ch in channels})
    order = [("AB", 0), ("AB", 1), ("AB", 10), ("AB", 11)] + \
        [("AB", i) for i in range(2, 10)] + [("BA", 0), ("BA", 1)]
    assert order == sorted(channels, key=str)
    assert list(delivered) == order
    assert [ch for _, ch, _, _ in net.transcript] == order
    assert net.transcript[2] == (0, ("AB", 10), "AB10", "forged")
    assert net.view.events == [(0, ("AB", 10), "AB10")]
    assert delivered[("AB", 10)] == "forged"


def test_each_channel_count_is_refused_with_its_own_message():
    with pytest.raises(ParamError, match="forward channel"):
        PathNetwork(0, 1)
    with pytest.raises(ParamError, match="backward channel count -1"):
        PathNetwork(5, -1)


def test_delivery_and_round_counter():
    net = PathNetwork(2, 1)
    delivered = net.end_round({("BA", 0): "b", ("AB", 0): "a"})
    assert delivered == {("AB", 0): "a", ("BA", 0): "b"}
    assert net.round == 1
    assert net.end_round({}) == {}
    assert net.round == 2


def test_passive_adversary_never_alters_delivery():
    spec = GF(7)
    payloads = [(spec.element(3), "x"), spec.element(5)]
    for adversary in (None,
                      AdversarySpec(frozenset({("AB", 0), ("AB", 1)}))):
        net = PathNetwork(2, 0, adversary)
        delivered = net.end_round({("AB", i): p for i, p in enumerate(payloads)})
        assert delivered == {("AB", 0): payloads[0], ("AB", 1): payloads[1]}


def test_view_contains_only_corrupted_traffic_and_broadcasts():
    net = PathNetwork(3, 0, AdversarySpec(frozenset({("AB", 1)})))
    net.end_round({("AB", 0): "secret0", ("AB", 1): "seen", ("AB", 2): "secret2"})
    broadcast(net, range(3), "public", Randomness(0))
    assert net.view.events == [(0, ("AB", 1), "seen"),
                               (1, ("AB", 1), ("public", None))]
    assert net.view.public == [(1, "AB", "public")]


def test_active_tampering_applied_per_corrupted_channel():
    spec = GF(7)
    net = PathNetwork(2, 0, AdversarySpec(frozenset({("AB", 1)}),
                                          shift_tamperer()))
    delivered = net.end_round({("AB", 0): spec.element(3), ("AB", 1): spec.element(3)})
    assert delivered[("AB", 0)].value == 3
    assert delivered[("AB", 1)].value == 4
    # the view records the original payload, before tampering
    assert net.view.events == [(0, ("AB", 1), spec.element(3))]


def test_broadcast_majority_outvotes_corrupted_channels():
    # 2k+1 = 5 channels with k = 2 corrupted: the honest majority wins, and
    # only the channels that carried the winner hand over their extras
    net = PathNetwork(5, 0, AdversarySpec(frozenset({("AB", 0), ("AB", 3)}),
                                          constant_replacer(("y", "forged"))))
    winner, extras = broadcast(net, range(5), "x", Randomness(0),
                               {ch: f"extra{ch}" for ch in range(5)})
    assert winner == "x"
    assert extras == {1: "extra1", 2: "extra2", 4: "extra4"}
    assert net.view.public == [(0, "AB", "x")]
    # a subset of the channels broadcasts on its own
    assert broadcast(net, [1, 2], "z", Randomness(0)) == ("z", {1: None, 2: None})


def test_broadcast_is_one_round_with_its_announcement():
    net = PathNetwork(3, 1)
    net.end_round({("BA", 0): "before"})
    broadcast(net, range(3), ("ok", 1), Randomness(0))
    assert net.round == 2
    assert net.view.public == [(1, "AB", ("ok", 1))]
    assert [(rnd, ch) for rnd, ch, _, _ in net.transcript] == [
        (0, ("BA", 0)), (1, ("AB", 0)), (1, ("AB", 1)), (1, ("AB", 2))]


def _last_round_deliveries(net):
    return {ch: got for rnd, ch, _, got in net.transcript if rnd == net.round - 1}


@pytest.mark.parametrize("n, corrupted", [(5, {0, 3}), (4, {1, 2})])
def test_broadcast_returns_the_receivers_vote_on_its_round(n, corrupted):
    # a corrupted minority, then an even split whose tie coin comes from
    # tie_rng: either way the result is recv_broadcast of that round
    adversary = AdversarySpec(frozenset(("AB", i) for i in corrupted),
                              constant_replacer(("y", "forged")))
    winners = set()
    for s in range(30):
        net = PathNetwork(n, 0, adversary)
        got = broadcast(net, range(n), "x", Randomness(("tie", s)),
                        {ch: ch for ch in range(n)})
        assert got == recv_broadcast(_last_round_deliveries(net), range(n),
                                     Randomness(("tie", s)))
        winners.add(got[0])
    assert winners == ({"x"} if 2 * len(corrupted) < n else {"x", "y"})


def _forging_recorder(seen):
    def recorder(ctx: TamperContext):
        seen.append((ctx.round, ctx.where, ctx.payload))
        return ("forged", ctx.payload)
    return recorder


def test_one_round_send_and_one_hop_transmit_are_the_same_hop():
    seen = []
    hops = []
    for send in (lambda net: net.end_round({"r": ("u1", "B", "m")})["r"],
                 lambda net: net.transmit({"r": (("u1", "B"), "m")})["r"]):
        net = HyperNet(fixtures.get("fig5"),
                       AdversarySpec(frozenset({"u1"}), _forging_recorder(seen)))
        got = send(net)
        hops.append((got, net.view.events, net.transcript, net.round))
    assert hops[0] == hops[1]
    assert hops[0][:2] == (("forged", "m"), [(0, ("u1", ("B", "v")), ("forged", "m"))])
    assert seen == [(0, "u1", "m")] * 2


def test_hypernet_transcript_keeps_what_a_corrupted_origin_replaced():
    net = HyperNet(fixtures.get("fig5"),
                   AdversarySpec(frozenset({"u1"}), _forging_recorder([])))
    net.transmit({"r": (("u1", "B"), "m")})
    assert net.transcript == [(0, ("r", "u1"), "m", ("forged", "m"))]


def test_unknown_hop_rejected():
    seen = []
    net = HyperNet(fixtures.get("fig5"),
                   AdversarySpec(frozenset({"u1"}), lambda ctx: seen.append(ctx.payload)))
    with pytest.raises(ParamError):
        net.end_round({"a": ("u1", "B", "x"), "b": ("B", "A", "x")})
    with pytest.raises(ParamError):
        net.end_round({"a": ("u1", "B", "x"), "b": ("A", "B", "x")})
    # every hyperedge is looked up before any send is tampered, recorded or logged
    assert (seen, net.view.events, net.transcript, net.round) == ([], [], [], 0)


def test_both_simulators_tamper_through_one_step():
    # each strategy call sees the round, the location, the payload and the
    # run's own view, with one state dict and one adversary stream per run
    contexts = []

    def counter(ctx):
        contexts.append(ctx)
        ctx.state["calls"] = ctx.state.get("calls", 0) + 1
        return ("forged", ctx.state["calls"])

    path = PathNetwork(1, 0, AdversarySpec(frozenset({("AB", 0)}), counter))
    hyper = HyperNet(fixtures.get("fig5"), AdversarySpec(frozenset({"u1"}), counter))
    for rnd in range(2):
        assert path.end_round({("AB", 0): "m"}) == {("AB", 0): ("forged", rnd + 1)}
        assert hyper.end_round({"m": ("u1", "B", "m")}) == {"m": ("forged", rnd + 1)}
    for net, where in ((path, ("AB", 0)), (hyper, "u1")):
        mine = [c for c in contexts if c.view is net.view]
        assert [(c.round, c.where, c.payload) for c in mine] == [
            (0, where, "m"), (1, where, "m")]
        assert mine[0].state is mine[1].state and mine[0].rng is mine[1].rng


def test_majority_of_clear_and_tie():
    assert majority_of(["a", "b", "a"], Randomness(0)) == "a"
    assert majority_of([], Randomness(0)) is None
    # unhashable values vote for None instead of raising
    assert majority_of([["a"], ("a", ["b"]), "a"], Randomness(0)) is None
    assert majority_of([["a"], "a", "a"], Randomness(0)) == "a"
    picks = {majority_of(["a", "b"], Randomness(s)) for s in range(40)}
    assert picks == {"a", "b"}  # the tie coin actually varies
    counts = {"a": 0, "b": 0}
    for s in range(2000):
        counts[majority_of(["a", "b"], Randomness(("tie", s)))] += 1
    assert 850 <= counts["a"] <= 1150


class _Equal:
    """Hashable and equal to every other instance, yet not the same object."""

    def __init__(self, tag):
        self.tag = tag

    def __eq__(self, other):
        return isinstance(other, _Equal)

    def __hash__(self):
        return 0

    def __repr__(self):
        return f"_Equal({self.tag})"


def _adversarial_votes(coin, spec):
    """One vote list: repeated objects, equal copies that are not the same
    object, values equal across types, unhashable and nested values."""
    pool = [
        lambda: None, lambda: 1, lambda: 1.0, lambda: True, lambda: 0, lambda: False,
        lambda: "a", lambda: "b", lambda: ("a", 1), lambda: ("a", 1.0),
        lambda: ("a", ("b", (1,))), lambda: ("a", ("b", [1])), lambda: ["a"],
        lambda: {"a": 1}, lambda: {1, 2}, lambda: frozenset({1, 2}), lambda: (),
        lambda: spec.element(coin.randrange(3)),
        lambda: (spec.element(coin.randrange(3)), "tag"),
        lambda: _Equal(coin.randrange(3)),
        lambda: float("nan"),
    ]
    made = [pool[coin.randrange(len(pool))]() for _ in range(coin.randrange(1, 5))]
    votes = []
    for _ in range(coin.randrange(0, 9)):
        # the same object again, or a fresh copy
        votes.append(coin.choice(made) if coin.random() < 0.5
                     else pool[coin.randrange(len(pool))]())
    return votes


def test_majority_of_matches_the_hashing_vote_on_plain_values():
    import random

    from oracles import hashed_majority

    spec = GF(5)
    coin = random.Random("votes")
    for trial in range(3000):
        votes = _adversarial_votes(coin, spec)
        for tie_seed in range(3):
            got = majority_of(votes, Randomness(("tie", trial, tie_seed)))
            want = hashed_majority(votes, Randomness(("tie", trial, tie_seed)))
            assert got is want, votes


def test_a_vote_over_equal_traced_copies_observes_nothing():
    spec = GF(7)
    rng = TracingRandomness(0)
    x, y = spec.sample(rng), spec.sample(rng)
    bundle = (x, x * y + spec.one())
    tie = Randomness(0)
    assert majority_of([x, x, x + spec.zero(), None], tie) is x
    assert majority_of([bundle, bundle, None, (x, "tag")], tie) is bundle
    assert majority_of([(x, bundle), [y], (x, bundle)], tie) == (x, bundle)
    assert rng.observed == set()
    # an unhashable vote counts as None without hashing what it holds
    assert majority_of([[x], [x], bundle], tie) is None
    assert rng.observed == set()


def test_reliable_send_failure_rate():
    net = HyperNet(fixtures.get("fig5"))
    rng = Randomness("reliable")
    got = [reliable_send(net, "t", i, 0.1, rng) for i in range(10**4)]
    assert 800 <= got.count(None) <= 1200
    assert all(g in (None, i) for i, g in enumerate(got))  # bit-exact, never modified
    # contents are public: every payload lands in the view, one round each
    assert net.view.public == [(i, ("reliable", "t"), i) for i in range(10**4)]
    assert net.transcript == [(i, ("reliable", "t"), i, g) for i, g in enumerate(got)]
    assert (net.round, net.view.events) == (10**4, [])


def test_reliable_send_draws_its_coin_only_when_it_can_lose(monkeypatch):
    import random

    from psmt import protocols, randomness

    reference = random.Random(randomness._canon(("coin", 1)))
    want = [None if reference.randrange(10**6) < 0.5 * 10**6 else i for i in range(40)]
    built = []

    class Counting(random.Random):
        def __init__(self, x):
            built.append(x)
            super().__init__(x)

    monkeypatch.setattr(randomness.random, "Random", Counting)
    net = PathNetwork(1, 0)
    rng = Randomness(("coin", 0))
    assert [reliable_send(net, "t", i, 0.0, rng) for i in range(40)] == list(range(40))
    assert built == []
    # above 0: one coin a send, the stream's randrange(10^6), as before
    rng = Randomness(("coin", 1))
    assert [reliable_send(net, "t", i, 0.5, rng) for i in range(40)] == want
    assert built == [randomness._canon(("coin", 1))]
    # neighbor-exchange at its default never seeds its channel stream
    built.clear()
    out = protocols.get("neighbor-exchange").run(GF(7).element(2), seed=3)
    assert out.succeeded
    assert built and randomness._canon((3, "channel")) not in built


def test_hypernet_corruption_validation():
    graph = fixtures.get("fig5")
    with pytest.raises(ParamError):
        HyperNet(graph, AdversarySpec(frozenset({"A"})))
    with pytest.raises(ParamError):
        HyperNet(graph, AdversarySpec(frozenset({"B"})))
    with pytest.raises(ParamError):
        HyperNet(graph, AdversarySpec(frozenset({"nope"})))


def test_hypernet_multicast_overhearing():
    graph = fixtures.get("fig5")
    net = HyperNet(graph, AdversarySpec(frozenset({"v"})))
    heard = net.end_round({"m": ("u1", "B", "hello")})
    assert heard == {"m": "hello"}
    assert net.view.events == [(0, ("u1", ("B", "v")), "hello")]
    # a multicast no corrupted node can hear leaves no trace
    net2 = HyperNet(graph, AdversarySpec(frozenset({"v1"})))
    net2.end_round({"m": ("u1", "B", "hello")})
    assert net2.view.events == []
    # A has two hyperedges in fig5: the named node picks the one used
    net3 = HyperNet(graph, AdversarySpec(frozenset({"u1"})))
    net3.end_round({"m": ("A", "u2", "x")})
    assert net3.view.events == [(0, ("A", ("u1", "u2")), "x")]
    with pytest.raises(ParamError):
        net.end_round({"m": ("B", "A", "x")})  # B has no hyperedge to send on in fig5


def test_hypernet_transmit_routing_and_tampering():
    graph = to_hypergraph(fixtures.get("fig2"))
    net = HyperNet(graph, AdversarySpec(frozenset({"C"}),
                                        constant_replacer("forged")))
    delivered = net.transmit({
        "top": (("A", "C", "B"), "real"),
        "bottom": (("A", "D", "B"), "real"),
    })
    assert delivered == {"top": "forged", "bottom": "real"}
    assert net.round == 2  # one hop per round
    with pytest.raises(ParamError):
        net.transmit({"bad": (("A", "B"), "x")})  # A and B are not adjacent


@pytest.mark.parametrize("path", [("A",), ()], ids=["one-node", "empty"])
def test_transmit_rejects_a_route_shorter_than_two_nodes(path):
    net = HyperNet(fixtures.get("fig5"))
    with pytest.raises(ParamError):
        net.transmit({"r": (path, "x")})
    assert (net.round, net.transcript) == (0, [])


def test_view_leaves_and_canonical_descend_into_tuples():
    spec = GF(7)
    tainted = spec.sample(TracingRandomness("view", pinned={0: 3}))
    view = AdversaryView()
    view.record(0, ("AB", 0), ((tainted, spec.element(5)), "tag", ()))
    view.announce(1, "AB", [1, 2])
    leaves = dict(view.leaves())
    assert leaves[("event", 0, 0, ("AB", 0), 0, 0)].taint == frozenset({0})
    assert leaves[("event", 0, 0, ("AB", 0), 0, 1)] == spec.element(5)
    assert leaves[("event", 0, 0, ("AB", 0), 1)] == "tag"
    assert leaves[("event", 0, 0, ("AB", 0), 2)] == ()   # an empty tuple is a leaf
    assert leaves[("public", 0, 1, "AB")] == [1, 2]
    # the canonical form keys the same leaves: taints dropped, values kept
    assert dict(view.canonical()) == {
        ("event", 0, 0, ("AB", 0), 0, 0): ("F", 3),
        ("event", 0, 0, ("AB", 0), 0, 1): ("F", 5),
        ("event", 0, 0, ("AB", 0), 1): "tag",
        ("event", 0, 0, ("AB", 0), 2): (),
        ("public", 0, 1, "AB"): ("list", (1, 2)),
    }


class _Hidden:
    """An unhashable payload object whose repr hides what it carries."""

    def __init__(self, item):
        self.item = item

    def __repr__(self):
        return "_Hidden"

    __hash__ = None


def test_canonical_keys_an_unhashable_leaf_by_its_structure():
    spec = GF(5)

    def key(payload):
        view = AdversaryView()
        view.record(0, ("AB", 0), payload)
        (_, got), = view.canonical()
        hash(got)
        return got

    assert key(_Hidden(spec.element(1))) == key(_Hidden(spec.element(1)))
    assert key(_Hidden(spec.element(1))) != key(_Hidden(spec.element(2)))
    assert key({"a": [spec.element(3)]}) == ("dict", (("a", ("list", (("F", 3),))),))
    assert key([{1, 2}]) == key([{2, 1}]) != key([{1, 3}])
    cycle = [spec.element(4)]
    cycle.append(cycle)
    assert key(cycle) == ("list", (("F", 4), ("seen",)))


def test_adversary_rng_is_seed_deterministic():
    spec = GF(7)

    def noisy(ctx):
        v, _ = ctx.rng.draw(7)
        return spec.element(v)

    outs = []
    for _ in range(2):
        net = PathNetwork(1, 0, AdversarySpec(frozenset({("AB", 0)}),
                                              noisy, seed=5))
        outs.append(net.end_round({("AB", 0): spec.element(0)})[("AB", 0)])
    assert outs[0] == outs[1]
