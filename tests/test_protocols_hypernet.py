"""Hypergraph and neighbor-network protocols."""

import pytest

from psmt import fixtures, topology
from psmt.errors import ParamError, PreconditionError
from psmt.field import GF, FieldElement
from psmt.netsim import AdversarySpec
from psmt.protocols import hypernet
from psmt.protocols.hypernet import (
    hypergraph_private,
    hypergraph_reliable,
    neighbor_exchange,
)
from psmt.randomness import Randomness
from psmt.topology import to_hypergraph

import sweep

BIG = GF(2**16)


def test_hypergraph_reliable_honest_and_adversarial():
    graph = fixtures.get("fig5")
    m = BIG.element(1000)
    out = hypergraph_reliable(m, graph, 1, seed=0)
    assert out.succeeded and out.delivered == m
    internal = sorted(graph.nodes - {"A", "B"})
    for node in internal:
        for s, strategy in enumerate(sweep.fixed_strategies(BIG)):
            out = hypergraph_reliable(
                m, graph, 1,
                AdversarySpec(frozenset({node}), strategy, seed=s), seed=3)
            assert out.succeeded and out.delivered == m


def test_hypergraph_reliable_precondition():
    # fig3's hypergraph is 2-separable, so k=1 (needing non-2-separable)
    # must be refused
    graph = to_hypergraph(fixtures.get("fig3"))
    with pytest.raises(PreconditionError):
        hypergraph_reliable(BIG.element(1), graph, 1)


def test_hypergraph_private_honest_and_adversarial():
    graph = fixtures.get("duo")
    rng = Randomness("hp-honest")
    for _ in range(10):
        m = BIG.sample(rng)
        out = hypergraph_private(m, graph, 1, seed=m.value)
        assert out.succeeded and out.delivered == m
    m = BIG.element(555)
    for node in ("x", "y"):
        for s, strategy in enumerate(sweep.fixed_strategies(BIG)):
            out = hypergraph_private(
                m, graph, 1,
                AdversarySpec(frozenset({node}), strategy, seed=s), seed=4)
            assert out.delivered == m, (node, s, out.detail)


def test_hypergraph_private_transcript_covers_both_directions():
    graph = fixtures.get("duo")
    out = hypergraph_private(BIG.element(7), graph, 1, seed=2)
    rounds = [entry[0] for entry in out.transcript]
    assert rounds == sorted(rounds)
    # the receiver's authenticated nonces travel on the reverse network
    bundles = [sent for _, (_, origin), sent, _ in out.transcript
               if origin == "B"]
    assert bundles
    assert all(isinstance(b, tuple) and len(b) == 2  # one per suspect x, y
               and all(isinstance(v, FieldElement) for pair in b for v in pair)
               for b in bundles)


def test_hypergraph_private_adversary_keeps_one_state_and_stream():
    # the reverse paths run on the same network, so the strategy's state
    # and randomness persist across the run, as TamperContext documents
    seen = []

    def watch(ctx):
        seen.append((id(ctx.state), id(ctx.rng)))
        ctx.state["calls"] = ctx.state.get("calls", 0) + 1
        return ctx.payload

    out = hypergraph_private(BIG.element(7), fixtures.get("duo"), 1,
                             AdversarySpec(frozenset({"x"}), watch), seed=2)
    assert out.succeeded
    assert len(seen) >= 2 and len(set(seen)) == 1


def test_hypergraph_private_preconditions():
    # fig5 is one-way only: B cannot reach A, so the feedback step fails
    with pytest.raises(PreconditionError):
        hypergraph_private(BIG.element(1), fixtures.get("fig5"), 1)
    with pytest.raises(PreconditionError):
        hypergraph_private(BIG.element(1), to_hypergraph(fixtures.get("fig3")), 1)


@pytest.mark.parametrize("k", [2, 3])
def test_duo_beyond_its_inner_nodes_delivers_over_every_placement(k):
    # duo has three disjoint paths, one of them the direct hyperedge,
    # which carries the copies of the 2k+1 the other two lack
    graph, spec = fixtures.get("duo"), GF(7)
    rng = Randomness(("duo", k))
    for run in (hypergraph_reliable, hypergraph_private):
        for corrupted in sweep.placements(sweep.nodes("x", "y"), range(3)):
            for s, strategy in enumerate(sweep.fixed_strategies(spec)):
                for seed in range(5):
                    m = spec.sample(rng)
                    out = run(m, graph, k, AdversarySpec(corrupted, strategy, seed=s),
                              seed=seed)
                    assert out.succeeded and out.delivered == m, (run, corrupted, s)


def test_majority_paths_fill_with_the_direct_hyperedge():
    duo = fixtures.get("duo")
    three = (("A", "B"), ("A", "x", "B"), ("A", "y", "B"))
    assert hypernet._majority_paths(duo, 1) == three
    assert hypernet._majority_paths(duo, 3) == three + (("A", "B"),) * 4


def test_hypergraph_private_suspects_at_most_the_inner_nodes():
    duo = fixtures.get("duo")
    for k, suspects in ((1, [("x",), ("y",)]), (2, [("x", "y")]), (3, [("x", "y")])):
        _, plan = hypernet._private_plan(duo, k)
        assert [s for s, _ in plan] == suspects
        assert all(path == ("A", "B") for s, path in plan if len(s) == 2)


def test_hypergraph_private_refuses_a_suspect_set_that_cuts_every_path():
    # strongly 1-connected and not 2-separable either way, but v0 touches
    # both of A's hyperedges
    graph = topology.Hypergraph.build(
        ["A", "B", "v0", "v1", "v2", "v3"],
        [("A", {"B", "v0"}), ("A", {"v0", "v2"}), ("B", {"A", "v1"}), ("B", {"v3"}),
         ("v0", {"B"}), ("v1", {"v2"}), ("v2", {"v1"}), ("v3", {"v2"})],
        "A", "B")
    assert topology.strongly_k_connected(graph, 1)
    with pytest.raises(PreconditionError, match=r"no path avoiding the closure of \('v0',\)"):
        hypergraph_private(BIG.element(1), graph, 1)


def test_a_private_plan_shows_strong_k_connectivity():
    # the witness paths stand in for the strongly_k_connected check: on
    # every hypergraph the plan accepts, the endpoints are strongly
    # k-connected
    rng = Randomness("plans")
    planned = 0
    for _ in range(300):
        nodes = ["A", "B"] + [f"v{i}" for i in range(rng.draw(4)[0] + 1)]
        edges = [(nodes[rng.draw(len(nodes))[0]],
                  {nodes[rng.draw(len(nodes))[0]] for _ in range(2)})
                 for _ in range(rng.draw(6)[0] + 4)]
        graph = topology.Hypergraph.build(nodes, edges, "A", "B")
        for k in (1, 2, 3):
            try:
                hypernet._private_plan(graph, k)
            except PreconditionError:
                continue
            planned += 1
            assert topology.strongly_k_connected(graph, k), (graph, k)
    assert planned > 0


def test_hypergraph_private_plans_from_one_flow_per_direction(monkeypatch):
    flows = []
    real = topology._max_flow
    monkeypatch.setattr(topology, "_max_flow", lambda g: flows.append(g) or real(g))
    hypernet._majority_paths.cache_clear()
    hypernet._private_plan.cache_clear()
    out = hypergraph_private(BIG.element(7), fixtures.get("duo"), 1, seed=2)
    assert out.succeeded and len(flows) == 2
    with pytest.raises(PreconditionError, match="A->B is 2-separable"):
        hypergraph_reliable(BIG.element(1), to_hypergraph(fixtures.get("fig3")), 1)


def test_neighbor_exchange_honest():
    rng = Randomness("ne-honest")
    for _ in range(20):
        m = BIG.sample(rng)
        out = neighbor_exchange(m, seed=m.value)
        assert out.succeeded and out.delivered == m


def test_neighbor_exchange_single_corruption():
    # the design tolerates one corrupted node among {C, D, F}
    m = BIG.element(31415)
    for node in ("C", "D", "F"):
        for s, strategy in enumerate(sweep.fixed_strategies(BIG)):
            out = neighbor_exchange(
                m, AdversarySpec(frozenset({node}), strategy, seed=s), seed=8)
            if out.succeeded:
                assert out.delivered == m
            else:
                assert out.failed


def test_neighbor_exchange_passive_curiosity_is_harmless():
    # every passive single-node adversary still sees correct delivery
    m = BIG.element(2718)
    for node in ("C", "D", "F"):
        out = neighbor_exchange(m, AdversarySpec(frozenset({node})), seed=2)
        assert out.succeeded and out.delivered == m


def test_neighbor_exchange_reliable_channel_failures():
    # with delta_r > 0 the run can abort, but never delivers wrongly
    m = BIG.element(99)
    aborted = delivered = 0
    for t in range(300):
        out = neighbor_exchange(m, seed=t, delta_r=0.2)
        if out.failed:
            aborted += 1
        else:
            assert out.succeeded and out.delivered == m
            delivered += 1
    assert aborted > 0 and delivered > 0
    # two reliable uses per run: abort rate ~ 1 - 0.8^2 = 0.36
    assert 60 <= aborted <= 160
    for delta_r in (1.0, -0.1):
        with pytest.raises(ParamError):
            neighbor_exchange(m, delta_r=delta_r)


def test_neighbor_exchange_transcript_covers_the_reliable_channel():
    m = BIG.element(2718)
    out = neighbor_exchange(m, seed=2)
    assert [(rnd, where) for rnd, where, _, _ in out.transcript] == [
        (0, ("A", "A")), (0, ("B", "B")), (1, ("C", "C")), (1, ("D", "D")),
        (2, ("reliable", "BA")), (3, ("reliable", "AB"))]
    # the reliable payloads are public and arrive unmodified
    assert [(rnd, where, sent) for rnd, where, sent, got in out.transcript[4:]
            if got == sent] == out.view.public
    # a lost payload is logged as sent and delivered as None
    lost = next(run for run in (neighbor_exchange(m, seed=t, delta_r=0.5)
                                for t in range(20)) if run.failed)
    rnd, where, sent, got = lost.transcript[-1]
    assert (where[0], got, rnd + 1) == ("reliable", None, lost.rounds)
    assert sent is not None
