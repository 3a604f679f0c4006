"""Transmission protocols over multicast hypergraphs and neighbor networks.

Corruption here is node-level: a corrupted node overhears every
hyperedge it can receive on and may replace anything it forwards or
originates.  Every round is one ``HyperNet.end_round`` call, made
directly or by ``transmit``; ``neighbor_exchange``'s two rounds on its
idealized reliable channel are ``netsim.reliable_send`` calls.
Reliable sub-channels (disjoint-path majorities or that channel) carry
public data only.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ..authcodes import LinearKey, auth_linear, verify
from ..errors import ParamError, PreconditionError
from ..field import FieldElement
from ..fixtures import fig2
from ..netsim import AdversarySpec, HyperNet, Outcome, majority_of, reliable_send
from ..randomness import Randomness
from ..topology import (
    Hypergraph,
    menger,
    separable_by,
    strong_witness_path,
    to_hypergraph,
)
from .common import _rng, as_field, as_field_vec, as_indices, fields, finish, tagged


def _reverse(h: Hypergraph) -> Hypergraph:
    return Hypergraph(h.nodes, h.hyperedges, h.receiver, h.sender)


@lru_cache(maxsize=64)
def _majority_paths(graph: Hypergraph, k: int) -> tuple:
    """2k+1 node-disjoint paths, from one max flow per (graph, k); refused
    when 2k nodes separate the endpoints.  A direct hyperedge has no inner
    node, so it carries every copy the other paths leave missing."""
    paths, cut = menger(graph)
    if separable_by(cut, 2 * k):
        raise PreconditionError(
            f"{graph.sender}->{graph.receiver} is {2 * k}-separable"
            f" (witness {sorted(cut)})")
    paths = paths.paths[: 2 * k + 1]
    if cut is None:   # a direct hyperedge: the max flow holds its path
        paths += ((graph.sender, graph.receiver),) * (2 * k + 1 - len(paths))
    return paths


def reliable_transmit(net: HyperNet, graph: Hypergraph, payload, k: int,
                      tie_rng, public: bool = True):
    """One copy along each of 2k+1 node-disjoint paths and the majority at
    the far end; the value is announced as public unless ``public`` is off."""
    paths = _majority_paths(graph, k)
    if public:
        net.view.announce(net.round, (graph.sender, graph.receiver), payload)
    delivered = net.transmit({i: (p, payload) for i, p in enumerate(paths)})
    return majority_of([delivered.get(i) for i in range(len(paths))], tie_rng)


def hypergraph_reliable(message: FieldElement, graph: Hypergraph, k: int,
                        adversary: AdversarySpec | None = None,
                        seed=0, rng=None) -> Outcome:
    """Reliable (not private) transmission whenever the endpoints cannot
    be cut off by 2k nodes."""
    rng_b = _rng(rng, seed, "B")
    net = HyperNet(graph, adversary)
    got = reliable_transmit(net, graph, message, k, rng_b, public=False)
    return finish(message, net, as_field(message.spec, got))


@lru_cache(maxsize=64)
def _private_plan(graph: Hypergraph, k: int):
    """The reverse graph and the (suspect set, path) pairs: per set of
    min(k, |internal|) internal nodes, a path it can neither read nor
    touch.  Every smaller set lies inside one of these, so the paths also
    show the endpoints strongly k-connected.  Checked and computed once
    per (graph, k)."""
    back = _reverse(graph)
    for g in (graph, back):   # refused when 2k nodes separate either way
        _majority_paths(g, k)
    internal = sorted(graph.nodes - {graph.sender, graph.receiver})
    witness_paths = []
    for s in itertools.combinations(internal, min(k, len(internal))):
        path = strong_witness_path(graph, frozenset(s))
        if path is None:
            raise PreconditionError(f"no path avoiding the closure of {s}")
        witness_paths.append((s, path))
    return back, tuple(witness_paths)


def hypergraph_private(message: FieldElement, graph: Hypergraph, k: int,
                       adversary: AdversarySpec | None = None,
                       seed=0, rng=None) -> Outcome:
    """Private transmission built from per-suspect-set key paths.

    For every candidate corrupted set S a key pair travels along a path
    that S can neither read nor touch; the receiver's authenticated
    nonces tell the sender which keys arrived intact, and their sum pads
    the message over a public reliable channel.
    """
    spec = message.spec
    rng_a, rng_b = _rng(rng, seed, "A"), _rng(rng, seed, "B")
    back, plan = _private_plan(graph, k)
    witness_paths = dict(plan)
    suspects = list(witness_paths)
    net = HyperNet(graph, adversary)

    # step 1: one key pair per suspect set, along its witness path
    keys_a = {s: LinearKey.random(spec, rng_a) for s in suspects}
    routes = {s: (witness_paths[s], (keys_a[s].a, keys_a[s].b))
              for s in suspects}
    delivered = net.transmit(routes)
    keys_b = {}
    for s in suspects:
        a, b = as_field_vec(spec, delivered.get(s), 2)
        keys_b[s] = LinearKey(a, b)

    # step 2: authenticated nonces back to the sender, publicly; the
    # reverse paths run on the same hyperedges
    nonces_b = {s: spec.sample(rng_b) for s in suspects}
    bundle = tuple((nonces_b[s], auth_linear(nonces_b[s], keys_b[s]))
                   for s in suspects)
    got = reliable_transmit(net, back, bundle, k, rng_a)

    # step 3: the verified keys' sum pads the message, publicly
    k_index = []
    pad_a = spec.zero()
    for i, (s, pair) in enumerate(zip(suspects, fields(got, len(suspects)))):
        r, t = as_field_vec(spec, pair, 2)
        if verify(r, t, keys_a[s]):
            k_index.append(i)
            pad_a = pad_a + keys_a[s].a
    final = reliable_transmit(net, graph, (tuple(k_index), message + pad_a),
                              k, rng_b)

    idx, cipher = fields(final, 2)
    pad_b = spec.zero()
    for i in as_indices(idx, len(suspects)):
        pad_b = pad_b + keys_b[suspects[i]].a
    return finish(message, net, as_field(spec, cipher) - pad_b)


# ---------------------------------------------------------------------------
# neighbor-network protocol on the two-chain network with relay-masked keys


@lru_cache(maxsize=None)
def _exchange_hypergraph() -> Hypergraph:
    """The five-node neighbor network this protocol is designed for
    (``fixtures.fig2``) as a hypergraph, built once; it is immutable."""
    return to_hypergraph(fig2())


def neighbor_exchange(message: FieldElement,
                      adversary: AdversarySpec | None = None,
                      seed=0, rng=None, delta_r: float = 0.0) -> Outcome:
    """Private transmission over the two-chain neighbor network.

    Both ends hand one-time masks to the relays C and D; each relay
    multicasts a key pair masked for both ends, so neither the other
    relay nor the bystander F learns it.  Authenticated nonces over a
    reliable channel (failure probability ``delta_r``, contents public,
    never modified) tell the sender which keys survived.
    """
    if not 0 <= delta_r < 1:
        raise ParamError("delta_r must be in [0, 1)")
    spec = message.spec
    rng_a, rng_b = _rng(rng, seed, "A"), _rng(rng, seed, "B")
    relay_rng = _rng(rng, seed, "relays")
    channel_rng = Randomness((seed, "channel"))
    net = HyperNet(_exchange_hypergraph(), adversary)

    # round 1: fresh masks from both ends (relays C and D both hear both)
    masks_a = [spec.sample(rng_a) for _ in range(4)]
    masks_b = [spec.sample(rng_b) for _ in range(4)]
    heard = net.end_round({
        "A": ("A", "C", ("masks", tuple(masks_a[:2]), tuple(masks_a[2:]))),
        "B": ("B", "C", ("masks", tuple(masks_b[:2]), tuple(masks_b[2:])))})

    # round 2: each relay multicasts one key pair masked for either end
    sends = {}
    for slot, relay in enumerate(("C", "D")):
        key = LinearKey.random(spec, relay_rng)
        ma = as_field_vec(spec, fields(tagged(heard["A"], "masks", 2), 2)[slot], 2)
        mb = as_field_vec(spec, fields(tagged(heard["B"], "masks", 2), 2)[slot], 2)
        sends[relay] = (relay, "A", (key.a + ma[0], key.b + ma[1],
                                     key.a + mb[0], key.b + mb[1]))
    relay_out = net.end_round(sends)

    def unmask(end: str, masks) -> list[LinearKey]:
        keys = []
        for slot, relay in enumerate(("C", "D")):
            vec = as_field_vec(spec, relay_out[relay], 4)
            base = 0 if end == "A" else 2
            keys.append(LinearKey(vec[base] - masks[2 * slot],
                                  vec[base + 1] - masks[2 * slot + 1]))
        return keys
    keys_a = unmask("A", masks_a)
    keys_b = unmask("B", masks_b)

    # authenticated nonce from the receiver over the reliable channel
    r_b = spec.sample(rng_b)
    bundle = reliable_send(net, "BA", (r_b, auth_linear(r_b, keys_b[0]),
                                       auth_linear(r_b, keys_b[1])),
                           delta_r, channel_rng)
    if bundle is None:
        return finish(message, net, None, "reliable channel failed")
    r_a, *tags = as_field_vec(spec, bundle, 3)
    k_index = [i for i, t in enumerate(tags) if verify(r_a, t, keys_a[i])]
    pad_a = sum((keys_a[i].a for i in k_index), spec.zero())
    final = reliable_send(net, "AB", (tuple(k_index), message + pad_a),
                          delta_r, channel_rng)
    if final is None:
        return finish(message, net, None, "reliable channel failed")
    idx, cipher = fields(final, 2)
    pad_b = sum((keys_b[i].a for i in as_indices(idx, 2)), spec.zero())
    return finish(message, net, as_field(spec, cipher) - pad_b)
