"""Graph models and exact connectivity analysis.

Three network models: directed graphs, multicast hypergraphs, and
neighbor networks (undirected multicast).  Every search is a
breadth-first search on int bitmasks, lowest bit first.  Disjoint paths
and minimum vertex separators come from one node-split max flow
(Menger's theorem) and have no size limit: node v of rank r in
``repr`` order becomes the in-node r and the out-node n + r, so ties
between maximum path sets break in ``str`` order of the split names
("in", v) and ("out", v).  The two orders agree on str, int and float
names and tuples of them: ``str(("in", v))`` is ``"('in', "`` followed
by ``repr(v) + ")"``, so two names compare as their reprs do unless one
repr is a proper prefix of the other, and then the longer one goes on
with a digit, "." or "e" of a longer number, all above ")".  A mask
operation costs time in proportion to the node count: one max flow on a
random digraph with three links per node takes 0.35, 5.1 and 39 ms at
200, 2,000 and 5,000 nodes (dict successor lists: 0.55, 6.3 and 22 ms;
Python 3.11, Xeon, best of 15).
The hypergraph and neighbor-network connectivity predicates enumerate
removed node sets as masks, bit i for node i in ``sorted`` order, and
refuse graphs with more than 20 nodes.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

from .errors import ParamError, SizeLimit

_NODE_LIMIT = 20


def _check_size(nodes) -> None:
    if len(nodes) > _NODE_LIMIT:
        raise SizeLimit(f"subset enumeration limited to |V| <= {_NODE_LIMIT}")


@dataclass(frozen=True)
class Digraph:
    nodes: frozenset
    edges: frozenset  # of (tail, head) pairs
    sender: str
    receiver: str

    def __post_init__(self):
        if self.sender == self.receiver:
            raise ParamError("sender and receiver must differ")
        for a, b in self.edges:
            if a not in self.nodes or b not in self.nodes:
                raise ParamError(f"edge ({a},{b}) references unknown node")
        if self.sender not in self.nodes or self.receiver not in self.nodes:
            raise ParamError("sender/receiver missing from node set")

    @classmethod
    def build(cls, nodes, edges, sender, receiver) -> "Digraph":
        return cls(frozenset(nodes), frozenset(tuple(e) for e in edges),
                   sender, receiver)


@dataclass(frozen=True)
class Hypergraph:
    nodes: frozenset
    hyperedges: tuple  # of (origin, frozenset(recipients))
    sender: str
    receiver: str

    def __post_init__(self):
        if self.sender == self.receiver:
            raise ParamError("sender and receiver must differ")
        for origin, recipients in self.hyperedges:
            if origin not in self.nodes or not recipients <= self.nodes:
                raise ParamError("hyperedge references unknown node")

    @classmethod
    def build(cls, nodes, hyperedges, sender, receiver) -> "Hypergraph":
        canon = tuple(sorted(
            (origin, frozenset(recipients)) for origin, recipients in hyperedges))
        return cls(frozenset(nodes), canon, sender, receiver)

    def direct_links(self) -> frozenset:
        """(X, Y) pairs with a hyperedge (X, X*) where Y is in X*."""
        return frozenset((origin, r) for origin, recipients in self.hyperedges
                         for r in recipients if r != origin)

    def induced_digraph(self) -> Digraph:
        return Digraph(self.nodes, self.direct_links(), self.sender, self.receiver)


@dataclass(frozen=True)
class NeighborNet:
    nodes: frozenset
    edges: frozenset  # of frozenset({a, b}) pairs
    sender: str
    receiver: str
    _adjacent: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sender == self.receiver:
            raise ParamError("sender and receiver must differ")
        for e in self.edges:
            if len(e) != 2 or not e <= self.nodes:
                raise ParamError("edges must be 2-subsets of the node set")
        adjacent = {v: set() for v in self.nodes}
        for a, b in self.edges:
            adjacent[a].add(b)
            adjacent[b].add(a)
        object.__setattr__(self, "_adjacent",
                           {v: frozenset(near) for v, near in adjacent.items()})

    @classmethod
    def build(cls, nodes, edges, sender, receiver) -> "NeighborNet":
        return cls(frozenset(nodes), frozenset(frozenset(e) for e in edges),
                   sender, receiver)

    def neighbors(self, v) -> frozenset:
        return self._adjacent.get(v, frozenset())


@dataclass(frozen=True)
class PathSet:
    """Internally node-disjoint directed sender->receiver paths."""

    paths: tuple  # of node tuples

    def __len__(self) -> int:
        return len(self.paths)

    def validate(self, links: frozenset, sender, receiver) -> None:
        seen = set()
        for p in self.paths:
            if p[0] != sender or p[-1] != receiver:
                raise ParamError("path endpoints wrong")
            for a, b in zip(p, p[1:]):
                if (a, b) not in links:
                    raise ParamError(f"({a},{b}) is not a link")
            internal = set(p[1:-1])
            if internal & seen:
                raise ParamError("paths share an internal node")
            seen |= internal


# ---------------------------------------------------------------------------
# disjoint paths via node-splitting max flow


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _search(succ, src: int, dst: int, unseen: int) -> tuple[list | None, int]:
    """Breadth-first search from ``src`` over the successor masks ``succ``
    through the ``unseen`` mask, lowest bit first, until ``dst`` is seen.
    Returns the path of node indices, or None, and the mask left unseen."""
    prev = [src] * len(succ)
    queue = [src]
    for u in queue:
        new = succ[u] & unseen
        if new:
            unseen ^= new
            while new:   # _bits(new), inline on this hot path
                low = new & -new
                v = low.bit_length() - 1
                prev[v] = u
                queue.append(v)
                new ^= low
            if not unseen >> dst & 1:
                path = [dst]
                while path[-1] != src:
                    path.append(prev[path[-1]])
                return path[::-1], unseen
    return None, unseen


def _max_flow(g: Digraph):
    """Unit-capacity max flow in the node-split network of ``g``.

    Each node's in-node -> out-node arc has capacity 1, and so has each
    link (a, b), an arc from a's out-node to b's in-node; a self-loop lies
    on no path and is left out.  Paths start at the sender's out-node and
    end at the receiver's in-node, so the endpoints' node arcs carry no
    flow.  Bit v of ``arcs[u]`` is the arc u -> v and ``res`` holds the
    residual arcs and reverse arcs the same way.  Returns the nodes by
    rank, ``arcs``, ``res`` and the mask of the residual-reachable set of
    the maximum flow, from the last, failed augmenting search.
    """
    order = sorted(g.nodes, key=repr)
    n = len(order)
    rank = {v: r for r, v in enumerate(order)}
    arcs = [1 << (n + r) for r in range(n)] + [0] * n
    for a, b in g.edges:
        if a != b:
            arcs[n + rank[a]] |= 1 << rank[b]
    res = arcs[:]
    s, t = n + rank[g.sender], rank[g.receiver]
    while True:
        path, unseen = _search(res, s, t, ~(1 << s))
        if path is None:
            return order, arcs, res, ~unseen
        for u, v in zip(path, path[1:]):
            res[u] &= ~(1 << v)
            res[v] |= 1 << u


def _digraph(g) -> Digraph:
    return g.induced_digraph() if isinstance(g, Hypergraph) else g


def _paths(g: Digraph, order, arcs, res, reach) -> PathSet:
    n = len(order)
    # an arc carries flow when it is saturated; every internal node passes
    # one unit, so each of the sender's links that carries flow starts a
    # path with one successor at each step
    t = order.index(g.receiver)
    s = n + order.index(g.sender)
    paths = []
    for v in _bits(arcs[s] & ~res[s]):
        path = [g.sender]
        while v != t:
            if v >= n:   # through a node arc
                path.append(order[v - n])
            v = (arcs[v] & ~res[v]).bit_length() - 1
        paths.append((*path, g.receiver))
    return PathSet(tuple(sorted(paths)))


def _separator(g: Digraph, order, arcs, res, reach) -> frozenset | None:
    """Every original arc from the residual-reachable set to the rest is
    saturated, so there are exactly flow-many, and each maps to its head's
    node: a node arc to its node, a link (a, b) to b.  Here b is never the
    receiver: a saturated link into it from an internal node leaves an
    unreachable out-node."""
    if (g.sender, g.receiver) in g.edges:
        return None
    n = len(order)
    # original arcs only: a residual reverse arc leaving the set is no cut
    return frozenset(order[v % n] for u in _bits(reach) for v in _bits(arcs[u] & ~reach))


def max_disjoint_paths(g) -> PathSet:
    """Maximum set of internally node-disjoint directed sender->receiver paths."""
    g = _digraph(g)
    return _paths(g, *_max_flow(g))


def min_vertex_separator(g) -> frozenset | None:
    """Smallest W in V-{A,B} meeting every directed A->B path (Menger),
    read off the max flow's residual graph.  Returns None when no such set
    exists (a direct sender->receiver link)."""
    g = _digraph(g)
    if (g.sender, g.receiver) in g.edges:
        return None
    return _separator(g, *_max_flow(g))


def menger(g) -> tuple[PathSet, frozenset | None]:
    """``max_disjoint_paths`` and ``min_vertex_separator`` of ``g`` from
    one max flow."""
    g = _digraph(g)
    flow = _max_flow(g)
    return _paths(g, *flow), _separator(g, *flow)


def _survive_all(g, k: int, survives) -> bool:
    """Whether ``survives(removed)`` for every mask of < k internal nodes."""
    _check_size(g.nodes)
    internal = [1 << i for i, v in enumerate(sorted(g.nodes))
                if v != g.sender and v != g.receiver]
    return all(survives(sum(s))
               for size in range(min(k - 1, len(internal)) + 1)
               for s in itertools.combinations(internal, size))


# ---------------------------------------------------------------------------
# hypergraph predicates


def separable_by(cut: frozenset | None, k: int) -> bool:
    """Whether a minimum separator ``cut`` shows some W (|W| <= k) meeting
    every directed path."""
    return cut is not None and len(cut) <= k


def is_k_separable(h: Hypergraph, k: int):
    """(True, witness W) if some W (|W| <= k) meets every directed path."""
    cut = min_vertex_separator(h)
    return (True, cut) if separable_by(cut, k) else (False, None)


def _links(h: Hypergraph, directed: bool):
    """Nodes, indices, and a map from a removed-node mask to the successor
    masks of the links left: removing a node removes every hyperedge it
    touches.  Each link runs both ways unless ``directed``."""
    order = sorted(h.nodes)
    index = {v: i for i, v in enumerate(order)}
    arcs = []   # (touch mask, tail, head mask)
    for origin, recipients in h.hyperedges:
        o = index[origin]
        heads = sum(1 << index[r] for r in recipients - {origin})
        arcs.append((heads | 1 << o, o, heads))
        if not directed:
            arcs += [(heads | 1 << o, r, 1 << o) for r in _bits(heads)]

    def succ(removed: int) -> list:
        out = [0] * len(order)
        for touch, u, heads in arcs:
            if not touch & removed:
                out[u] |= heads
        return out

    return order, index, succ


def _connected(h: Hypergraph, k: int, directed: bool) -> bool:
    _, index, succ = _links(h, directed)
    s, t = index[h.sender], index[h.receiver]
    return _survive_all(h, k, lambda removed: _search(succ(removed), s, t, ~(1 << s))[0]
                        is not None)


def strongly_k_connected(h: Hypergraph, k: int) -> bool:
    return _connected(h, k, directed=True)


def weakly_k_connected(h: Hypergraph, k: int) -> bool:
    return _connected(h, k, directed=False)


def strong_witness_path(h: Hypergraph, removed: frozenset) -> tuple | None:
    """A directed path surviving removal of `removed` and touched hyperedges."""
    order, index, succ = _links(h, directed=True)
    s, t = index[h.sender], index[h.receiver]
    path, _ = _search(succ(sum(1 << index[v] for v in removed & h.nodes)), s, t, ~(1 << s))
    return None if path is None else tuple(order[i] for i in path)


# ---------------------------------------------------------------------------
# neighbor networks


def to_hypergraph(g: NeighborNet) -> Hypergraph:
    """Equivalent hypergraph: one hyperedge (v, neighbors(v)) per node."""
    return Hypergraph.build(
        g.nodes,
        [(v, g.neighbors(v)) for v in sorted(g.nodes)],
        g.sender, g.receiver)


def k_connected(g: NeighborNet, k: int) -> bool:
    """At least k internally node-disjoint undirected paths: the
    hypergraph's induced digraph holds every edge both ways."""
    return len(max_disjoint_paths(to_hypergraph(g))) >= k


def weakly_k_hyper_connected(g: NeighborNet, k: int) -> bool:
    return weakly_k_connected(to_hypergraph(g), k)


def _adjacency(g: NeighborNet) -> tuple[dict, list]:
    """Node indices and each node's neighbor mask."""
    order = sorted(g.nodes)
    index = {v: i for i, v in enumerate(order)}
    return index, [sum(1 << index[u] for u in g.neighbors(v)) for v in order]


def neighbor_k_connected(g: NeighborNet, k: int) -> bool:
    index, near = _adjacency(g)
    s, t = index[g.sender], index[g.receiver]

    def survives(v1: int) -> bool:
        # remove v1 and its neighbors, the endpoints excepted
        removed = functools.reduce(operator.or_, (near[v] for v in _bits(v1)), v1)
        return _search(near, s, t, ~(removed & ~(1 << t) | 1 << s))[0] is not None

    return _survive_all(g, k, survives)


def _all_simple_paths(g: NeighborNet) -> list:
    out = []
    target = g.receiver

    def extend(path, visited):
        u = path[-1]
        if u == target:
            out.append(tuple(path))
            return
        for v in sorted(g.neighbors(u)):
            if v not in visited:
                extend(path + [v], visited | {v})

    extend([g.sender], {g.sender})
    return out


def weakly_nk_connected(g: NeighborNet, n: int, k: int):
    """(True, witness path family) per the disjoint-neighborhood definition:
    n simple sender->receiver paths with disjoint inner nodes such that
    every set t of at most k inner nodes leaves one of them clear.  A path
    is clear of t when no node on it neighbors t, the endpoints included,
    so a t holding a neighbor of the sender or the receiver is clear of no
    path and the answer is False without listing any path.  That early
    answer is exact under this clearance rule only; a rule over inner
    nodes alone would need the full search."""
    if n < 0 or k < 0:
        raise ParamError(f"n and k must be at least 0, got n={n}, k={k}")
    _check_size(g.nodes)
    if k and (g.neighbors(g.sender) | g.neighbors(g.receiver)) - {g.sender, g.receiver}:
        return False, None
    index, near = _adjacency(g)
    paths = _all_simple_paths(g)
    internal = [1 << index[v] for v in sorted(g.nodes - {g.sender, g.receiver})]
    tsets = [sum(t)
             for size in range(min(k, len(internal)) + 1)
             for t in itertools.combinations(internal, size)]
    # a path is clear of t when no node on it neighbors t
    around = [functools.reduce(operator.or_, (near[index[v]] for v in p)) for p in paths]
    if any(all(a & t for a in around) for t in tsets):
        return False, None   # some t is clear of no path, so of no family
    inner = [sum(1 << index[v] for v in p[1:-1]) for p in paths]
    for family in itertools.combinations(range(len(paths)), n):
        if any(inner[i] & inner[j] for i, j in itertools.combinations(family, 2)):
            continue
        if all(any(not around[i] & t for i in family) for t in tsets):
            return True, tuple(paths[i] for i in family)
    return False, None


def connectivity_hierarchy(g: NeighborNet, k: int) -> dict:
    """All four predicates at level k, with the implication chain asserted;
    refused for neighboring endpoints, where the chain does not hold."""
    if k < 0:
        raise ParamError(f"k must be at least 0, got {k}")
    if g.receiver in g.neighbors(g.sender):
        raise ParamError("the hierarchy needs a sender and receiver that are not neighbors")
    h = to_hypergraph(g)
    max_n = len(max_disjoint_paths(h))
    kc = max_n >= k   # k_connected, from the one max flow
    wh = weakly_k_connected(h, k)   # weakly_k_hyper_connected
    nc = neighbor_k_connected(g, k)
    # at k = 0 no t is to be cleared and the empty family qualifies
    wnk = k == 0 or any(weakly_nk_connected(g, n, k - 1)[0]
                        for n in range(k, max_n + 1))
    report = {
        "k_connected": kc,
        "weakly_k_hyper_connected": wh,
        "k_neighbor_connected": nc,
        "weakly_nk_connected": wnk,
        "k": k,
    }
    # implication chain on this instance
    if wnk and not nc:
        raise AssertionError("hierarchy violated: weak (n,k-1) without neighbor")
    if nc and not wh:
        raise AssertionError("hierarchy violated: neighbor without weak hyper")
    if wh and not kc:
        raise AssertionError("hierarchy violated: weak hyper without k-connected")
    return report
