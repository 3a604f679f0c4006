"""Graph models and exact connectivity analysis.

Three network models: directed graphs, multicast hypergraphs, and
neighbor networks (undirected multicast).  Disjoint paths and minimum
vertex separators come from one node-split max flow (Menger's theorem)
and have no size limit.  Its network is built once per call on integer
ids: node v of rank r in ``str(("in", v))`` order becomes the in-node r
and the out-node n + r, and each id's successors are sorted once.  The
augmenting-path search takes the smallest successor first, so ties
between maximum path sets break in ``str`` order of the split names
("in", v) and ("out", v).
The hypergraph and neighbor-network connectivity predicates enumerate
node subsets and refuse graphs with more than 20 nodes.
"""

from __future__ import annotations

import itertools
from collections import deque
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
        links = set()
        for origin, recipients in self.hyperedges:
            for r in recipients:
                if r != origin:
                    links.add((origin, r))
        return frozenset(links)

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


def _max_flow(g: Digraph):
    """Unit-capacity max flow in the node-split network of ``g``.

    Each node's in-node -> out-node arc has capacity 1 (the endpoints
    get an unbounded count), and so has each link (a, b), an arc from
    a's out-node to b's in-node.  Returns the nodes by rank, the
    original arcs ``cap[u] = {v: capacity}``, the residual capacities
    ``res[u]`` of arcs and reverse arcs, and the last, failed augmenting
    search's ``prev``: ``prev[u] >= 0`` exactly for the nodes u of the
    residual-reachable set of the maximum flow.
    """
    order = sorted(g.nodes, key=lambda v: str(("in", v)))
    n = len(order)
    rank = {v: r for r, v in enumerate(order)}
    cap = [{n + r: n + 1 if v in (g.sender, g.receiver) else 1}
           for r, v in enumerate(order)] + [{} for _ in order]
    for a, b in g.edges:
        cap[n + rank[a]][rank[b]] = 1
    res = [dict(arcs) for arcs in cap]
    for u, arcs in enumerate(cap):
        for v in arcs:
            res[v].setdefault(u, 0)
    succ = [sorted(arcs) for arcs in res]   # sorted once for every search
    s, t = n + rank[g.sender], rank[g.receiver]
    while True:
        # BFS over residual arcs, smallest successor first for determinism
        prev = [-1] * (2 * n)
        prev[s] = s
        queue = deque([s])
        while queue and prev[t] < 0:
            u = queue.popleft()
            for v in succ[u]:
                if prev[v] < 0 and res[u][v] > 0:
                    prev[v] = u
                    queue.append(v)
        if prev[t] < 0:
            return order, cap, res, prev
        v = t
        while v != s:
            u = prev[v]
            res[u][v] -= 1
            res[v][u] += 1
            v = u


def _digraph(g) -> Digraph:
    return g.induced_digraph() if isinstance(g, Hypergraph) else g


def _paths(g: Digraph, order, cap, res, prev) -> PathSet:
    n = len(order)
    # an arc carries flow when its residual capacity is below its original
    # one; every internal node passes one unit, so each of the sender's
    # links that carries flow starts a path with one successor at each step
    flows = [{v for v, c in arcs.items() if c > res[u][v]} for u, arcs in enumerate(cap)]
    t = order.index(g.receiver)
    paths = []
    for v in flows[n + order.index(g.sender)]:
        path = [g.sender]
        while v != t:
            if v >= n:   # through a node arc
                path.append(order[v - n])
            (v,) = flows[v]
        paths.append((*path, g.receiver))
    return PathSet(tuple(sorted(paths)))


def _separator(g: Digraph, order, cap, res, prev) -> frozenset | None:
    """Every original arc from the residual-reachable set to the rest is
    saturated, so there are exactly flow-many, and each maps to its head's
    node: a node arc to its node, a link (a, b) to b.  Here b is never the
    receiver: a saturated link into it from an internal node leaves an
    unreachable out-node."""
    if (g.sender, g.receiver) in g.edges:
        return None
    n = len(order)
    # original arcs only: a residual reverse arc leaving the set is no cut
    return frozenset(order[v % n] for u, p in enumerate(prev) if p >= 0
                     for v in cap[u] if prev[v] < 0)


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


def _bfs_path(succ: dict, src, dst) -> tuple | None:
    """A shortest src -> dst path over the successor sets ``succ``."""
    prev = {src: None}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            path = []
            while u is not None:
                path.append(u)
                u = prev[u]
            return tuple(reversed(path))
        for v in sorted(succ.get(u, ())):
            if v not in prev:
                prev[v] = u
                queue.append(v)
    return None


def _survive_all(g, k: int, survives) -> bool:
    """Whether ``survives(removed)`` for every set of < k internal nodes."""
    _check_size(g.nodes)
    internal = sorted(g.nodes - {g.sender, g.receiver})
    return all(survives(frozenset(s))
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


def _surviving_links(h: Hypergraph, removed: frozenset, directed: bool = True) -> dict:
    """Successor sets of the links left after removing `removed` and every
    hyperedge it touches; each link both ways unless ``directed``."""
    succ: dict = {}
    for origin, recipients in h.hyperedges:
        if removed & (recipients | {origin}):
            continue
        for r in recipients - {origin}:
            succ.setdefault(origin, set()).add(r)
            if not directed:
                succ.setdefault(r, set()).add(origin)
    return succ


def strongly_k_connected(h: Hypergraph, k: int) -> bool:
    return _survive_all(h, k, lambda removed: strong_witness_path(h, removed) is not None)


def weakly_k_connected(h: Hypergraph, k: int) -> bool:
    def survives(removed: frozenset) -> bool:
        succ = _surviving_links(h, removed, directed=False)
        return _bfs_path(succ, h.sender, h.receiver) is not None

    return _survive_all(h, k, survives)


def strong_witness_path(h: Hypergraph, removed: frozenset) -> tuple | None:
    """A directed path surviving removal of `removed` and touched hyperedges."""
    return _bfs_path(_surviving_links(h, removed), h.sender, h.receiver)


# ---------------------------------------------------------------------------
# neighbor networks


def to_hypergraph(g: NeighborNet) -> Hypergraph:
    """Equivalent hypergraph: one hyperedge (v, neighbors(v)) per node."""
    return Hypergraph.build(
        g.nodes,
        [(v, g.neighbors(v)) for v in sorted(g.nodes)],
        g.sender, g.receiver)


def _undirected_digraph(g: NeighborNet) -> Digraph:
    edges = set()
    for e in g.edges:
        a, b = sorted(e)
        edges.add((a, b))
        edges.add((b, a))
    return Digraph(g.nodes, frozenset(edges), g.sender, g.receiver)


def k_connected(g: NeighborNet, k: int) -> bool:
    """At least k internally node-disjoint undirected paths."""
    return len(max_disjoint_paths(_undirected_digraph(g))) >= k


def weakly_k_hyper_connected(g: NeighborNet, k: int) -> bool:
    return weakly_k_connected(to_hypergraph(g), k)


def neighbor_closure(g: NeighborNet, v1: frozenset) -> frozenset:
    closure = set(v1)
    for v in v1:
        closure |= g.neighbors(v)
    return frozenset(closure - {g.sender, g.receiver})


def neighbor_k_connected(g: NeighborNet, k: int) -> bool:
    def survives(v1: frozenset) -> bool:
        removed = neighbor_closure(g, v1)
        succ = {v: g.neighbors(v) - removed for v in g.nodes - removed}
        return _bfs_path(succ, g.sender, g.receiver) is not None

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
    """(True, witness path family) per the disjoint-neighborhood definition."""
    _check_size(g.nodes)
    internal = sorted(g.nodes - {g.sender, g.receiver})
    paths = _all_simple_paths(g)
    tsets = [frozenset(t)
             for size in range(min(k, len(internal)) + 1)
             for t in itertools.combinations(internal, size)]

    def path_clear(path, t) -> bool:
        return all(not (g.neighbors(v) & t) for v in path)

    for family in itertools.combinations(paths, n):
        internals = [frozenset(p[1:-1]) for p in family]
        if any(internals[i] & internals[j]
               for i in range(n) for j in range(i + 1, n)):
            continue
        if all(any(path_clear(p, t) for p in family) for t in tsets):
            return True, tuple(family)
    return False, None


def connectivity_hierarchy(g: NeighborNet, k: int) -> dict:
    """All four predicates at level k, with the implication chain asserted."""
    max_n = len(max_disjoint_paths(_undirected_digraph(g)))
    kc = max_n >= k   # k_connected, from the one max flow
    wh = weakly_k_hyper_connected(g, k)
    nc = neighbor_k_connected(g, k)
    wnk = any(weakly_nk_connected(g, n, k - 1)[0]
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
