"""Brute-force references that the fast paths in psmt are checked against.

They import nothing from psmt, so a test comparing against them does not
compare the library with itself.  ``term_by_term_dot`` computes with the
field elements it is given, through their own operators only.
"""

import itertools
from collections import deque


def reaches(edges, s, t, removed=frozenset()) -> bool:
    """Breadth-first reachability from s to t avoiding the ``removed`` nodes."""
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    seen = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if u == t:
            return True
        for v in succ.get(u, ()):
            if v not in seen and v not in removed:
                seen.add(v)
                queue.append(v)
    return False


def brute_force_separator(g):
    """Smallest W in V-{A,B} meeting every directed A->B path of the
    digraph ``g``, by trying every node subset in order of size.

    Returns None when no such set exists (a direct sender->receiver edge).
    """
    internal = sorted(g.nodes - {g.sender, g.receiver})
    for size in range(len(internal) + 1):
        for w in itertools.combinations(internal, size):
            if not reaches(g.edges, g.sender, g.receiver, frozenset(w)):
                return frozenset(w)
    return None


def surviving_links(hyperedges, removed, directed=True) -> dict:
    """Successor sets of the links left after removing ``removed`` and
    every hyperedge (origin, recipients) it touches; each link both ways
    unless ``directed``."""
    succ: dict = {}
    for origin, recipients in hyperedges:
        if removed & (recipients | {origin}):
            continue
        for r in recipients - {origin}:
            succ.setdefault(origin, set()).add(r)
            if not directed:
                succ.setdefault(r, set()).add(origin)
    return succ


def bfs_path(succ: dict, src, dst) -> tuple | None:
    """A shortest src -> dst path over the successor sets ``succ``, the
    smallest successor first."""
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


def removed_sets(nodes, sender, receiver, k):
    """Every set of fewer than k nodes other than the endpoints."""
    internal = sorted(set(nodes) - {sender, receiver})
    return [frozenset(s) for size in range(min(k - 1, len(internal)) + 1)
            for s in itertools.combinations(internal, size)]


def hyper_survives(h, k, directed) -> bool:
    """Whether a sender -> receiver path over the surviving links of the
    hypergraph ``h`` outlives every removed set of fewer than k nodes."""
    return all(bfs_path(surviving_links(h.hyperedges, r, directed), h.sender, h.receiver)
               is not None for r in removed_sets(h.nodes, h.sender, h.receiver, k))


def neighbor_survives(g, k) -> bool:
    """Whether the neighbor network ``g`` keeps a sender -> receiver path
    after removing any set v1 of fewer than k nodes together with the
    neighbors of v1, the endpoints excepted."""
    for v1 in removed_sets(g.nodes, g.sender, g.receiver, k):
        removed = set(v1)
        for v in v1:
            removed |= g.neighbors(v)
        removed -= {g.sender, g.receiver}
        succ = {v: g.neighbors(v) - removed for v in g.nodes - removed}
        if bfs_path(succ, g.sender, g.receiver) is None:
            return False
    return True


def weak_family(g, n, k):
    """(True, family) for the first family of n simple sender -> receiver
    paths, with pairwise disjoint inner nodes, such that every set t of at
    most k inner nodes leaves some path of the family clear (no node on
    it neighbors t); else (False, None).  Paths in depth-first order over
    sorted neighbors; every family is tried."""
    paths = []

    def extend(path):
        if path[-1] == g.receiver:
            paths.append(tuple(path))
            return
        for v in sorted(g.neighbors(path[-1])):
            if v not in path:
                extend(path + [v])

    extend([g.sender])
    internal = sorted(g.nodes - {g.sender, g.receiver})
    tsets = [set(t) for size in range(min(k, len(internal)) + 1)
             for t in itertools.combinations(internal, size)]

    def clear(path, t):
        return not any(g.neighbors(v) & t for v in path)

    for family in itertools.combinations(paths, n):
        if any(set(a[1:-1]) & set(b[1:-1]) for a, b in itertools.combinations(family, 2)):
            continue
        if all(any(clear(path, t) for path in family) for t in tsets):
            return True, family
    return False, None


def term_by_term_dot(spec, row, ys):
    """``sum c * y`` over a row of raw constants, folded one term at a
    time with the element operators: each term builds a constant, a
    product and a running sum."""
    acc = spec.zero()
    for c, y in zip(row, ys):
        acc = acc + spec.element(c) * y
    return acc


def hashed_majority(values, tie_rng):
    """Most frequent value by a dict of the votes, an unhashable one
    counting as ``None``; a tie takes the coin over the tied values in
    ``str`` order.  Hashes every vote."""
    counts: dict = {}
    for v in values:
        try:
            hash(v)
        except TypeError:
            v = None
        counts[v] = counts.get(v, 0) + 1
    if not counts:
        return None
    top = max(counts.values())
    tied = [v for v, c in counts.items() if c == top]
    if len(tied) == 1:
        return tied[0]
    tied.sort(key=str)
    idx, _ = tie_rng.draw(len(tied))
    return tied[idx]


def mono_mul(a, b, q):
    """Product of two monomials, tuples of (variable, exponent) sorted by
    variable, with every exponent reduced into 1 .. q-1 by x^q = x."""
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, (e - 1) % (q - 1) + 1) for v, e in exps.items()))
