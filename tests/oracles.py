"""Brute-force references that the fast paths in psmt are checked against.

They use nothing from psmt, so a test comparing against them does not
compare the library with itself.
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
