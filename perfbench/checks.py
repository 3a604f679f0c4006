"""Correctness checkers for the benchmark, written apart from psmt.

Every checker decides from a computation of its own or from a property the
method must have, never from a stored output.  Field arithmetic is redone
here on plain integers, graph reachability with a separate BFS, and view
distributions by enumerating every draw sequence.  A checker returns
quietly on a right answer and raises ``CheckFailed`` on a wrong one.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction


class CheckFailed(Exception):
    """The program's output contradicts an independent computation."""


def require(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# reference field arithmetic


class RefField:
    """GF(p^m) on packed integers, written without psmt.field.

    Prime fields use integers mod p.  For p = 2 elements are bit vectors and
    multiplication is carry-less, reduced modulo the reduction polynomial.
    For odd p with m > 1 elements are little-endian base-p digit vectors and
    every operation works digit by digit.
    """

    def __init__(self, p: int, m: int = 1, reduction=None):
        self.p, self.m = p, m
        self.order = p ** m
        if m > 1:
            red = [int(c) % p for c in reduction]
            require(len(red) == m + 1 and red[-1] == 1,
                    "reduction polynomial must be monic of degree m")
            self.reduction = red
            self.red_bits = sum(c << i for i, c in enumerate(red)) if p == 2 else None

    @classmethod
    def of(cls, spec) -> "RefField":
        """Reference arithmetic for the field a psmt FieldSpec describes."""
        return cls(spec.p, spec.m, spec.reduction)

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return out

    def _pack(self, digits) -> int:
        value = 0
        for d in reversed(digits):
            value = value * self.p + d
        return value

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._pack([(x + y) % self.p
                           for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self._pack([(-x) % self.p for x in self._digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if self.p == 2:
            prod = 0
            while b:
                if b & 1:
                    prod ^= a
                a <<= 1
                b >>= 1
            for bit in range(prod.bit_length() - 1, self.m - 1, -1):
                if prod >> bit & 1:
                    prod ^= self.red_bits << (bit - self.m)
            return prod
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        for top in range(len(prod) - 1, self.m - 1, -1):
            lead = prod[top]
            if lead:
                for j, c in enumerate(self.reduction):
                    prod[top - self.m + j] = (prod[top - self.m + j] - lead * c) % self.p
        return self._pack(prod[: self.m])

    def pow(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        require(a != 0, "inverse of zero")
        return self.pow(a, self.order - 2)

    def interpolate_at(self, xs, ys, x0: int) -> int:
        """Value at x0 of the polynomial of degree < len(xs) through (xs, ys)."""
        acc = 0
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            num, den = 1, 1
            for j, xj in enumerate(xs):
                if j != i:
                    num = self.mul(num, self.sub(x0, xj))
                    den = self.mul(den, self.sub(xi, xj))
            acc = self.add(acc, self.mul(yi, self.mul(num, self.inv(den))))
        return acc


def codeword_secret(ref: RefField, xs, ys, k: int):
    """Secret of the codeword (xs, ys) of a degree-<=k polynomial, or None.

    The word is a codeword when every entry lies on the interpolant of its
    first k+1 entries; the secret is that interpolant's value at 0.
    """
    base_x, base_y = xs[: k + 1], ys[: k + 1]
    for x, y in zip(xs[k + 1:], ys[k + 1:]):
        if ref.interpolate_at(base_x, base_y, x) != y:
            return None
    return ref.interpolate_at(base_x, base_y, 0)


# ---------------------------------------------------------------------------
# decoding: the MDS bounds against the secret and errors the benchmark chose


def check_shares(ref: RefField, xs, shares, secret: int, k: int) -> None:
    """The n shares lie on one polynomial of degree <= k through the secret."""
    require(len(shares) == len(xs), "share count differs from n")
    require(codeword_secret(ref, xs, shares, k) == secret,
            "shares do not interpolate to the secret")


def check_decode(ref: RefField, xs, word, k: int, secret: int,
                 positions: frozenset, out: dict) -> None:
    """Check detect/correct/reconstruct/oracle results for one word.

    ``word`` is the received word (ints), ``positions`` the error positions
    the benchmark chose, ``out`` maps ``detect`` to "clean"/"corrupted",
    ``correct`` to None or (secret, error positions), ``reconstruct`` to an
    int, and ``oracle`` (optional) to a list of (secret, codeword, distance).
    """
    n = len(xs)
    w = len(positions)
    max_detect = n - k - 1
    e = max_detect // 2

    if w == 0:
        require(out["detect"] == "clean", "a clean word was flagged")
    elif w <= max_detect:
        require(out["detect"] == "corrupted", f"missed {w} errors within detection range")
    if out["detect"] == "clean":
        require(codeword_secret(ref, xs, word, k) is not None,
                "a non-codeword was reported clean")

    got = out["correct"]
    if w <= e:
        require(got is not None, f"{w} errors within radius {e} were not corrected")
        require(got[0] == secret, "corrected to a wrong secret")
        require(got[1] == positions, "wrong error positions")
    elif w <= n - k - e - 1:
        require(got is None, f"{w} errors inside the detection range were not detected")
    if got is not None:
        errs = got[1]
        require(len(errs) <= e, "correction reported more errors than its radius")
        good = [i for i in range(n) if i not in errs]
        require(codeword_secret(ref, [xs[i] for i in good],
                                [word[i] for i in good], k) == got[0],
                "corrected secret is not the value of a nearby codeword")

    require(out["reconstruct"] == ref.interpolate_at(xs[: k + 1], word[: k + 1], 0),
            "reconstruct is not the interpolant of the first k+1 entries at 0")

    best = out.get("oracle")
    if best is not None:
        require(best, "oracle returned no codeword")
        dists = {d for _, _, d in best}
        require(len(dists) == 1, "oracle mixed distances")
        dist = dists.pop()
        require(dist <= w, "oracle missed the codeword the word was made from")
        for s, cw, d in best:
            require(sum(a != b for a, b in zip(cw, word)) == d,
                    "oracle distance is wrong")
            require(codeword_secret(ref, xs, cw, k) == s,
                    "oracle returned a non-codeword or a wrong secret")
        if w <= e:
            require(len(best) == 1 and best[0][0] == secret and dist == w,
                    "oracle is not the unique nearest codeword")
        if got is not None:
            require(any(s == got[0] and d <= e for s, _, d in best),
                    "correction and oracle disagree")
        elif len(best) == 1:
            require(dist > e, "oracle found a codeword within the radius correction missed")


# ---------------------------------------------------------------------------
# protocol runs


def check_view_locations(events, corrupted: frozenset, graph_kind: bool) -> None:
    """Adversary-view events, as (round, where) pairs, sit only on corrupted
    channels or on hyperedges that touch a corrupted node."""
    for rnd, where in events:
        if graph_kind:
            origin, recipients = where
            require(({origin} | set(recipients)) & corrupted,
                    f"round {rnd}: event on {where} touches no corrupted node")
        else:
            require(where in corrupted,
                    f"round {rnd}: event on uncorrupted channel {where}")


# ---------------------------------------------------------------------------
# graphs: Menger certificates with our own BFS


def reaches(links, s, t, removed=frozenset()) -> bool:
    succ: dict = {}
    for a, b in links:
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


def check_paths(links, s, t, paths) -> None:
    """Paths run s -> t over existing links with disjoint internal nodes."""
    links = set(links)
    used: set = set()
    for p in paths:
        require(p[0] == s and p[-1] == t, f"path {p} has wrong endpoints")
        require(len(set(p)) == len(p), f"path {p} repeats a node")
        for a, b in zip(p, p[1:]):
            require((a, b) in links, f"path {p} uses missing link {a}->{b}")
        inner = set(p[1:-1])
        require(not inner & used, f"path {p} shares an internal node")
        used |= inner
    require(len(set(map(tuple, paths))) == len(paths), "a path is listed twice")


def check_menger(nodes, links, s, t, paths, separator) -> None:
    """Disjoint paths and a separator of the same size certify both optimal."""
    check_paths(links, s, t, paths)
    require(separator is not None, "no separator returned")
    require(set(separator) <= set(nodes) - {s, t}, "separator holds an endpoint")
    require(not reaches(links, s, t, frozenset(separator)),
            "the separator leaves a path from sender to receiver")
    require(len(paths) == len(separator), "path count differs from separator size")


def check_separable(links, s, t, k, verdict, witness, paths) -> None:
    """A k-separability verdict with its witness or k+1 disjoint paths."""
    if verdict:
        require(witness is not None and len(witness) <= k, "witness missing or too large")
        require(not set(witness) & {s, t}, "witness holds an endpoint")
        require(not reaches(links, s, t, frozenset(witness)),
                "the witness does not separate")
    else:
        check_paths(links, s, t, paths)
        require(len(paths) >= k + 1 or (s, t) in set(links),
                "not separable, yet fewer than k+1 disjoint paths and no direct link")


def hyper_reaches(hyperedges, s, t, removed, directed: bool) -> bool:
    """Reachability after removing ``removed`` and every hyperedge it touches."""
    links = set()
    for origin, recipients in hyperedges:
        if removed & (set(recipients) | {origin}):
            continue
        for r in recipients:
            if r != origin:
                links.add((origin, r))
                if not directed:
                    links.add((r, origin))
    return reaches(links, s, t, frozenset(removed))


def hyper_k_connected(nodes, hyperedges, s, t, k: int, directed: bool) -> bool:
    """Reference strong (directed) or weak k-connectivity by brute force."""
    internal = sorted(set(nodes) - {s, t})
    for size in range(min(k - 1, len(internal)) + 1):
        for removed in itertools.combinations(internal, size):
            if not hyper_reaches(hyperedges, s, t, set(removed), directed):
                return False
    return True


def max_flow_paths(nodes, links, s, t) -> int:
    """Number of internally disjoint s->t paths, by our own unit max flow."""
    cap: dict = {}

    def arc(u, v, c):
        cap[(u, v)] = cap.get((u, v), 0) + c
        cap.setdefault((v, u), 0)

    big = len(nodes) + 1
    for v in nodes:
        arc((v, 0), (v, 1), big if v in (s, t) else 1)
    for a, b in links:
        arc((a, 1), (b, 0), 1)
    adj: dict = {}
    for u, v in cap:
        adj.setdefault(u, []).append(v)
    flow = 0
    src, dst = (s, 1), (t, 0)
    while True:
        prev = {src: None}
        queue = deque([src])
        while queue and dst not in prev:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in prev and cap[(u, v)] > 0:
                    prev[v] = u
                    queue.append(v)
        if dst not in prev:
            return flow
        v = dst
        while prev[v] is not None:
            cap[(prev[v], v)] -= 1
            cap[(v, prev[v])] += 1
            v = prev[v]
        flow += 1


# ---------------------------------------------------------------------------
# privacy: the exact view distribution by enumerating every draw sequence


class _FixedDraws:
    """Randomness source answering draws from a given prefix, then zeros."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.moduli: list[int] = []

    def draw(self, n: int):
        i = len(self.moduli)
        self.moduli.append(n)
        return (self.prefix[i] if i < len(self.prefix) else 0), None


def canonical_view(view) -> tuple:
    """Hashable image of an AdversaryView: field elements become integers."""

    def conv(x):
        if hasattr(x, "payload") and hasattr(x, "spec"):
            return ("E",) + tuple(conv(v) for v in x.payload)
        if hasattr(x, "value") and hasattr(x, "spec"):
            return ("F", x.value)
        if isinstance(x, tuple):
            return tuple(conv(v) for v in x)
        return x

    return (tuple((r, w, conv(p)) for r, w, p in view.events),
            tuple((r, l, conv(p)) for r, l, p in view.public))


def view_distribution(run, message, max_runs: int) -> dict:
    """Exact distribution of the view over every sequence of honest draws.

    Walks the tree of draw sequences like an odometer: each run answers
    its draws from a prefix padded with zeros, and the next prefix bumps
    the last draw that has not reached its modulus.  Each leaf is one full
    run with probability prod(1/modulus).  No taint information is used.
    """
    dist: dict = {}
    prefix: list[int] = []
    for _ in range(max_runs):
        src = _FixedDraws(prefix)
        key = canonical_view(run(message, src))
        weight = Fraction(1)
        for mod in src.moduli:
            weight /= mod
        dist[key] = dist.get(key, 0) + weight
        values = (prefix + [0] * len(src.moduli))[: len(src.moduli)]
        i = len(values) - 1
        while i >= 0 and values[i] == src.moduli[i] - 1:
            i -= 1
        if i < 0:
            require(sum(dist.values()) == 1, "enumerated probabilities do not sum to 1")
            return dist
        prefix = values[:i] + [values[i] + 1]
    raise CheckFailed(f"view enumeration exceeded {max_runs} runs")


def l1_distance(d0: dict, d1: dict) -> Fraction:
    return sum((abs(d0.get(key, 0) - d1.get(key, 0)) for key in set(d0) | set(d1)),
               Fraction(0))
