"""(k+1)-out-of-n MDS secret sharing (Reed-Solomon construction).

A secret is the constant term of a uniformly random polynomial of degree
at most k, evaluated at n distinct nonzero points.  Decoding offers
plain reconstruction, error detection, and bounded-distance correction
by syndrome decoding, with guaranteed simultaneous detection (never a
wrong secret inside the n-k-e-1 detection range).

The rows are fixed by (n, k, field) where they do not depend on the
word: each ``SharingParams`` computes on first use, and keeps, the rows
of a traced ``share``, of the parity check and of the secret from the
first k+1 slots.  ``_power_rows`` and ``_lagrange_rows`` are the one
place rows are computed; their caches serve the rows a word's own slots
choose (a partial word's secret, the syndrome decoder, ``oracle_decode``).

The linear algebra runs on one of two representations.  Plain elements
are turned into packed ints and computed on with the field's raw
kernels; the results are plain.  Plain shares are the coefficients'
polynomial evaluated at the points by Horner's rule (``eval_raw``), as
are the error locator's values in the syndrome decoder.  When an
operand is a ``TracedElement`` (a draw of the privacy analyzer's tracing
source) each row is applied by ``_dot_elements`` instead, which builds
the result's value, taint and exact polynomial over the draws in one
pass over the operands, as the element operators would term by term.  On that path ``share``,
``reconstruct``, ``detect_errors`` and a ``correct_errors`` call on a
word that lies on the code observe nothing: an honest word's parity
differences are the zero polynomial.  A parity check that fails
observes its difference; ``correct_errors`` on such a word and
``oracle_decode`` read every entry's value, which observes it, and
return each result as a fresh atom over the taint they name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Sequence

from .errors import (
    InsufficientShares,
    MissingEntries,
    ParamError,
    SpecMismatch,
)
from .field import FieldElement, FieldSpec, TracedElement, operand_parts, union_taint

# Lagrange row sets kept, keyed by (field, interpolation points, targets)
_ROW_CACHE = 4096


@dataclass(frozen=True)
class SharingParams:
    """n shares of degree-k polynomials over ``field``, evaluated at the
    points 1 .. n."""

    n: int
    k: int
    field: FieldSpec

    def __post_init__(self):
        if not (0 <= self.k < self.n):
            raise ParamError(f"need 0 <= k < n, got k={self.k}, n={self.n}")
        if self.n > self.field.order - 1:
            raise ParamError(
                f"n={self.n} exceeds the {self.field.order - 1} nonzero points of {self.field}")

    @cached_property
    def xs(self) -> tuple[int, ...]:
        """The evaluation points as raw integers."""
        return tuple(range(1, self.n + 1))

    @cached_property
    def points(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, x) for x in self.xs)

    @cached_property
    def eval_rows(self) -> tuple[tuple[int, ...], ...]:
        """Row i evaluates a polynomial of degree <= k, by its
        coefficients, at point i (``share`` on traced coefficients)."""
        return _power_rows(self.field, self.xs, self.k + 1)

    @cached_property
    def parity_rows(self) -> tuple[tuple[int, ...], ...]:
        """Row j gives the value at point k+1+j from the values at the
        first k+1 points (``_on_code``)."""
        return _lagrange_rows(self.field, self.xs[:self.k + 1], self.xs[self.k + 1:])

    @cached_property
    def secret_row(self) -> tuple[int, ...]:
        """The secret from the values at the first k+1 points."""
        return _lagrange_rows(self.field, self.xs[:self.k + 1], (0,))[0]

    @property
    def max_detect(self) -> int:
        return self.n - self.k - 1

    @property
    def max_correct(self) -> int:
        return (self.n - self.k - 1) // 2


@dataclass(frozen=True)
class Codeword:
    shares: tuple[FieldElement, ...]
    params: SharingParams


@dataclass(frozen=True)
class ReceivedWord:
    """n slots, each a FieldElement or None for an explicitly missing entry."""

    entries: tuple
    params: SharingParams

    def present(self) -> list[tuple[int, FieldElement]]:
        return [(i, e) for i, e in enumerate(self.entries) if e is not None]


def _checked(spec: FieldSpec, elements):
    for e in elements:
        if not isinstance(e, FieldElement) or (e.spec is not spec and e.spec != spec):
            raise SpecMismatch("entries must belong to the sharing field")
    return elements


def _full(word: ReceivedWord) -> tuple:
    """The entries of the sharing field; every slot filled.  One pass: an
    empty slot fails the field check, and only then is it told apart."""
    try:
        return _checked(word.params.field, word.entries)
    except SpecMismatch:
        if any(e is None for e in word.entries):
            raise MissingEntries("substitute defaults before decoding") from None
        raise


def _taint(elements) -> frozenset[int] | None:
    """Union of the traced elements' taints; None when none is traced."""
    out = None
    for e in elements:
        out = union_taint(out, getattr(e, "taint", None))
    return out


def _dot_elements(spec: FieldSpec, row: Sequence[int], ys) -> FieldElement:
    """``dot_raw`` over field elements, with the row as constants.

    One pass: the value is ``dot_raw`` of the raw values, the polynomial
    sums c * y over every nonzero c into one dict, and the taint is the
    union of every operand's.  Plain when no operand is traced.
    """
    add, mul = spec.add_raw, spec.mul_raw
    values, poly, taint, tracer = [], {}, None, None
    for c, y in zip(row, ys):
        value, terms, t = operand_parts(y)
        values.append(value)
        taint = union_taint(taint, t)
        if tracer is None and type(y) is TracedElement:
            tracer = y.tracer
        if c:
            for mono, x in terms.items():
                s = add(poly.get(mono, 0), mul(c, x))
                if s:
                    poly[mono] = s
                else:
                    del poly[mono]
    value = spec.dot_raw(row, values)
    if tracer is None:
        return FieldElement(spec, value)
    return TracedElement(spec, value, taint, poly, tracer)


def _from_raw(tracer, spec: FieldSpec, value: int, operands) -> FieldElement:
    """A value computed on raw ints: a fresh atom over the operands' taints."""
    taint = _taint(operands)
    if not taint:
        return FieldElement(spec, value)
    return TracedElement(spec, value, taint, tracer.atom(taint), tracer)


def _from_elements(tracer, spec: FieldSpec, y: FieldElement, operands=None) -> FieldElement:
    """The kernel's element as it is, or answering for ``operands`` beyond
    its own: carrying all their taints."""
    if operands is None:
        return y
    if type(y) is TracedElement:   # else it met no traced operand: a raw result
        return y.with_taint(_taint(operands))
    return _from_raw(tracer, spec, y.value, operands)


def _linear(spec: FieldSpec, elements, raw: bool = False):
    """The representation the linear algebra runs on (module docstring);
    packed ints when ``raw``, whatever the elements.

    Returns the coordinates of ``elements``, the dot product of a
    constant raw row with coordinates, and the map from (result,
    operands) to a field element; the operands may be left out when they
    are the dot's own (never on the raw path).
    """
    if TracedElement not in map(type, elements):
        return ([e.value for e in elements], spec.dot_raw,
                lambda value, _=None: FieldElement(spec, value))
    tracer = next(e.tracer for e in elements if type(e) is TracedElement)
    if raw:
        return [e.value for e in elements], spec.dot_raw, partial(_from_raw, tracer, spec)
    return (elements, partial(_dot_elements, spec),
            partial(_from_elements, tracer, spec))


@lru_cache(maxsize=_ROW_CACHE)
def _power_rows(spec: FieldSpec, xs: tuple[int, ...], k1: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds xs[i]^0 .. xs[i]^(k1-1): its dot product with the
    coefficients of a polynomial of degree < k1 is the value at xs[i]."""
    rows = []
    for x in xs:
        row, xp = [], 1
        for _ in range(k1):
            row.append(xp)
            xp = spec.mul_raw(xp, x)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=_ROW_CACHE)
def _weights(spec: FieldSpec, xs: tuple[int, ...]) -> tuple[int, ...]:
    """The barycentric weights v_i = 1 / prod_{l != i} (xs[i] - xs[l])."""
    mul, sub = spec.mul_raw, spec.sub_raw
    out = []
    for i, xi in enumerate(xs):
        den = 1
        for j, xj in enumerate(xs):
            if j != i:
                den = mul(den, sub(xi, xj))
        out.append(spec.inv_raw(den))
    return tuple(out)


@lru_cache(maxsize=_ROW_CACHE)
def _lagrange_rows(spec: FieldSpec, xs: tuple[int, ...],
                   targets: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Row t evaluates at ``targets[t]`` the polynomial of degree < len(xs)
    through the points ``xs``: its value there is the row's dot product
    with the values at ``xs``."""
    mul, sub, weights = spec.mul_raw, spec.sub_raw, _weights(spec, xs)
    rows = []
    for t in targets:
        row = []
        for i, scale in enumerate(weights):
            for j, xj in enumerate(xs):
                if j != i:
                    scale = mul(scale, sub(t, xj))
            row.append(scale)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=_ROW_CACHE)
def _syndrome_rows(spec: FieldSpec, xs: tuple[int, ...],
                   count: int) -> tuple[tuple[int, ...], ...]:
    """Row j < ``count`` holds v_i * xs[i]^j (``_weights``): its dot product
    with a word is the syndrome S_j, zero on a polynomial of degree <= n-2-j."""
    mul, weights = spec.mul_raw, _weights(spec, xs)
    powers = _power_rows(spec, xs, count)
    return tuple(tuple(mul(v, pw[j]) for v, pw in zip(weights, powers))
                 for j in range(count))


def share(secret: FieldElement, params: SharingParams, rng) -> Codeword:
    spec = params.field
    if secret.spec is not spec and secret.spec != spec:
        raise ParamError("secret must belong to the sharing field")
    coeffs = [secret] + [spec.sample(rng) for _ in range(params.k)]
    if TracedElement not in map(type, coeffs):   # plain shares, by Horner's rule
        ys = spec.eval_raw([c.value for c in coeffs], params.xs)
        return Codeword(tuple([FieldElement(spec, y) for y in ys]), params)
    ys, dot, element = _linear(spec, coeffs)
    return Codeword(tuple([element(dot(row, ys)) for row in params.eval_rows]), params)


def reconstruct(word: ReceivedWord) -> FieldElement:
    """Recover the secret from >= k+1 entries assumed error-free."""
    params = word.params
    present = word.present()
    if len(present) < params.k + 1:
        raise InsufficientShares(
            f"have {len(present)} entries, need {params.k + 1}")
    used = present[: params.k + 1]
    spec = params.field
    if used[-1][0] == params.k:   # the first k+1 slots
        row = params.secret_row
    else:
        row = _lagrange_rows(spec, tuple(params.xs[i] for i, _ in used), (0,))[0]
    entries = _checked(spec, [e for _, e in used])
    ys, dot, element = _linear(spec, entries)
    return element(dot(row, ys))


CLEAN = "clean"
CORRUPTED = "corrupted"


def _on_code(params: SharingParams, ys: Sequence, dot) -> bool:
    """Whether the values lie on one polynomial of degree <= k.

    The first k+1 values fix the polynomial; each remaining one must equal
    its Lagrange combination of them (a parity check of the GRS code).
    """
    k1 = params.k + 1
    head = ys[:k1]
    for row, y in zip(params.parity_rows, ys[k1:]):
        if not dot(row, head) == y:
            return False
    return True


def detect_errors(word: ReceivedWord) -> str:
    """CLEAN iff the full word lies on a single degree-<=k polynomial."""
    params = word.params
    ys, dot, _ = _linear(params.field, _full(word))
    return CLEAN if _on_code(params, ys, dot) else CORRUPTED


@dataclass(frozen=True)
class Decoded:
    secret: FieldElement
    error_positions: frozenset[int]


def correct_errors(word: ReceivedWord, e: int) -> Decoded | None:
    """Bounded-distance decode at radius e (syndrome decoding).

    Returns the secret and the exact corrupted positions when at most e
    entries are wrong.  Returns None (errors detected beyond the radius)
    when between e+1 and n-k-e-1 entries are wrong; never a wrong secret
    inside that range.  On traced entries the secret's taint is the union
    over the k+1 entries it is read from at radius 0, and over all n
    entries otherwise.  A word on the code is its own nearest codeword at
    every radius, so it is decoded without computing a syndrome.
    """
    params = word.params
    if e > params.max_correct:
        raise ParamError(f"radius {e} exceeds MDS bound {params.max_correct}")
    spec = params.field
    entries = _full(word)
    ys, dot, element = _linear(spec, entries)
    errs = frozenset()
    if not _on_code(params, ys, dot):
        if e == 0:
            return None
        if dot is not spec.dot_raw:
            # the syndromes are computed on raw values: reading a traced
            # entry's value observes it
            ys, dot, element = _linear(spec, entries, raw=True)
        codeword = _syndrome_decode(params, ys, e)
        if codeword is None:
            return None
        errs = frozenset(
            i for i, (got, want) in enumerate(zip(ys, codeword)) if got != want)
        ys = codeword
    secret = element(dot(params.secret_row, ys[:params.k + 1]), entries if e else None)
    return Decoded(secret, errs)


def _syndrome_decode(params: SharingParams, ys: list[int], e: int) -> list[int] | None:
    """Find the codeword within distance 0 < e, if any (unique when
    e <= max_correct), by syndrome decoding (Peterson-Gorenstein-Zierler)."""
    spec, xs, k, dot = params.field, params.xs, params.k, params.field.dot_raw
    s = [dot(row, ys) for row in _syndrome_rows(spec, xs, 2 * e)]
    # Key equation sum_t l_t S_{j+t} = -S_{j+e}, j < e: the errors alone make
    # the syndromes, so each solution's monic locator x^e + sum_t l_t x^t
    # vanishes at every error point; its other roots act as erasures.
    sol = solve_raw(spec, [s[j:j + e] + [spec.neg_raw(s[j + e])] for j in range(e)], e)
    if sol is None:
        return None
    good = [i for i, v in enumerate(spec.eval_raw(sol + [1], xs)) if v]
    # fill the (at most e) roots from the interpolant through k+1 other
    # slots, and require every other slot to lie on it
    used = good[: k + 1]
    vals = [ys[i] for i in used]
    full = [dot(row, vals) for row in _lagrange_rows(spec, tuple(xs[i] for i in used), xs)]
    if any(full[i] != ys[i] for i in good):
        return None
    return full


def solve_raw(spec: FieldSpec, rows: list[list[int]], ncols: int) -> list[int] | None:
    """Gauss-Jordan elimination on raw rows (last column the right-hand
    side), in place; returns one solution or None if inconsistent."""
    mul, sub = spec.mul_raw, spec.sub_raw
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = spec.inv_raw(rows[r][c])
        top = rows[r] = [mul(v, inv) for v in rows[r]]
        for i in range(nrows):
            factor = rows[i][c]
            if i != r and factor:
                rows[i] = [sub(a, mul(factor, b)) for a, b in zip(rows[i], top)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if any(rows[i][ncols] for i in range(r, nrows)):
        return None
    sol = [0] * ncols
    for i, c in enumerate(pivots):
        sol[c] = rows[i][ncols]
    return sol


def oracle_decode(word: ReceivedWord) -> list[tuple[FieldElement, tuple[FieldElement, ...], int]]:
    """All nearest codewords; ties are reported, never silently resolved.

    Returns a list of (secret, codeword, distance) triples.  The
    interpolant of any (k+1)-subset of positions agrees with the word on
    that subset, so the nearest distance is at most n-k-1.  A codeword
    within that distance agrees with the word on at least k+1 positions,
    so it is the interpolant of one of the subsets: interpolating every
    (k+1)-subset finds every nearest codeword.  On traced entries a
    triple's elements carry the union of the taints of the subset that
    produced it (the last one, in subset order).
    """
    params = word.params
    spec, xs = params.field, params.xs
    entries = _full(word)
    ys, dot, element = _linear(spec, entries, raw=True)

    best: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    best_dist = params.n + 1
    for subset in itertools.combinations(range(params.n), params.k + 1):
        rows = _lagrange_rows(spec, tuple(xs[i] for i in subset), (0,) + xs)
        vals = [ys[i] for i in subset]
        cw = tuple(dot(row, vals) for row in rows[1:])
        dist = sum(1 for a, b in zip(cw, ys) if a != b)
        if dist < best_dist:
            best = {}
            best_dist = dist
        if dist == best_dist:
            best[cw] = (dot(rows[0], vals), subset)
    out = []
    for cw, (secret, subset) in best.items():
        operands = [entries[i] for i in subset]
        out.append((element(secret, operands),
                    tuple(element(v, operands) for v in cw), best_dist))
    return out
