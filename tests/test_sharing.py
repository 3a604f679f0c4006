"""Threshold sharing, detection, bounded-distance correction, oracle parity."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psmt.errors import InsufficientShares, MissingEntries, ParamError, SpecMismatch
from psmt.field import GF, FieldElement, TracedElement, peek
from psmt.randomness import Randomness, TracingRandomness
from psmt.sharing import (
    CLEAN,
    CORRUPTED,
    ReceivedWord,
    SharingParams,
    _syndrome_decode,
    correct_errors,
    detect_errors,
    oracle_decode,
    reconstruct,
    share,
)


class FixedCoeffs:
    """Randomness stub returning scripted draw values."""

    def __init__(self, values):
        self._values = list(values)

    def draw(self, n):
        return self._values.pop(0) % n, None


def test_hand_share_example():
    # f(x) = 5 + 2x over GF(7) at points 1,2,3 -> (0, 2, 4)
    spec = GF(7)
    params = SharingParams(3, 1, spec)
    cw = share(spec.element(5), params, FixedCoeffs([2]))
    assert [s.value for s in cw.shares] == [0, 2, 4]


def test_hand_reconstruct_example():
    spec = GF(7)
    params = SharingParams(3, 1, spec)
    word = ReceivedWord((spec.element(0), spec.element(2), None), params)
    assert reconstruct(word).value == 5


def test_reconstruct_threshold():
    spec = GF(7)
    params = SharingParams(3, 1, spec)
    word = ReceivedWord((spec.element(0), None, None), params)
    with pytest.raises(InsufficientShares):
        reconstruct(word)


def test_k0_shares_equal_secret():
    spec = GF(7)
    params = SharingParams(4, 0, spec)
    cw = share(spec.element(6), params, Randomness(0))
    assert all(s.value == 6 for s in cw.shares)


def test_detect_hand_examples():
    spec = GF(7)
    params = SharingParams(3, 1, spec)
    clean = ReceivedWord(tuple(spec.element(v) for v in (0, 2, 4)), params)
    dirty = ReceivedWord(tuple(spec.element(v) for v in (0, 2, 5)), params)
    assert detect_errors(clean) == CLEAN
    assert detect_errors(dirty) == CORRUPTED


def test_detect_requires_full_word():
    spec = GF(7)
    params = SharingParams(3, 1, spec)
    word = ReceivedWord((spec.element(0), None, spec.element(4)), params)
    with pytest.raises(MissingEntries):
        detect_errors(word)


def test_correct_hand_example():
    # f(x) = 3 + x over GF(7), n=5: codeword (4,5,6,0,1); corrupt slot 2
    spec = GF(7)
    params = SharingParams(5, 1, spec)
    entries = [spec.element(v) for v in (4, 5, 6, 0, 1)]
    entries[2] = spec.element(1)
    got = correct_errors(ReceivedWord(tuple(entries), params), 1)
    assert got is not None
    assert got.secret.value == 3
    assert got.error_positions == frozenset({2})


def test_correct_two_errors_beyond_the_table_limit():
    # GF(3^11) decodes with polynomial arithmetic and digit-wise addition
    spec = GF(3 ** 11)
    params = SharingParams(7, 2, spec)
    assert params.max_correct == 2
    rng, pick = Randomness("gf3^11"), random.Random(311)
    for _ in range(3):
        secret = spec.sample(rng)
        entries = list(share(secret, params, rng).shares)
        bad = pick.sample(range(7), 2)
        for i in bad:
            entries[i] = entries[i] + spec.element(pick.randrange(1, spec.order))
        got = correct_errors(ReceivedWord(tuple(entries), params), 2)
        assert got is not None and got.secret == secret
        assert got.error_positions == frozenset(bad)


def test_correct_beyond_radius_detected():
    # two corrupted entries at radius 1 must return None, never a wrong secret
    spec = GF(7)
    params = SharingParams(5, 1, spec)
    entries = [spec.element(v) for v in (4, 5, 6, 0, 1)]
    entries[1] = spec.element(0)
    entries[3] = spec.element(2)
    assert correct_errors(ReceivedWord(tuple(entries), params), 1) is None


def test_correct_radius_bound_enforced():
    spec = GF(7)
    params = SharingParams(5, 1, spec)  # max_correct = 1
    word = ReceivedWord(tuple(spec.element(v) for v in (4, 5, 6, 0, 1)), params)
    with pytest.raises(ParamError):
        correct_errors(word, 2)


def test_params_validation():
    spec = GF(7)
    with pytest.raises(ParamError):
        SharingParams(3, 3, spec)
    with pytest.raises(ParamError):
        SharingParams(7, 1, spec)  # only 6 nonzero points in GF(7)
    p = SharingParams(5, 2, spec)
    assert p.max_detect == 2
    assert p.max_correct == 1


def test_oracle_unique_and_tie():
    spec = GF(7)
    params = SharingParams(5, 1, spec)
    entries = [spec.element(v) for v in (4, 5, 6, 0, 1)]
    entries[2] = spec.element(1)
    best = oracle_decode(ReceivedWord(tuple(entries), params))
    assert len(best) == 1
    assert [s.value for s in best[0][1]] == [4, 5, 6, 0, 1]

    # equidistant construction on n = 2k+1 = 3: the word (1,2,5) lies at
    # distance 1 from both f(x)=x -> (1,2,3) and g(x)=6+2x -> (1,3,5)
    params3 = SharingParams(3, 1, spec)
    word = ReceivedWord(
        (spec.element(1), spec.element(2), spec.element(5)), params3)
    best = oracle_decode(word)
    assert len(best) >= 2  # tie is reported, not silently resolved
    assert all(d == 1 for _, _, d in best)


def test_perfect_secrecy_k_shares_exhaustive_gf5():
    # For every secret, every single-share marginal is uniform over GF(5)
    spec = GF(5)
    params = SharingParams(3, 1, spec)
    for secret in range(5):
        for pos in range(3):
            counts = [0] * 5
            for coeff in range(5):
                cw = share(spec.element(secret), params, FixedCoeffs([coeff]))
                counts[cw.shares[pos].value] += 1
            assert counts == [1] * 5


def test_share_reconstruct_round_trip_default_field():
    spec = GF(2**16)
    params = SharingParams(7, 2, spec)
    rng = Randomness("round-trip")
    for _ in range(300):
        secret = spec.sample(rng)
        cw = share(secret, params, rng)
        assert reconstruct(ReceivedWord(cw.shares, params)) == secret


def _random_cases():
    cases = []
    master = random.Random(20260823)
    for n in range(2, 7):
        for k in range(0, n):
            cases.append((n, k, master.randrange(10**9)))
    return cases


@pytest.mark.parametrize("n,k,seed", _random_cases())
def test_decoder_matches_oracle_randomized(n, k, seed):
    spec = GF(7)
    params = SharingParams(n, k, spec)
    rng = random.Random(seed)
    rand = Randomness(seed)
    for _ in range(60):
        secret = spec.element(rng.randrange(7))
        cw = share(secret, params, rand)
        weight = rng.randrange(0, n + 1)
        positions = rng.sample(range(n), weight)
        entries = list(cw.shares)
        for pos in positions:
            entries[pos] = spec.element(
                (entries[pos].value + 1 + rng.randrange(6)) % 7)
        word = ReceivedWord(tuple(entries), params)
        actual_weight = sum(1 for a, b in zip(entries, cw.shares) if a != b)

        if 0 < actual_weight <= params.max_detect:
            assert detect_errors(word) == CORRUPTED
        if actual_weight == 0:
            assert detect_errors(word) == CLEAN

        for e in range(params.max_correct + 1):
            got = correct_errors(word, e)
            if actual_weight <= e:
                assert got is not None
                assert got.secret == secret
                assert got.error_positions == frozenset(positions)
            elif actual_weight <= params.n - params.k - e - 1:
                # simultaneous detection range: never a wrong secret
                assert got is None

        # parity with the exhaustive oracle at the full radius
        best = oracle_decode(word)
        got = correct_errors(word, params.max_correct)
        if len(best) == 1 and best[0][2] <= params.max_correct:
            assert got is not None and got.secret == best[0][0]
        if got is not None:
            assert any(got.secret == s and d <= params.max_correct
                       for s, _, d in best)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(0, 10**6))
def test_property_share_then_reconstruct(secret, seed):
    spec = GF(7)
    params = SharingParams(5, 2, spec)
    cw = share(spec.element(secret), params, Randomness(seed))
    assert reconstruct(ReceivedWord(cw.shares, params)).value == secret
    assert detect_errors(ReceivedWord(cw.shares, params)) == CLEAN


def test_entries_from_another_field_rejected():
    spec = GF(7)
    params = SharingParams(3, 1, spec)
    word = ReceivedWord((spec.element(0), GF(5).element(2), spec.element(4)),
                        params)
    for decode in (reconstruct, detect_errors, oracle_decode,
                   lambda w: correct_errors(w, 0)):
        with pytest.raises(SpecMismatch):
            decode(word)


# ---------------------------------------------------------------------------
# Reference oracle: the decoders written with FieldElement arithmetic
# (Horner evaluation, Lagrange interpolation, Gaussian elimination).  The
# library computes on raw integers; these must agree with it, taints too.


def _ref_poly_eval(coeffs, x):
    acc = x.spec.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _ref_interpolate(pairs):
    """Coefficients of the interpolant of degree < len(pairs)."""
    spec = pairs[0][0].spec
    coeffs = [spec.zero()] * len(pairs)
    for i, (xi, yi) in enumerate(pairs):
        basis = [spec.one()]
        den = spec.one()
        for j, (xj, _) in enumerate(pairs):
            if j == i:
                continue
            nxt = [spec.zero()] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] = nxt[d] + c * (-xj)
                nxt[d + 1] = nxt[d + 1] + c
            basis = nxt
            den = den * (xi - xj)
        scale = yi / den
        for d, c in enumerate(basis):
            coeffs[d] = coeffs[d] + c * scale
    return coeffs


def _ref_interpolate_at_zero(pairs):
    spec = pairs[0][0].spec
    acc = spec.zero()
    for i, (xi, yi) in enumerate(pairs):
        num = spec.one()
        den = spec.one()
        for j, (xj, _) in enumerate(pairs):
            if j != i:
                num = num * (-xj)
                den = den * (xi - xj)
        acc = acc + yi * num / den
    return acc


def _ref_solve_linear(rows, ncols, spec):
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c].value), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c].value:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    if any(rows[i][ncols].value for i in range(r, len(rows))):
        return None
    sol = [spec.zero()] * ncols
    for i, c in enumerate(pivots):
        sol[c] = rows[i][ncols]
    return sol


def _ref_share(secret, params, rng):
    coeffs = [secret] + [params.field.sample(rng) for _ in range(params.k)]
    return tuple(_ref_poly_eval(coeffs, pt) for pt in params.points)


def _ref_reconstruct(word):
    pairs = [(word.params.points[i], e) for i, e in word.present()]
    return _ref_interpolate_at_zero(pairs[: word.params.k + 1])


def _ref_detect(word):
    k, pts = word.params.k, word.params.points
    coeffs = _ref_interpolate(list(zip(pts, word.entries))[: k + 1])
    return all(_ref_poly_eval(coeffs, x) == y
               for x, y in list(zip(pts, word.entries))[k + 1:])


def _ref_correct(word, e):
    """(secret, error positions) or None, by Berlekamp-Welch."""
    params, spec = word.params, word.params.field
    n, k, pts = params.n, params.k, params.points
    if e == 0:
        if not _ref_detect(word):
            return None
        codeword = word.entries
    else:
        nq = e + k + 1
        rows = []
        for x, y in zip(pts, word.entries):
            row = [x ** d for d in range(nq)] + [-(y * x ** d) for d in range(e)]
            rows.append(row + [y * x ** e])
        sol = _ref_solve_linear(rows, nq + e, spec)
        if sol is None:
            return None
        q, ecf = sol[:nq], sol[nq:] + [spec.one()]
        out = []
        for x in pts:
            ev = _ref_poly_eval(ecf, x)
            out.append(None if ev.value == 0 else _ref_poly_eval(q, x) / ev)
        good = [(pts[i], v) for i, v in enumerate(out) if v is not None]
        if len(good) < k + 1:
            return None
        coeffs = _ref_interpolate(good[: k + 1])
        codeword = tuple(_ref_poly_eval(coeffs, x) for x in pts)
        if any(v is not None and v != w for v, w in zip(out, codeword)):
            return None
    errs = frozenset(i for i in range(n) if word.entries[i] != codeword[i])
    if len(errs) > e:
        return None
    return _ref_interpolate_at_zero(list(zip(pts, codeword))[: k + 1]), errs


def _ref_oracle(word):
    params = word.params
    best, best_dist = {}, params.n + 1
    for subset in itertools.combinations(range(params.n), params.k + 1):
        coeffs = _ref_interpolate(
            [(params.points[i], word.entries[i]) for i in subset])
        cw = tuple(_ref_poly_eval(coeffs, pt) for pt in params.points)
        dist = sum(1 for a, b in zip(cw, word.entries) if a != b)
        if dist < best_dist:
            best, best_dist = {}, dist
        if dist == best_dist:
            best[tuple(v.value for v in cw)] = (coeffs[0], cw, dist)
    assert best_dist <= params.max_detect
    return list(best.values())


def _provenance(elements):
    """Value, representation and taint of each element (read by ``peek``)."""
    return [(peek(e), type(e), getattr(e, "taint", None)) for e in elements]


def _taint_union(elements):
    taints = [e.taint for e in elements if isinstance(e, TracedElement)]
    return frozenset().union(*taints) if taints else None


def _source(seed, traced):
    return TracingRandomness(seed) if traced else Randomness(seed)


@pytest.mark.parametrize("order", [7, 16, 9, 81])
def test_int_kernels_match_reference_oracle(order):
    spec = GF(order)
    rng = random.Random(order)
    for n in range(2, 7):
        for k in range(n):
            params = SharingParams(n, k, spec)
            for _ in range(12):
                # a plain source runs every decoder on raw ints; a tracing
                # one runs the element path, and the syndrome decoder and
                # the oracle still on raw ints
                traced, seed = rng.random() < 0.5, rng.random()
                src, ref_src = _source(seed, traced), _source(seed, traced)
                secret = spec.element(rng.randrange(order))
                if traced and rng.random() < 0.3:
                    secret = spec.sample(src)
                    spec.sample(ref_src)   # both sources past the secret's draw
                cw = share(secret, params, src)
                ref = _ref_share(secret, params, ref_src)
                assert _provenance(cw.shares) == _provenance(ref)

                entries = list(cw.shares)
                for pos in rng.sample(range(n), rng.randrange(n + 1)):
                    entries[pos] = spec.element(rng.randrange(order))
                    if traced and rng.random() < 0.6:
                        entries[pos] = spec.sample(src)
                        if rng.random() < 0.3:
                            entries[pos] = entries[pos] + spec.sample(src)
                word = ReceivedWord(tuple(entries), params)

                assert (detect_errors(word) == CLEAN) == _ref_detect(word)
                assert _provenance([reconstruct(word)]) == \
                    _provenance([_ref_reconstruct(word)])
                holes = list(entries)
                for pos in rng.sample(range(n), rng.randrange(n - k)):
                    holes[pos] = None
                holed = ReceivedWord(tuple(holes), params)
                assert _provenance([reconstruct(holed)]) == \
                    _provenance([_ref_reconstruct(holed)])

                for e in range(params.max_correct + 1):
                    got, want = correct_errors(word, e), _ref_correct(word, e)
                    assert (got is None) == (want is None)
                    if got is None:
                        continue
                    assert got.secret == want[0]
                    assert got.error_positions == want[1]
                    if e == 0:
                        assert _provenance([got.secret]) == _provenance([want[0]])
                    else:
                        # the syndromes mix every entry: all n taints
                        taint = _taint_union(entries)
                        assert getattr(got.secret, "taint", None) == taint
                        assert isinstance(got.secret, TracedElement) == bool(taint)
                        assert (getattr(want[0], "taint", None) or frozenset()) <= \
                            (taint or frozenset())

                def triples(best):
                    return [(_provenance([s]), _provenance(c), d) for s, c, d in best]
                assert triples(oracle_decode(word)) == triples(_ref_oracle(word))


# ---------------------------------------------------------------------------
# radius 3 and above: the syndrome decoder against the element-based
# Berlekamp-Welch reference at n = 7..12, one word per error weight


@functools.lru_cache(maxsize=None)
def _wide_cases(order):
    """(word, secret, error positions, radius) for every n in 7..12, k < n,
    error weight 0..n and radius 1..max_correct."""
    spec = GF(order)
    rng = random.Random(order)
    cases = []
    for n in range(7, 13):
        for k in range(n):
            params = SharingParams(n, k, spec)
            for weight in range(n + 1):
                secret = spec.element(rng.randrange(order))
                entries = list(share(secret, params, Randomness(rng.random())).shares)
                positions = frozenset(rng.sample(range(n), weight))
                for pos in positions:
                    entries[pos] = entries[pos] + spec.element(rng.randrange(1, order))
                word = ReceivedWord(tuple(entries), params)
                cases += [(word, secret, positions, e)
                          for e in range(1, params.max_correct + 1)]
    return cases


def _wide(order, select):
    """The cases whose error weight t and radius e satisfy
    ``select(t, e, detect)``, detect = n-k-e-1 the end of the
    simultaneous-detection range; each decoded as the reference does."""
    chosen = []
    for word, secret, positions, e in _wide_cases(order):
        params = word.params
        if select(len(positions), e, params.n - params.k - e - 1):
            got, want = correct_errors(word, e), _ref_correct(word, e)
            assert (got is None) == (want is None), (word, e)
            if got is not None:
                assert (got.secret, got.error_positions) == want
            chosen.append((word, secret, positions, e, got))
    assert chosen
    return chosen


def _codeword_within(word, e):
    """The syndrome decoder's own result: a codeword within distance e of
    the word, or None.  ``correct_errors`` returns this codeword's secret
    without counting its differences, so the bound is checked here."""
    ys = [peek(v) for v in word.entries]
    codeword = _syndrome_decode(word.params, ys, e)
    if codeword is not None:
        spec = word.params.field
        found = ReceivedWord(tuple(spec.element(v) for v in codeword), word.params)
        assert detect_errors(found) == CLEAN
        assert sum(a != b for a, b in zip(codeword, ys)) <= e
    return codeword


WIDE_ORDERS = [16, 81, 101, 2 ** 16]


@pytest.mark.parametrize("order", WIDE_ORDERS)
def test_fewer_errors_than_the_radius_leave_extra_locator_roots(order):
    # t < e: the key equation is singular; its locator is the error
    # locator times a monic factor of degree e - t, whose roots among the
    # points act as erasures
    for word, secret, positions, e, got in _wide(order, lambda t, e, _: t < e):
        assert got is not None and got.secret == secret
        assert got.error_positions == positions


@pytest.mark.parametrize("order", WIDE_ORDERS)
def test_errors_at_the_radius_are_corrected(order):
    for word, secret, positions, e, got in _wide(order, lambda t, e, _: 0 < t == e):
        assert got is not None and got.secret == secret
        assert got.error_positions == positions


@pytest.mark.parametrize("order", WIDE_ORDERS)
def test_errors_in_the_detection_range_give_none(order):
    # e < t <= n-k-e-1: no codeword lies within e, so no secret at all
    for word, _, _, e, got in _wide(order, lambda t, e, detect: e < t <= detect):
        assert got is None
        assert _codeword_within(word, e) is None


@pytest.mark.parametrize("order", WIDE_ORDERS)
def test_errors_beyond_the_detection_range_match_the_reference(order):
    # t > n-k-e-1: the word may lie within e of another codeword (over the
    # small fields it sometimes does); the decoder finds it exactly when
    # the reference does
    for word, _, _, e, got in _wide(order, lambda t, e, detect: t > detect):
        assert (_codeword_within(word, e) is None) == (got is None)


# ---------------------------------------------------------------------------
# the traced path: the same linear algebra over the analyzer's polynomials


class _PlainDraws:
    """A tracing source's draw values, untainted, so ``sharing`` takes its
    raw path."""

    def __init__(self, seed, pinned):
        self._rng = TracingRandomness(seed, pinned=dict(pinned))

    def draw(self, n):
        return self._rng.draw(n)[0], None


def _raw_view(elements):
    return [peek(e) for e in elements]


@pytest.mark.parametrize("order", [7, 16, 9])
def test_traced_path_matches_raw_path(order):
    spec = GF(order)
    rng = random.Random(order)
    for n in range(2, 7):
        for k in range(n):
            params = SharingParams(n, k, spec)
            for trial in range(6):
                pinned = {i: rng.randrange(order) for i in range(k) if rng.random() < 0.5}
                secret = spec.element(rng.randrange(order))
                traced = share(secret, params, TracingRandomness(trial, pinned=pinned))
                plain = share(secret, params, _PlainDraws(trial, pinned))
                assert _raw_view(traced.shares) == _raw_view(plain.shares)
                assert all(type(s) is FieldElement for s in plain.shares)
                if k:
                    assert all(s.taint == frozenset(range(k)) for s in traced.shares)

                corrupt = rng.sample(range(n), rng.randrange(n + 1))
                words = []
                for cw in (traced, plain):
                    entries = list(cw.shares)
                    for pos in corrupt:
                        entries[pos] = spec.element((pos * 5 + 1) % order)
                    words.append(ReceivedWord(tuple(entries), params))
                traced_word, plain_word = words
                head, entries = traced_word.entries[: k + 1], traced_word.entries

                assert detect_errors(traced_word) == detect_errors(plain_word)
                got = reconstruct(traced_word)
                assert _raw_view([got]) == _raw_view([reconstruct(plain_word)])
                assert getattr(got, "taint", None) == _taint_union(head)
                for e in range(params.max_correct + 1):
                    got, want = correct_errors(traced_word, e), correct_errors(plain_word, e)
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert _raw_view([got.secret]) == _raw_view([want.secret])
                        assert got.error_positions == want.error_positions
                        assert getattr(got.secret, "taint", None) == \
                            _taint_union(head if e == 0 else entries)


@pytest.mark.parametrize("order", [11, 16])
def test_honest_word_observes_nothing(order):
    spec = GF(order)
    params = SharingParams(7, 2, spec)
    rng = TracingRandomness(("honest", order))
    secret = spec.element(3)
    word = ReceivedWord(share(secret, params, rng).shares, params)
    assert detect_errors(word) == CLEAN
    assert reconstruct(word).poly == {(): 3}
    for e in range(params.max_correct + 1):
        decoded = correct_errors(word, e)
        assert decoded.error_positions == frozenset()
        assert decoded.secret.poly == {(): 3} and decoded.secret == secret
        want = word.entries[: params.k + 1] if e == 0 else word.entries
        assert decoded.secret.taint == frozenset().union(*(s.taint for s in want))
    assert rng.observed == set()


def test_corrupted_word_observes():
    spec = GF(11)
    params = SharingParams(7, 2, spec)
    rng = TracingRandomness("corrupted")
    shares = share(spec.element(3), params, rng).shares   # draws 0 and 1
    # a share moved by a constant: the parity checks decide it without
    # reading a value, so detection observes nothing
    word = ReceivedWord((shares[0] + spec.one(),) + shares[1:], params)
    assert detect_errors(word) == CORRUPTED
    assert rng.observed == set()
    # the last share moved by a fresh draw: the one failing check observes
    # that draw, and the syndrome decoder then reads every entry's value
    extra = spec.sample(rng)
    word = ReceivedWord(shares[:-1] + (shares[-1] + extra,), params)
    assert detect_errors(word) == CORRUPTED
    assert rng.observed == {2}
    decoded = correct_errors(word, 2)
    assert rng.observed == {0, 1, 2}
    assert decoded.error_positions == frozenset({6})
    # the syndrome decoder ran on raw ints: the secret is a fresh atom over the
    # taints of all n entries
    assert peek(decoded.secret) == 3 and isinstance(decoded.secret, TracedElement)
    assert decoded.secret.taint == frozenset({0, 1, 2})
    ((var, exponent),), = decoded.secret.poly
    assert var < 0 and exponent == 1 and rng.atoms[var] == frozenset({0, 1, 2})


def test_decoded_secret_answers_for_every_entry_beyond_radius_zero():
    # an honest word whose last entry also carries a draw it cancels: the
    # kernel reads the secret off the first k+1 entries, with their taint;
    # beyond radius 0 the secret answers for all n entries, so it carries
    # all n taints, with the same polynomial and nothing observed
    spec = GF(11)
    params = SharingParams(5, 1, spec)
    rng = TracingRandomness("tail taint")
    shares = share(spec.element(3), params, rng).shares   # draw 0
    extra = spec.sample(rng)                              # draw 1
    word = ReceivedWord(shares[:-1] + (shares[-1] + extra - extra,), params)
    secret = reconstruct(word)
    assert secret.taint == frozenset({0}) and secret.poly == {(): 3}
    assert correct_errors(word, 0).secret.taint == frozenset({0})
    decoded = correct_errors(word, 1)
    assert decoded.secret.taint == frozenset({0, 1}) and decoded.secret.poly == {(): 3}
    assert decoded.error_positions == frozenset() and rng.observed == set()


def test_decoded_secret_is_plain_only_when_read_from_plain_entries():
    # a word on the code whose first k+1 entries are plain: at radius 0
    # the secret is read from them alone and stays plain; at radius 1 it
    # answers for all n entries, so it is an atom over their taints
    spec = GF(11)
    params = SharingParams(3, 0, spec)
    rng = TracingRandomness("plain head", pinned={0: 4, 1: 4})
    word = ReceivedWord((spec.element(4), spec.sample(rng), spec.sample(rng)), params)
    assert type(correct_errors(word, 0).secret) is FieldElement
    decoded = correct_errors(word, 1)
    assert peek(decoded.secret) == 4 and decoded.secret.taint == frozenset({0, 1})
    ((var, _),), = decoded.secret.poly
    assert rng.atoms[var] == frozenset({0, 1})


@pytest.mark.parametrize("order", [5, 16, 81])
def test_linear_kernel_matches_the_term_by_term_fold(order):
    """One-pass ``_dot_elements`` against the element operators folded
    term by term: same type, value, taint and polynomial, and no entry
    added to the tracer's ledger, on rows with zero coefficients, plain,
    mixed and traced operands, terms that cancel and opaque atoms."""
    from oracles import term_by_term_dot

    from psmt.sharing import _dot_elements

    spec = GF(order)
    rng = random.Random(order)
    seen = {"plain": 0, "mixed": 0, "traced": 0, "cancelled": 0, "atom": 0}
    for trial in range(150):
        tracer = TracingRandomness(trial, pinned={i: rng.randrange(1, order)
                                                  for i in range(3)})
        a, b, c = (spec.sample(tracer) for _ in range(3))
        plain = [spec.element(rng.randrange(order)) for _ in range(3)]
        traced = [a, b, a + b, a * b + c, -c, a * a * c, a / b, (a + c) / (b * c)]
        mode = rng.choice(["plain", "mixed", "traced"])
        pool = {"plain": plain, "mixed": plain + traced, "traced": traced}[mode]
        ys = [rng.choice(pool) for _ in range(rng.randrange(1, 7))]
        row = [rng.randrange(order) if rng.random() < 0.7 else 0 for _ in ys]
        if rng.random() < 0.3:
            # the last term cancels the first
            ys.append(ys[0])
            row.append(spec.neg_raw(row[0]))
        ledger = (set(tracer.observed), dict(tracer.atoms))
        got = _dot_elements(spec, row, ys)
        assert (tracer.observed, tracer.atoms) == ledger
        want = term_by_term_dot(spec, row, ys)
        assert (tracer.observed, tracer.atoms) == ledger
        assert type(got) is type(want)
        assert peek(got) == peek(want)
        assert getattr(got, "taint", None) == getattr(want, "taint", None)
        assert getattr(got, "poly", None) == getattr(want, "poly", None)
        seen[mode] += 1
        if type(got) is TracedElement:
            assert got.tracer is want.tracer
            seen["cancelled"] += not got.poly
            seen["atom"] += any(v < 0 for mono in got.poly for v, _ in mono)
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# each SharingParams computes the rows every call reads once, and keeps them


def test_a_second_call_reads_the_rows_it_kept(monkeypatch):
    import psmt.sharing as sharing

    def calls_on(params):
        word = ReceivedWord(share(spec.element(3), params, Randomness(1)).shares, params)
        assert detect_errors(word) == CLEAN
        assert correct_errors(word, params.max_correct).secret == spec.element(3)
        assert reconstruct(word) == spec.element(3)

    spec = GF(2**16)
    params = SharingParams(7, 2, spec)
    calls_on(params)
    built = []
    for name in ("_power_rows", "_lagrange_rows"):
        original = getattr(sharing, name)
        monkeypatch.setattr(sharing, name,
                            lambda *a, _f=original, _n=name: built.append(_n) or _f(*a))
    calls_on(params)
    assert built == []
    # a fresh configuration asks the row builders once for each of its
    # rows; a plain share evaluates by Horner's rule and asks for none
    calls_on(SharingParams(7, 3, spec))
    assert sorted(built) == ["_lagrange_rows", "_lagrange_rows"]


@pytest.mark.parametrize("order", [7, 16, 81, 2**16])
def test_each_params_rows_match_the_element_references(order):
    spec = GF(order)
    rng = random.Random(order)
    for n in range(2, min(order - 1, 8) + 1):
        for k in range(n):
            params = SharingParams(n, k, spec)
            for _ in range(4):
                seed = rng.random()
                secret = spec.element(rng.randrange(order))
                shares = share(secret, params, Randomness(seed)).shares
                assert shares == _ref_share(secret, params, Randomness(seed))
                word = ReceivedWord(shares, params)
                assert detect_errors(word) == CLEAN and _ref_detect(word)
                assert reconstruct(word) == _ref_reconstruct(word) == secret
                assert correct_errors(word, 0).secret == secret
                # one entry off the code, past or among the first k+1
                pos = rng.randrange(n)
                entries = list(shares)
                entries[pos] = entries[pos] + spec.one()
                off = ReceivedWord(tuple(entries), params)
                assert (detect_errors(off) == CLEAN) == _ref_detect(off) == (n == k + 1)
                assert reconstruct(off) == _ref_reconstruct(off)
