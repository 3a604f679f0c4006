"""Field arithmetic axioms and sampling statistics."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psmt.errors import DivisionByZero, ParamError, SpecMismatch
from psmt.field import GF, FieldSpec, _default_reduction, _is_irreducible
from psmt.randomness import Randomness, TracingRandomness

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def _axioms(spec, xs, ys, zs):
    for x in xs:
        assert x + spec.zero() == x
        assert x * spec.one() == x
        assert x - x == spec.zero()
        if x.value != 0:
            assert x * x.inv() == spec.one()
            assert x / x == spec.one()
    for x, y in zip(xs, ys):
        assert x + y == y + x
        assert x * y == y * x
    for x, y, z in zip(xs, ys, zs):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("order", SMALL_ORDERS)
def test_axioms_exhaustive_small(order):
    spec = GF(order)
    if order <= 16:
        elems = list(spec.elements())
        triples = list(itertools.product(elems, repeat=3))
        _axioms(spec,
                [t[0] for t in triples],
                [t[1] for t in triples],
                [t[2] for t in triples])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
       st.integers(0, 2**16 - 1))
def test_axioms_random_large(a, b, c):
    spec = GF(2**16)
    x, y, z = spec.element(a), spec.element(b), spec.element(c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    if a != 0:
        assert x * x.inv() == spec.one()


def test_axioms_random_beyond_the_table_limit_odd_characteristic():
    # GF(3^11) has no tables: add, neg and sub work digit by digit
    spec = GF(3 ** 11)
    assert spec._exp is None
    rng = random.Random(311)
    xs, ys, zs = ([spec.element(rng.randrange(spec.order)) for _ in range(40)]
                  for _ in range(3))
    _axioms(spec, xs, ys, zs)

    def digits(v):
        return [v // 3 ** i % 3 for i in range(11)]

    def packed(ds):
        return sum(d * 3 ** i for i, d in enumerate(ds))

    for x, y in zip(xs, ys):
        dx, dy = digits(x.value), digits(y.value)
        assert spec._add_digits(x.value, y.value) == packed([(a + b) % 3 for a, b in zip(dx, dy)])
        assert spec._sub_digits(x.value, y.value) == packed([(a - b) % 3 for a, b in zip(dx, dy)])
        assert spec._neg_digits(x.value) == packed([-a % 3 for a in dx])
        assert (x - y) + y == x and -(-x) == x and x + (-x) == spec.zero()


def test_zero_is_falsy():
    for order in (2, 7, 3 ** 4, 2 ** 16, 3 ** 11):
        spec = GF(order)
        assert not spec.zero()
        assert spec.one() and spec.element(order - 1)


def test_known_values_gf7():
    spec = GF(7)
    assert (spec.element(3) + spec.element(5)).value == 1
    assert spec.element(3).inv().value == 5
    assert (spec.element(3) * spec.element(5)).value == 1


def test_division_by_zero():
    spec = GF(7)
    with pytest.raises(DivisionByZero):
        spec.zero().inv()
    with pytest.raises(DivisionByZero):
        spec.element(3) / spec.zero()


def test_mixed_specs_rejected():
    with pytest.raises(SpecMismatch):
        GF(7).element(1) + GF(5).element(1)


def test_bad_orders_rejected():
    for order in (0, 1, 6, 10, 12):
        with pytest.raises(ParamError):
            GF(order)


def test_extension_field_reduction_validated():
    # x^2 + 1 = (x+1)^2 over GF(2); (x^2 + x + 1)^2 over GF(2) and
    # (x^2 + 1)^2 over GF(3) have no root but do factor; then a non-monic
    # polynomial and two of the wrong degree
    for order, reduction in ((4, [1, 0, 1]), (16, [1, 0, 1, 0, 1]), (81, [1, 0, 2, 0, 1]),
                             (9, [1, 0, 2]), (9, [2, 1]), (9, [1, 1, 0, 1])):
        with pytest.raises(ParamError):
            GF(order, reduction)
    GF(4, [1, 1, 1])  # x^2 + x + 1 is fine
    spec = GF(16, [1, 0, 0, 1, 1])   # x^4 + x^3 + 1, not the default x^4 + x + 1
    assert spec.reduction == (1, 0, 0, 1, 1) != GF(16).reduction
    for a in range(16):
        for b in range(16):
            assert spec.mul_raw(a, b) == _clmul_reference(a, b, spec.reduction)


def test_taint_propagates_through_arithmetic():
    spec = GF(7)
    rng = TracingRandomness("taint", pinned={0: 3, 1: 4})
    a, b = spec.sample(rng), spec.sample(rng)   # draws 0 and 1
    assert (a + b).taint == frozenset({0, 1})
    assert (a * b).taint == frozenset({0, 1})
    assert (-a).taint == frozenset({0})
    # a plain operand is a value with no provenance
    assert (a + spec.one()).taint == (spec.one() - a).taint == frozenset({0})
    assert not hasattr(spec.one(), "taint")
    # equality and hashing ignore taint
    assert a == spec.element(3)
    assert hash(a) == hash(spec.element(3))


def test_sampling_deterministic_and_in_range():
    spec = GF(2)
    draws1 = [spec.sample(Randomness(42)) for _ in range(0)]
    rng1, rng2 = Randomness(42), Randomness(42)
    seq1 = [spec.sample(rng1).value for _ in range(50)]
    seq2 = [spec.sample(rng2).value for _ in range(50)]
    assert seq1 == seq2
    assert set(seq1) <= {0, 1}
    assert draws1 == []


@pytest.mark.parametrize("seed", [42, "s", b"b", ("acc3", "oneway")])
def test_stream_is_seeded_on_its_first_draw(seed, monkeypatch):
    from psmt import randomness

    sizes = (2, 7, 1 << 16, 3, 1000, 1, (1 << 16) + 1, 10**6)   # 10^6: a loss coin
    reference = random.Random(randomness._canon(seed))
    want = [reference.randrange(n) for n in sizes]
    built = []

    class Counting(random.Random):
        def __init__(self, x):
            built.append(x)
            super().__init__(x)

    monkeypatch.setattr(randomness.random, "Random", Counting)
    Randomness(seed)
    assert built == []
    rng = Randomness(seed)
    assert [rng.draw(n)[0] for n in sizes] == want
    assert built == [randomness._canon(seed)]


@pytest.mark.parametrize("order", [7, 2**8, 2**16, 81, 3**8, 2**17])
def test_eval_raw_is_the_dot_product_with_the_power_rows(order):
    from psmt.sharing import _power_rows

    spec = GF(order)
    xs = tuple(range(min(order - 1, 40) + 1))
    rng = random.Random(order)
    for degree in range(6):
        rows = _power_rows(spec, xs, degree + 1)
        for trial in range(8):
            coeffs = [rng.randrange(order) if rng.random() < 0.7 else 0
                      for _ in range(degree + 1)]
            if trial == 0:
                coeffs[-1] = 0   # a leading zero: the degree is lower
            if trial == 1:
                coeffs = [0] * (degree + 1)
            assert spec.eval_raw(coeffs, xs) == [spec.dot_raw(row, coeffs) for row in rows]


def test_sampling_uniform_chi_square_gf7():
    # 7000 draws: every residue frequency within 5 sigma of 1000
    spec = GF(7)
    rng = Randomness("chi-square")
    counts = [0] * 7
    for _ in range(7000):
        counts[spec.sample(rng).value] += 1
    sigma = math.sqrt(7000 * (1 / 7) * (6 / 7))
    for c in counts:
        assert abs(c - 1000) <= 5 * sigma


def _digits(a, p, m):
    return [a // p ** i % p for i in range(m)]


def _pack(digits, p):
    return sum(d * p ** i for i, d in enumerate(digits))


@pytest.mark.parametrize("order", [9, 25, 27, 81])
def test_zech_add_sub_neg_match_digitwise_exhaustive(order):
    spec = GF(order)
    p, m = spec.p, spec.m
    for a in range(order):
        da = _digits(a, p, m)
        assert spec.neg_raw(a) == _pack([-x % p for x in da], p)
        for b in range(order):
            db = _digits(b, p, m)
            assert spec.add_raw(a, b) == _pack([(x + y) % p for x, y in zip(da, db)], p)
            assert spec.sub_raw(a, b) == _pack([(x - y) % p for x, y in zip(da, db)], p)


def _clmul_reference(a, b, reduction):
    """Schoolbook GF(2)[x] product, then long division by the reduction."""
    prod = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            prod ^= a << i
    red = sum(c << i for i, c in enumerate(reduction))
    deg = len(reduction) - 1
    for i in range(prod.bit_length() - 1, deg - 1, -1):
        if prod >> i & 1:
            prod ^= red << (i - deg)
    return prod


@pytest.mark.parametrize("order", [256, 2**16, 2**17])
def test_binary_field_mul_matches_carryless_reference(order):
    spec = GF(order)
    rng = random.Random(order)
    for _ in range(2000):
        a, b = rng.randrange(order), rng.randrange(order)
        assert spec.mul_raw(a, b) == _clmul_reference(a, b, spec.reduction)
        if a:
            assert spec.mul_raw(a, spec.inv_raw(a)) == 1


def _prime_divisors(n):
    out, d = [], 2
    while n > 1:
        if n % d:
            d += 1
        else:
            out += [d] * (d not in out)
            n //= d
    return out


def _smallest_primitive(spec):
    q1 = spec.order - 1

    def power_is_one(a, e):
        result, base = 1, a
        while e:
            if e & 1:
                result = spec._mul_poly(result, base)
            base = spec._mul_poly(base, base)
            e >>= 1
        return result == 1

    return next(a for a in range(2, spec.order)
                if not any(power_is_one(a, q1 // f) for f in _prime_divisors(q1)))


def _walked_tables(spec, gen):
    """The tables as a walk that multiplies by the generator once per
    element builds them; Zech logarithms add one to the lowest digit."""
    p, m, q1 = spec.p, spec.m, spec.order - 1
    exp, log = [0] * (2 * q1), [0] * spec.order
    x = 1
    for i in range(q1):
        exp[i] = exp[i + q1] = x
        log[x] = i
        x = spec._mul_poly(x, gen)
    if p == 2:
        return exp, log, None
    zech = []
    for v in exp[:q1]:
        digits = _digits(v, p, m)
        digits[0] = (digits[0] + 1) % p
        one_plus = _pack(digits, p)
        zech.append(log[one_plus] if one_plus else None)
    return exp, log, zech


TABLE_ORDERS = [4, 8, 2**9, 256, 2**12, 2**16, 9, 25, 27, 49, 81, 125, 3**7, 3**8]


@pytest.mark.parametrize("order", TABLE_ORDERS)
def test_tables_are_the_walk_of_the_smallest_primitive_element(order):
    spec = GF(order)
    gen = _smallest_primitive(spec)
    assert spec._exp[1] == gen
    assert (spec._exp, spec._log, spec._zech) == _walked_tables(spec, gen)


def _schoolbook_mul(spec, a, b):
    """Digit-wise product of two packed values, then long division by the
    monic reduction polynomial."""
    p, m, f = spec.p, spec.m, spec.reduction
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(_digits(a, p, m)):
        for j, y in enumerate(_digits(b, p, m)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i]
        for j, fj in enumerate(f):
            prod[i - m + j] = (prod[i - m + j] - c * fj) % p
    return _pack(prod[:m], p)


@pytest.mark.parametrize("order", [9, 25, 27, 49, 81, 125, 3**7, 3**8, 5**6, 7**5, 3**10])
def test_odd_characteristic_table_mul_matches_schoolbook(order):
    spec = GF(order)
    assert spec._zech is not None
    rng = random.Random(order)
    for _ in range(1000):
        a, b = rng.randrange(order), rng.randrange(order)
        assert spec.mul_raw(a, b) == _schoolbook_mul(spec, a, b)


def test_gf_2_16_tables_take_few_polynomial_products(monkeypatch):
    # a table per half of the digits: hundreds of products, not one per element
    calls = []
    mul_poly = FieldSpec._mul_poly

    def counted(self, a, b):
        calls.append((a, b))
        return mul_poly(self, a, b)

    monkeypatch.setattr(FieldSpec, "_mul_poly", counted)
    FieldSpec(2**16)
    assert 0 < len(calls) < 2000


def test_default_reduction_is_the_smallest_irreducible():
    shapes = [(p, m) for p in range(2, 65) if all(p % d for d in range(2, p))
              for m in range(2, 13) if p**m <= 4096]
    assert len(shapes) == 40
    for p, m in shapes:
        want = next(coeffs for coeffs in (tuple(_digits(low, p, m)) + (1,)
                                          for low in range(p**m))
                    if _is_irreducible(coeffs, p))
        assert _default_reduction(p, m) == want, (p, m)


def _evaluate(spec, poly, point):
    """A traced polynomial's value at ``point`` (draw index -> raw value)."""
    acc = 0
    for mono, coeff in poly.items():
        term = coeff
        for var, exp in mono:
            term = spec.mul_raw(term, spec.pow_raw(point[var], exp))
        acc = spec.add_raw(acc, term)
    return acc


@pytest.mark.parametrize("order", [2, 4, 5, 9, 16])
def test_traced_polynomial_is_the_value_at_every_point(order):
    """Ring operators on traced elements keep value and polynomial in step
    (x^q = x included), at the reference draws and at pinned ones."""
    from psmt.field import peek
    from psmt.randomness import TracingRandomness

    spec = GF(order)
    rng = random.Random(order)
    for _ in range(40):
        ops = [rng.randrange(6) for _ in range(8)]
        consts = [spec.element(rng.randrange(order)) for _ in range(8)]
        exps = [rng.randrange(order + 3) for _ in range(8)]
        pinned = {i: rng.randrange(order) for i in range(3) if rng.random() < 0.5}

        tracer = TracingRandomness(rng.random(), pinned=pinned)
        xs = [spec.sample(tracer) for _ in range(3)]
        acc = xs[0]
        for op, c, e, x in zip(ops, consts, exps, itertools.cycle(xs)):
            acc = [lambda: acc + x, lambda: c - acc, lambda: acc * x,
                   lambda: -acc + c, lambda: acc ** e, lambda: c * acc - x][op]()
        point = {i: peek(x) for i, x in enumerate(xs)}
        assert _evaluate(spec, acc.poly, point) == peek(acc)
        assert all(e <= order - 1 for mono in acc.poly for _, e in mono)
        assert not tracer.observed


@pytest.mark.parametrize("q", [2, 5, 16, 81])
def test_monomial_product_matches_the_reference(q):
    """Disjoint monomials in order concatenate; the result is the general
    product's, on atoms (negative variables) and exponents at q-1 too."""
    from oracles import mono_mul

    from psmt.field import _mono_mul

    rng = random.Random(q)
    kinds = {"below": 0, "interleaved": 0, "shared": 0, "constant": 0}
    for _ in range(600):
        variables = sorted(rng.sample(range(-5, 9), rng.randrange(1, 8)))
        exps = {v: rng.choice([1, q - 1, rng.randrange(1, q)]) for v in variables}
        kind = rng.choice(list(kinds))
        if kind == "below":
            cut = rng.randrange(len(variables) + 1)
            va, vb = variables[:cut], variables[cut:]
        elif kind == "constant":
            va, vb = [], variables
        else:
            va = [v for v in variables if rng.random() < 0.5]
            vb = [v for v in variables if v not in va or kind == "shared" and rng.random() < 0.5]
        a = tuple((v, exps[v]) for v in va)
        b = tuple((v, rng.choice([1, q - 1, exps[v]])) for v in vb)
        kinds[kind] += 1
        want = mono_mul(a, b, q)
        assert _mono_mul(a, b, q) == want
        assert _mono_mul(b, a, q) == want
    assert all(kinds.values())


@pytest.mark.parametrize("order", [5, 16])
def test_equality_by_constant_difference_observes_nothing(order):
    """``==`` compares the non-constant terms in place: a constant
    difference decides it with nothing observed, zero or not, against a
    plain or a traced element; otherwise it observes the support of the
    difference and compares values."""
    from psmt.field import _poly_sub, peek

    spec = GF(order)
    one, three = spec.element(1), spec.element(3)
    rng = TracingRandomness(order)
    a, b, c = (spec.sample(rng) for _ in range(3))
    tag = a * three + b
    for left, right, equal in ((tag, a * three + b, True),
                               (tag + one, tag, False),
                               (tag - tag + three, three, True),
                               (tag - tag + three, one, False),
                               (a - a, spec.zero(), True),
                               (a * b + one, b * a + three, False)):
        assert (left == right) is equal and (left != right) is not equal
        assert peek(left) == peek(right) or not equal
    assert rng.observed == set()
    # c enters the difference in one term: only a and c are observed
    left, right = a * b + c, b * a + a
    assert (left == right) == (peek(left) == peek(right))
    assert rng.observed == rng.support(_poly_sub(spec, left.poly, right.poly)) == {0, 2}


@pytest.mark.parametrize("order", [4, 5, 9])
def test_shift_poly_is_the_polynomial_of_the_shifted_draws(order):
    from psmt.field import shift_poly

    spec = GF(order)
    rng = TracingRandomness(order)
    r, s = spec.sample(rng), spec.sample(rng)
    d = spec.element(order - 1)

    def shape(r, s):
        return r * s + spec.element(2) * r * r * r + s * s + spec.one()

    poly = shape(r, s).poly
    assert shift_poly(spec, poly, {0: order - 1}) == shape(r + d, s).poly
    assert shift_poly(spec, poly, {0: order - 1, 1: 1}) == shape(r + d, s + spec.one()).poly
    assert shift_poly(spec, poly, {1: 0}) == poly


@pytest.mark.parametrize("order", [5, 16])
def test_traced_repr_bool_and_hash_read_the_plain_value_and_observe(order):
    """A traced element's ``repr``, ``bool`` and ``hash`` are a plain
    element's of the same value, and each observes exactly the support of
    the element's polynomial."""
    from psmt.field import FieldElement, peek

    spec = GF(order)
    for read in (repr, bool, hash):
        rng = TracingRandomness(order, pinned={0: 0, 1: 3})
        a, b, c = (spec.sample(rng) for _ in range(3))
        for x, support in ((a * b + spec.one(), {0, 1}), (a - a, set()), (a * c, {0, 2})):
            rng.observed.clear()
            assert read(x) == read(FieldElement(spec, peek(x))), (read, x.poly)
            assert rng.observed == support, read
