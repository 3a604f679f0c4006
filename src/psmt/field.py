"""Finite field arithmetic.

Fields GF(p^m) are represented with elements packed into integers in
[0, p^m): the base-p digits of the integer are the coefficients of the
residue polynomial (little-endian).  Each FieldSpec picks its raw integer
kernels once: modular arithmetic for prime fields, log/exp tables (and
Zech logarithms for odd p) for extension fields up to 2^16 elements.
Besides the element operations they include the two loops the sharing
code runs on: a row's dot product with a vector (``dot_raw``) and a
polynomial's values at a list of points by Horner's rule (``eval_raw``).
The tables walk the powers of the smallest primitive element, one table
lookup per half of the digits a step (``FieldSpec._build_tables``):
about 10 ms for GF(2^16) and 50 ms for GF(3^10) on a 2-core Xeon.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import islice
from typing import Iterable, Sequence

from .errors import DivisionByZero, ParamError, SpecMismatch

# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), little-endian coefficient tuples


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a: Sequence[int], b: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_modred(prod, f, p)


def _poly_modred(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    a = list(a)
    deg_f = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    for i in range(len(a) - 1, deg_f - 1, -1):
        if a[i] == 0:
            continue
        factor = (a[i] * inv_lead) % p
        for j, fj in enumerate(f):
            a[i - deg_f + j] = (a[i - deg_f + j] - factor * fj) % p
    del a[deg_f:]
    return _poly_trim(a)


def _poly_powmod(a: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _poly_modred(a, f, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_modred(a, b, p)
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Rabin's irreducibility test for a monic-able polynomial over GF(p)."""
    f = _poly_trim(list(f))
    m = len(f) - 1
    if m < 1:
        return False
    x = [0, 1]

    def x_power_minus_x(e: int) -> list[int]:
        h = _poly_powmod(x, e, f, p)
        return _poly_trim([(hi - xi) % p for hi, xi in
                           zip(h + [0] * 2, x + [0] * len(h))])

    # x^(p^m) == x mod f, and x^(p^(m/q)) - x coprime to f for each prime q | m
    if x_power_minus_x(p**m):
        return False
    return all(len(_poly_gcd(f, x_power_minus_x(p ** (m // q)), p)) == 1
               for q in _prime_factors(m))


def _factor_prime_power(order: int) -> tuple[int, int]:
    factors = _prime_factors(order)
    if len(factors) != 1:
        raise ParamError(f"order {order} is not a prime power")
    p, m = factors[0], 0
    while order > 1:
        order //= p
        m += 1
    return p, m


def _int_to_digits(value: int, p: int, m: int) -> list[int]:
    digits = []
    for _ in range(m):
        digits.append(value % p)
        value //= p
    return digits


def _digits_to_int(digits: Sequence[int], p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def _has_root(coeffs: Sequence[int], p: int) -> bool:
    """Whether the polynomial vanishes at some r in GF(p); its value at r
    is its coefficients read as base-r digits."""
    return any(_digits_to_int(coeffs, r) % p == 0 for r in range(p))


def _default_reduction(p: int, m: int) -> tuple[int, ...]:
    """Smallest (by packed value) monic irreducible polynomial of degree m.
    A candidate with a root in GF(p) has a linear factor (m >= 2), so it is
    skipped before Rabin's test."""
    for low in range(p**m):
        coeffs = _int_to_digits(low, p, m) + [1]
        if not _has_root(coeffs, p) and _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise ParamError(f"no irreducible polynomial found for GF({p}^{m})")


def _identity(a: int) -> int:
    return a


def _pow_with(mul, a: int, e: int) -> int:
    result = 1
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def _spread(value: int, p: int, m: int, bits: int) -> int:
    """The base-p digits of ``value``, ``bits`` bits apart."""
    return sum(d << bits * i for i, d in enumerate(_int_to_digits(value, p, m)))


def _pack_table(p: int, n: int, bits: int, scale: int) -> list[int]:
    """Index: n digits, ``bits`` bits apart, each below 2^bits; entry: their
    residues mod p as a packed value, times ``scale``."""
    table = [0]
    for i in range(n):
        table = [(c % p) * scale * p**i + t for c in range(1 << bits) for t in table]
    return table


# ---------------------------------------------------------------------------


_TABLE_LIMIT = 1 << 16


def _clmul_mod(a: int, b: int, red: int, top: int) -> int:
    """Product of two GF(2)[x] bit vectors modulo the packed polynomial
    ``red``, whose leading bit is ``top``."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= red
    return r


class FieldSpec:
    """A finite field GF(p^m) with a fixed reduction polynomial (m > 1).

    The raw kernels ``add_raw``, ``sub_raw``, ``neg_raw``, ``mul_raw``,
    ``inv_raw``, ``dot_raw`` and ``eval_raw`` work on packed integers and
    are chosen once here, from the field's shape: ``%`` for prime fields,
    log/exp tables with XOR addition for GF(2^m), log/exp tables with Zech
    logarithms for GF(p^m) with odd p, and polynomial arithmetic above
    ``_TABLE_LIMIT``.  ``dot_raw(row, ys)`` is a row's dot product with
    ``ys``; ``eval_raw(coeffs, xs)`` lists the values at the points ``xs``
    of the polynomial with coefficients ``coeffs`` (constant term first,
    at least one), by Horner's rule, each step inline for prime fields and
    GF(2^m) tables.
    """

    def __init__(self, order: int, reduction: Sequence[int] | None = None):
        if order < 2:
            raise ParamError("field order must be at least 2")
        p, m = _factor_prime_power(order)
        self.order = order
        self.p = p
        self.m = m
        if m == 1:
            if reduction is not None:
                raise ParamError("prime fields take no reduction polynomial")
            self.reduction: tuple[int, ...] | None = None
        else:
            if reduction is None:
                reduction = _default_reduction(p, m)
            else:
                reduction = tuple(int(c) % p for c in reduction)
                if len(reduction) != m + 1 or reduction[-1] != 1:
                    raise ParamError("reduction polynomial must be monic of degree m")
                if not _is_irreducible(reduction, p):
                    raise ParamError("reduction polynomial is not irreducible")
            self.reduction = reduction
            self._packed_reduction = _digits_to_int(reduction, p)
        self._hash = hash((order, self.reduction))
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._zech: list[int | None] | None = None
        if m > 1 and order <= _TABLE_LIMIT:
            self._build_tables()
        self._bind_kernels()

    # -- raw integer arithmetic ------------------------------------------

    def _bind_kernels(self) -> None:
        p, q1 = self.p, self.order - 1
        dot = eval_ = None
        if self.m == 1:
            def add(a, b):
                return (a + b) % p

            def sub(a, b):
                return (a - b) % p

            def neg(a):
                return -a % p

            def mul(a, b):
                return a * b % p

            def inv(a):
                return pow(a, p - 2, p)

            def dot(row, ys):
                return sum(map(operator.mul, row, ys)) % p

            def eval_(coeffs, xs):
                top, rest = coeffs[-1], coeffs[-2::-1]
                out = []
                for x in xs:
                    acc = top
                    for c in rest:
                        acc = (acc * x + c) % p
                    out.append(acc)
                return out
        elif self._exp is None:
            # beyond the table limit: polynomial arithmetic on every call
            if p == 2:
                add = sub = operator.xor
                neg = _identity
            else:
                add, sub, neg = self._add_digits, self._sub_digits, self._neg_digits
            mul = self._mul_poly

            def inv(a):
                return self.pow_raw(a, self.order - 2)
        else:
            exp, log = self._exp, self._log

            def mul(a, b):
                return exp[log[a] + log[b]] if a and b else 0

            def inv(a):
                return exp[q1 - log[a]]

            if p == 2:
                add = sub = operator.xor
                neg = _identity

                def dot(row, ys):
                    acc = 0
                    for c, y in zip(row, ys):
                        if c and y:
                            acc ^= exp[log[c] + log[y]]
                    return acc

                def eval_(coeffs, xs):
                    top, rest = coeffs[-1], coeffs[-2::-1]
                    out = []
                    for x in xs:
                        if not x:   # log[0] is not a logarithm
                            out.append(coeffs[0])
                            continue
                        lx, acc = log[x], top
                        for c in rest:
                            acc = exp[log[acc] + lx] ^ c if acc else c
                        out.append(acc)
                    return out
            else:
                # a + b = g^i (1 + g^(j-i)) = g^(i + Z(j-i)), with Z the Zech
                # logarithm; -1 = g^half.  A negative j-i indexes Z from its
                # end, which is j-i mod q-1, so no modulus is taken.
                zech, half = self._zech, q1 // 2

                def add(a, b):
                    if not a:
                        return b
                    if not b:
                        return a
                    i = log[a]
                    z = zech[log[b] - i]
                    return 0 if z is None else exp[i + z]

                def neg(a):
                    return exp[log[a] + half] if a else 0

                def sub(a, b):
                    return add(a, neg(b))

        if dot is None:
            def dot(row, ys):
                acc = 0
                for c, y in zip(row, ys):
                    acc = add(acc, mul(c, y))
                return acc

        if eval_ is None:
            def eval_(coeffs, xs):
                top, rest = coeffs[-1], coeffs[-2::-1]
                out = []
                for x in xs:
                    acc = top
                    for c in rest:
                        acc = add(mul(acc, x), c)
                    out.append(acc)
                return out

        def inv_raw(a: int) -> int:
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return inv(a)

        self.add_raw, self.sub_raw, self.neg_raw = add, sub, neg
        self.mul_raw, self.inv_raw, self.dot_raw = mul, inv_raw, dot
        self.eval_raw = eval_

    def _add_digits(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        return _digits_to_int([(x + y) % p for x, y in
                               zip(_int_to_digits(a, p, m), _int_to_digits(b, p, m))], p)

    def _neg_digits(self, a: int) -> int:
        return _digits_to_int([-x % self.p for x in _int_to_digits(a, self.p, self.m)],
                              self.p)

    def _sub_digits(self, a: int, b: int) -> int:
        return self._add_digits(a, self._neg_digits(b))

    def _mul_poly(self, a: int, b: int) -> int:
        if self.p == 2:
            return _clmul_mod(a, b, self._packed_reduction, self.order)
        da = _int_to_digits(a, self.p, self.m)
        db = _int_to_digits(b, self.p, self.m)
        prod = _poly_mulmod(da, db, self.reduction, self.p)
        return _digits_to_int(prod + [0] * (self.m - len(prod)), self.p)

    def pow_raw(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_raw(self.inv_raw(a), -e)
        return _pow_with(self.mul_raw, a, e)

    def _build_tables(self) -> None:
        """Log/exp tables over the smallest generator; Zech logarithms for
        odd p.  ``exp`` has period q-1 and length 2(q-1), so the sum of two
        logs indexes it directly.

        The walk x -> x*g is GF(p)-linear on x's base-p digits: x*g is the
        digit-wise sum of (x's low h digits)*g and (x's high m-h digits)*g,
        each read from a table of p^h or p^(m-h) products made by
        ``_mul_poly``, with h = ceil(m/2).  For p = 2 the sum is XOR.  For
        odd p the products are stored spread, ``bits`` bits a digit, so two
        of them add with no carry, and a table per half packs the sum back
        mod p.  GF(2^16) takes 616 ``_mul_poly`` calls for its 65,535 powers."""
        q, p, m = self.order, self.p, self.m
        q1 = q - 1
        mul = self._mul_poly
        factors = _prime_factors(q1)
        gen = next(cand for cand in range(2, q)
                   if all(_pow_with(mul, cand, q1 // f) != 1 for f in factors))
        h = (m + 1) // 2
        split = p**h
        lo = [mul(a, gen) for a in range(split)]
        hi = [mul(b * split, gen) for b in range(p ** (m - h))]
        exp = [0] * (2 * q1)
        log = [0] * q
        x = 1
        if p == 2:
            mask = split - 1
            for i in range(q1):
                exp[i] = exp[i + q1] = x
                log[x] = i
                x = lo[x & mask] ^ hi[x >> h]
        else:
            bits = (2 * p - 2).bit_length()
            lo = [_spread(v, p, m, bits) for v in lo]
            hi = [_spread(v, p, m, bits) for v in hi]
            shift = bits * h
            mask = (1 << shift) - 1
            pack_lo = _pack_table(p, h, bits, 1)
            pack_hi = _pack_table(p, m - h, bits, split)
            for i in range(q1):
                exp[i] = exp[i + q1] = x
                log[x] = i
                s = lo[x % split] + hi[x // split]
                x = pack_lo[s & mask] + pack_hi[s >> shift]
        self._exp = exp
        self._log = log
        if p != 2:
            # 1 + g^d: add one to the lowest base-p digit of g^d; it is 0
            # only where g^d = -1, at d = (q-1)/2
            bump = [1] * (p - 1) + [1 - p]
            zech: list[int | None] = [log[v + bump[v % p]] for v in islice(exp, q1)]
            zech[q1 // 2] = None
            self._zech = zech

    # -- element constructors --------------------------------------------

    def element(self, value: int) -> "FieldElement":
        return FieldElement(self, value % self.order if self.m == 1 else self._coerce(value))

    def _coerce(self, value: int) -> int:
        if 0 <= value < self.order:
            return value
        raise ParamError(f"value {value} out of range for field of order {self.order}")

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> Iterable["FieldElement"]:
        return (FieldElement(self, v) for v in range(self.order))

    def sample(self, rng) -> "FieldElement":
        """Uniform element from a seeded randomness source; a tracing
        source taints its draws and turns each one into a
        ``TracedElement`` through its ``element`` method."""
        value, taint = rng.draw(self.order)
        if taint is None:
            return FieldElement(self, value)
        return rng.element(self, value, taint)

    # -- misc --------------------------------------------------------------

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FieldSpec)
            and self.order == other.order
            and self.reduction == other.reduction
        )

    def __hash__(self) -> int:
        return self._hash


@lru_cache(maxsize=None)
def _gf_cached(order: int, reduction: tuple[int, ...] | None) -> FieldSpec:
    return FieldSpec(order, reduction)


def GF(order: int, reduction: Sequence[int] | None = None) -> FieldSpec:
    """Field constructor with caching so repeated GF(q) share tables."""
    return _gf_cached(order, tuple(reduction) if reduction is not None else None)


class FieldElement:
    """Immutable element of a FieldSpec: a value and nothing else.

    Only a ``TracedElement`` records the draws a value depends on.
    """

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value: int):
        self.spec = spec
        self.value = value

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise SpecMismatch(f"expected FieldElement, got {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise SpecMismatch(f"mixed field specs {self.spec} and {other.spec}")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.spec, self.spec.add_raw(self.value, other.value))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.spec, self.spec.sub_raw(self.value, other.value))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.spec, self.spec.mul_raw(self.value, other.value))

    def __truediv__(self, other):
        self._check(other)
        return FieldElement(self.spec,
                            self.spec.mul_raw(self.value, self.spec.inv_raw(other.value)))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg_raw(self.value))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow_raw(self.value, e))

    def inv(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv_raw(self.value))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.value == other.value
            and (self.spec is other.spec or self.spec == other.spec)
        )

    def __hash__(self) -> int:
        return hash((self.spec.order, self.value))

    def __repr__(self) -> str:
        return f"{self.value}:{self.spec!r}"

    def __bool__(self) -> bool:
        return self.value != 0


# ---------------------------------------------------------------------------
# traced elements: exact polynomials over the draws, for the privacy analyzer
#
# A polynomial is a dict {monomial: coefficient} with nonzero raw
# coefficients; a monomial is a tuple of (variable, exponent) pairs sorted
# by variable, () for the constant term.  Variables are draw indices
# (>= 0) and opaque atoms (< 0) whose supports the tracer keeps.
# Exponents are reduced with x^q = x, so two polynomials over draws alone
# are equal as functions exactly when their dicts are equal; with atoms,
# equal dicts still mean equal values.


_get_raw = FieldElement.value.__get__
_set_raw = FieldElement.value.__set__


def peek(e: FieldElement) -> int:
    """The packed value of ``e``; unlike ``e.value`` on a traced element,
    records no observation.  For the privacy analyzer's own reads."""
    return _get_raw(e)


def _is_constant(poly: dict) -> bool:
    return not poly or (len(poly) == 1 and () in poly)


def _poly_termwise(op, p: dict, r: dict) -> dict:
    out = dict(p)
    for mono, c in r.items():
        s = op(out.get(mono, 0), c)
        if s:
            out[mono] = s
        else:
            del out[mono]
    return out


def _poly_add(spec: FieldSpec, p: dict, r: dict) -> dict:
    return _poly_termwise(spec.add_raw, p, r)


def _poly_sub(spec: FieldSpec, p: dict, r: dict) -> dict:
    return _poly_termwise(spec.sub_raw, p, r)


def _poly_scale(spec: FieldSpec, p: dict, c: int) -> dict:
    if not c:
        return {}
    mul = spec.mul_raw
    return {mono: mul(c, x) for mono, x in p.items()}


def _mono_mul(a: tuple, b: tuple, q: int) -> tuple:
    # exponents are already reduced: monomials over disjoint, ordered
    # variable ranges multiply by concatenation
    if not a or not b:
        return a or b
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    # x^q = x: reduce every exponent into 1 .. q-1
    return tuple(sorted((v, (e - 1) % (q - 1) + 1) for v, e in exps.items()))


def _poly_mul(spec: FieldSpec, p: dict, r: dict) -> dict:
    if _is_constant(p):
        return _poly_scale(spec, r, p.get((), 0))
    if _is_constant(r):
        return _poly_scale(spec, p, r.get((), 0))
    add, mul, q = spec.add_raw, spec.mul_raw, spec.order
    out: dict = {}
    for ma, ca in p.items():
        for mb, cb in r.items():
            mono = _mono_mul(ma, mb, q)
            s = add(out.get(mono, 0), mul(ca, cb))
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def shift_poly(spec: FieldSpec, poly: dict, delta: dict) -> dict:
    """``poly`` with every variable v of ``delta`` replaced by v + delta[v]."""
    if not delta:
        return poly
    out: dict = {}
    for mono, c in poly.items():
        term = {tuple((v, e) for v, e in mono if v not in delta): c}
        for v, e in mono:
            if v in delta:
                for _ in range(e):
                    term = _poly_mul(spec, term, {((v, 1),): 1, (): delta[v]})
        out = _poly_add(spec, out, term)
    return out


def union_taint(a: frozenset | None, b: frozenset | None) -> frozenset | None:
    """The union of two taints, either of them None (untainted)."""
    if a is None or b is None:
        return b if a is None else a
    return a | b


def operand_parts(x: FieldElement) -> tuple[int, dict, frozenset | None]:
    """Raw value, polynomial and taint of an operand of a traced
    operator: a plain element is a constant with no taint."""
    value = _get_raw(x)
    if type(x) is TracedElement:
        return value, x.poly, x.taint
    return value, ({(): value} if value else {}), None


class TracedElement(FieldElement):
    """A field element that also carries its value as an exact polynomial
    over the draws of a tracing randomness source (``tracer``).

    Ring operators (``+ - * neg`` and non-negative ``pow``, reflected ones
    included, so ``spec.zero() + traced`` lands here) stay polynomial, and
    so does ``sharing``'s linear-combination kernel, which builds the
    polynomial of a whole row-times-vector product in one pass.  Each
    reads an operand's raw value, polynomial and taint once
    (``operand_parts``); a plain operand is a constant with no taint.
    Inverting a non-constant gives an opaque atom: a fresh variable whose
    support the tracer keeps; the divisor is observed, since its zero test
    decides whether the division raises.
    ``taint`` is the union of the operands' taints (a draw's is its own
    index): a syntactic record, kept when the polynomial cancels a draw.

    Every read of the value outside these operations is an observation the
    tracer records (the support of the polynomial read): the ``value``
    property, which ``FieldElement``'s ``hash``, ``bool`` and ``repr``
    read, and an ``==`` whose difference is not a constant.  An ``==``
    whose difference is a constant is decided without observing anything.
    Elements of two different tracers (two runs side by side in the
    analyzer) compare by value, as plain elements do.
    """

    __slots__ = ("taint", "poly", "tracer")

    def __init__(self, spec: FieldSpec, value: int, taint: frozenset[int] | None,
                 poly: dict, tracer):
        self.spec = spec
        _set_raw(self, value)
        self.taint = taint
        self.poly = poly
        self.tracer = tracer

    @property
    def value(self) -> int:
        self.tracer.observe(self.poly)
        return _get_raw(self)

    def _make(self, value: int, taint, poly: dict) -> "TracedElement":
        return TracedElement(self.spec, value, taint, poly, self.tracer)

    def _binary(self, a: FieldElement, b: FieldElement, raw, poly) -> "TracedElement":
        """``a op b`` from the raw kernel and the polynomial operation."""
        va, pa, ta = operand_parts(a)
        vb, pb, tb = operand_parts(b)
        return TracedElement(self.spec, raw(va, vb), union_taint(ta, tb),
                             poly(self.spec, pa, pb), self.tracer)

    def __add__(self, other):
        self._check(other)
        return self._binary(self, other, self.spec.add_raw, _poly_add)

    __radd__ = __add__

    def __sub__(self, other):
        self._check(other)
        return self._binary(self, other, self.spec.sub_raw, _poly_sub)

    def __rsub__(self, other):
        self._check(other)
        return self._binary(other, self, self.spec.sub_raw, _poly_sub)

    def __mul__(self, other):
        self._check(other)
        return self._binary(self, other, self.spec.mul_raw, _poly_mul)

    __rmul__ = __mul__

    def _quotient(self, num: FieldElement, den: FieldElement) -> "TracedElement":
        spec = self.spec
        vn, top, tn = operand_parts(num)
        vd, bottom, td = operand_parts(den)
        if _is_constant(bottom):
            inv = spec.inv_raw(bottom.get((), 0))
            poly = _poly_scale(spec, top, inv)
        else:
            self.tracer.observe(bottom)
            inv = spec.inv_raw(vd)
            poly = self.tracer.atom(self.tracer.support(top)
                                    | self.tracer.support(bottom))
        return self._make(spec.mul_raw(vn, inv), union_taint(tn, td), poly)

    def __truediv__(self, other):
        self._check(other)
        return self._quotient(self, other)

    def __rtruediv__(self, other):
        self._check(other)
        return self._quotient(other, self)

    def inv(self) -> "TracedElement":
        return self._quotient(self.spec.one(), self)

    def with_taint(self, taint: frozenset[int] | None) -> "TracedElement":
        """The same element carrying ``taint`` instead."""
        return self._make(_get_raw(self), taint, self.poly)

    def __neg__(self):
        return self._make(self.spec.neg_raw(_get_raw(self)), self.taint,
                          _poly_sub(self.spec, {}, self.poly))

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** -e
        result = self._make(1, self.taint, {(): 1})
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement) or not (
                other.spec is self.spec or other.spec == self.spec):
            return False
        if isinstance(other, TracedElement) and other.tracer is not self.tracer:
            # elements of two runs, compared by the analyzer: by value
            return _get_raw(self) == _get_raw(other)
        mine, theirs = self.poly, operand_parts(other)[1]
        # the difference is a constant when the non-constant terms agree
        if (len(mine) - (() in mine) == len(theirs) - (() in theirs)
                and all(not mono or theirs.get(mono) == c for mono, c in mine.items())):
            return mine.get((), 0) == theirs.get((), 0)
        self.tracer.observe(_poly_sub(self.spec, mine, theirs))
        return _get_raw(self) == _get_raw(other)

    __hash__ = FieldElement.__hash__   # defining __eq__ clears the inherited one
