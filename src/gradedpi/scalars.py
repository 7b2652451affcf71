"""Exact cyclotomic arithmetic and linear algebra over the real subfield.

All scalars in this package are elements of Q(zeta_N) for some N, stored as
integer numerators over one positive integer denominator on the power basis
1, zeta, ..., zeta^(phi(N)-1), reduced modulo the N-th cyclotomic polynomial.
Phi_N is monic over Z, so the arithmetic runs on Python ints with one gcd
normalization per result.  Reduction modulo Phi_N (rather than zeta^N - 1)
makes the representation a field with unique normal forms, so equality at a
common order is literal tuple equality.  A nonzero x is inverted as
conj(x) / (x conj(x)) when x conj(x) is rational, and otherwise through its
Galois norm: the product of x and its other conjugates is rational.
There is no floating point anywhere.  ``Fraction`` appears only at the
rational boundary (the constructor, ``rational``, ``rational_value`` and
``parse_cyclo``) and in ``real_sign``, which fixes the sign of a real value
by exact interval refinement.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd
from numbers import Rational
from operator import add, sub

__all__ = [
    "Cyclo",
    "Echelon",
    "kernel_over_real_subfield",
    "span_compare",
    "parse_cyclo",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def euler_phi(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            result *= p - 1
            m //= p
            while m % p == 0:
                result *= p
                m //= p
        p += 1
    if m > 1:
        result *= m - 1
    return result


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c % lead != 0:
            raise ArithmeticError("division is not exact")
        q = c // lead
        out[k - dn] = q
        if q:
            for i, di in enumerate(den):
                num[k - dn + i] -= q * di
    if any(num):
        raise ArithmeticError("division is not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending, length phi(n)+1."""
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Coordinates of zeta_n^j on the power basis, for j in range(n).

    Phi_n is monic over Z, so the coordinates are integers.
    """
    phi = euler_phi(n)
    top = [-c for c in cyclotomic_polynomial(n)[:phi]]  # zeta^phi
    rows: list[tuple[int, ...]] = []
    cur = [1] + [0] * (phi - 1)
    for j in range(n):
        rows.append(tuple(cur))
        # multiply by zeta
        carry = cur[phi - 1]
        nxt = [0] + cur[: phi - 1]
        if carry:
            nxt = [a + carry * t for a, t in zip(nxt, top)]
        cur = nxt
    return tuple(rows)


@lru_cache(maxsize=None)
def _lift_rows(src: int, dst: int) -> tuple[tuple[int, ...], ...]:
    """Coordinates in Q(zeta_dst) of zeta_src^j, for j < phi(src)."""
    table = _power_table(dst)
    step = dst // src
    return tuple(table[j * step] for j in range(euler_phi(src)))


@lru_cache(maxsize=None)
def _units(n: int) -> tuple[int, ...]:
    """The units of Z/n as 1 <= a <= n, in increasing order (1 first)."""
    return tuple(a for a in range(1, n + 1) if gcd(a, n) == 1)


@lru_cache(maxsize=None)
def _galois_rows(n: int, a: int) -> tuple[tuple[int, ...], ...]:
    """Coordinates of zeta_n^(a*j), for j < phi(n): the rows of the
    automorphism sigma_a (zeta -> zeta^a) of Q(zeta_n), for a a unit mod n."""
    table = _power_table(n)
    return tuple(table[a * j % n] for j in range(euler_phi(n)))


@lru_cache(maxsize=None)
def _skew_inverse(n: int) -> "Cyclo":
    """1 / (zeta_n - zeta_n^(-1)), for n > 2, where the difference is nonzero."""
    return (Cyclo.zeta(n) - Cyclo.zeta(n, n - 1)).inv()


@lru_cache(maxsize=None)
def _trace_weights(n: int) -> tuple[int, ...]:
    """Tr(zeta_n^j) over Q for j < phi(n), the Ramanujan sums c_n(j)."""
    table = _power_table(n)
    return tuple(sum(table[a * j % n][0] for a in _units(n)) for j in range(euler_phi(n)))


def _combine(nums, rows) -> tuple[int, ...]:
    """sum(nums[j] * rows[j]) as a coordinate tuple."""
    acc = [0] * len(rows[0])
    for c, row in zip(nums, rows):
        if c:
            for t, r in enumerate(row):
                if r:
                    acc[t] += c * r
    return tuple(acc)


def _reduced(acc: list[int], n: int, phi: int) -> tuple[int, ...]:
    """Power-basis coordinates of sum(acc[k] * zeta_n^k)."""
    out = acc[:phi] + [0] * (phi - len(acc))
    table = _power_table(n)
    for k in range(phi, len(acc)):
        c = acc[k]
        if c:
            for t, r in enumerate(table[k % n]):
                if r:
                    out[t] += c * r
    return tuple(out)


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational number."""
    if not isinstance(value, Rational):
        raise TypeError("not an exact rational number: %r" % (value,))
    return value.numerator, value.denominator


def _ratio_text(num: int, den: int) -> str:
    g = gcd(num, den)
    num, den = num // g, den // g
    return "%d" % num if den == 1 else "%d/%d" % (num, den)


_new = object.__new__


def _make(order: int, nums: tuple[int, ...], den: int) -> "Cyclo":
    """The value sum(nums[j] * zeta_order^j) / den, for den > 0, in canonical
    form: a rational value moves to order 1 and gcd(den, *nums) becomes 1."""
    if order != 1 and not any(nums[1:]):
        order, nums = 1, nums[:1]
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple(c // g for c in nums)
    x = _new(Cyclo)
    x.order = order
    x.nums = nums
    x.den = den
    return x


class Cyclo:
    """An element of the N-th cyclotomic field over Q, in canonical form.

    The value is sum(nums[j] * zeta_N^j) / den with integer numerators nums on
    the power basis, one positive integer denominator den, and
    gcd(den, *nums) == 1.  Rational values are held at order 1, so that the
    rational predicates read one field.  Binary operations lift both operands
    into Q(zeta_lcm).
    """

    __slots__ = ("order", "nums", "den", "_hash")

    def __init__(self, order: int, coeffs):
        """The element with the rational coordinates coeffs on the power
        basis of Q(zeta_order)."""
        pairs = [_ratio(c) for c in coeffs]
        if len(pairs) != euler_phi(order):
            raise ValueError("order %d needs %d coordinates, got %d" % (
                order, euler_phi(order), len(pairs)))
        den = 1
        for _, d in pairs:
            den = _lcm(den, d)
        x = _make(order, tuple(n * (den // d) for n, d in pairs), den)
        self.order, self.nums, self.den = x.order, x.nums, x.den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(value) -> "Cyclo":
        if value.__class__ is int:
            return _make(1, (value,), 1)
        num, den = _ratio(value)
        return _make(1, (num,), den)

    @staticmethod
    def zero() -> "Cyclo":
        return _CYCLO_ZERO

    @staticmethod
    def one() -> "Cyclo":
        return _CYCLO_ONE

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Cyclo":
        return _make(order, _power_table(order)[power % order], 1)

    # -- basic predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.order == 1 and not self.nums[0]

    def is_one(self) -> bool:
        return self.order == 1 and self.nums[0] == 1 and self.den == 1

    def is_rational(self) -> bool:
        return self.order == 1

    def rational_value(self) -> Fraction:
        if self.order != 1:
            raise ValueError("not a rational number: %s" % self)
        return Fraction(self.nums[0], self.den)

    def is_real(self) -> bool:
        return self.conj() == self

    # -- coercion ------------------------------------------------------------

    def _nums_at(self, order: int) -> tuple[int, ...]:
        """Numerators over self.den of this value on the power basis of Q(zeta_order)."""
        if order == self.order:
            return self.nums
        if order % self.order != 0:
            raise ValueError("cannot lift order %d into order %d" % (self.order, order))
        if self.order == 1:
            return self.nums + (0,) * (euler_phi(order) - 1)
        return _combine(self.nums, _lift_rows(self.order, order))

    def lift(self, order: int) -> "Cyclo":
        """Embed into Q(zeta_order); requires self.order | order."""
        return _make(order, self._nums_at(order), self.den)

    def _align(self, other: "Cyclo") -> tuple[int, tuple, tuple]:
        if self.order == other.order:
            return self.order, self.nums, other.nums
        m = _lcm(self.order, other.order)
        return m, self._nums_at(m), other._nums_at(m)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Cyclo):
            other = Cyclo.rational(other)
        da, db = self.den, other.den
        if self.order == 1 and other.order == 1:
            if da == db:
                return _make(1, (self.nums[0] + other.nums[0],), da)
            return _make(1, (self.nums[0] * db + other.nums[0] * da,), da * db)
        n, na, nb = self._align(other)
        if da == db:
            return _make(n, tuple(map(add, na, nb)), da)
        return _make(n, tuple(a * db + b * da for a, b in zip(na, nb)), da * db)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Cyclo):
            other = Cyclo.rational(other)
        da, db = self.den, other.den
        if self.order == 1 and other.order == 1:
            if da == db:
                return _make(1, (self.nums[0] - other.nums[0],), da)
            return _make(1, (self.nums[0] * db - other.nums[0] * da,), da * db)
        n, na, nb = self._align(other)
        if da == db:
            return _make(n, tuple(map(sub, na, nb)), da)
        return _make(n, tuple(a * db - b * da for a, b in zip(na, nb)), da * db)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _make(self.order, tuple(-c for c in self.nums), self.den)

    def __mul__(self, other):
        if not isinstance(other, Cyclo):
            other = Cyclo.rational(other)
        if self.order == 1:
            a, da = self.nums[0], self.den
            if a == 1 and da == 1:
                return other
            if other.order == 1:
                b, db = other.nums[0], other.den
                if b == 1 and db == 1:
                    return self
                return _make(1, (a * b,), da * db)
            return _make(other.order, tuple(a * c for c in other.nums), da * other.den)
        if other.order == 1:
            b, db = other.nums[0], other.den
            if b == 1 and db == 1:
                return self
            return _make(self.order, tuple(c * b for c in self.nums), self.den * db)
        n, na, nb = self._align(other)
        phi = len(na)
        acc = [0] * (2 * phi - 1)
        for i, ai in enumerate(na):
            if ai:
                for j, bj in enumerate(nb):
                    if bj:
                        acc[i + j] += ai * bj
        return _make(n, _reduced(acc, n, phi), self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "Cyclo":
        """Multiplicative inverse.  When m = self * conj(self) is rational (a
        root of unity, or any value of an imaginary quadratic field), it is
        conj(self) / m; otherwise it is the Galois-norm inverse.  Either
        result is checked by multiplying back."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.order == 1:
            a = self.nums[0]
            return _make(1, (self.den if a > 0 else -self.den,), abs(a))
        c = self.conj()
        m = self * c
        if m.order == 1:
            a = m.nums[0]
            scale = m.den if a > 0 else -m.den
            out = _make(self.order, tuple(v * scale for v in c.nums), c.den * abs(a))
        else:
            out = self._norm_inverse()
        if not (out * self).is_one():
            raise AssertionError("cyclotomic inverse check fails")
        return out

    def _norm_inverse(self) -> "Cyclo":
        """1/self by the Galois norm: for P = den * self with integer
        coordinates, P times the product Q of its other Galois conjugates is
        the norm N(P), a nonzero rational integer, so 1/self = den * Q / N(P)."""
        n = self.order
        p = _make(n, self.nums, 1)
        q = _CYCLO_ONE
        for a in _units(n)[1:]:
            q = q * p.galois(a)
        norm = q * p
        if norm.order != 1 or norm.den != 1 or not norm.nums[0]:
            raise AssertionError("cyclotomic norm is not a nonzero rational integer")
        scale = self.den if norm.nums[0] > 0 else -self.den
        return _make(n, tuple(c * scale for c in q.nums), abs(norm.nums[0]))

    def __truediv__(self, other):
        if not isinstance(other, Cyclo):
            other = Cyclo.rational(other)
        return self * other.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        result = Cyclo.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def galois(self, a: int) -> "Cyclo":
        """The automorphism sigma_a: zeta -> zeta^a of Q(zeta_order), for a
        coprime to the order."""
        n = self.order
        if gcd(a, n) != 1:
            raise ValueError("%d is not a unit modulo %d" % (a, n))
        if n == 1:
            return self
        return _make(n, _combine(self.nums, _galois_rows(n, a % n)), self.den)

    def conj(self) -> "Cyclo":
        """The automorphism zeta -> zeta^(-1) (complex conjugation)."""
        return self.galois(-1)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Cyclo):
            if not isinstance(other, Rational):
                return NotImplemented
            other = Cyclo.rational(other)
        # lifting keeps the denominator: Z[zeta_m] meets Q(zeta_n) in Z[zeta_n]
        if self.den != other.den:
            return False
        _, na, nb = self._align(other)
        return na == nb

    def __hash__(self):
        """Hash of the normalized trace Tr(x) / phi(order), which lifting
        does not change, so values equal across orders hash equally."""
        try:
            return self._hash
        except AttributeError:
            pass
        t = sum(c * w for c, w in zip(self.nums, _trace_weights(self.order)))
        d = self.den * len(self.nums)
        g = gcd(t, d)
        self._hash = h = hash((t // g, d // g))
        return h

    # -- real structure ----------------------------------------------------

    def real_part(self) -> "Cyclo":
        return (self + self.conj()) * _CYCLO_HALF

    def imag_over_i(self) -> "Cyclo":
        """The real number y with self = real_part + i*y; needs 4 | order."""
        n = _lcm(self.order, 4)
        # 1/(2i) = -i/2 = zeta_n^(3n/4) / 2
        return (self - self.conj()) * _make(n, _power_table(n)[3 * n // 4], 2)

    def real_sign(self) -> int:
        """Exact sign of a real cyclotomic number (-1, 0, +1)."""
        if not self.is_real():
            raise ValueError("real_sign of a non-real value")
        if self.is_zero():
            return 0
        if self.order == 1:
            return -1 if self.nums[0] < 0 else 1
        # den > 0, so the sign is that of the numerator sum
        terms = 12
        while True:
            lo, hi = _ZERO, _ZERO
            for j, c in enumerate(self.nums):
                if not c:
                    continue
                clo, chi = _cos2pi_interval(Fraction(j, self.order), terms)
                if c > 0:
                    lo, hi = lo + c * clo, hi + c * chi
                else:
                    lo, hi = lo + c * chi, hi + c * clo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            terms *= 2

    # -- formatting -----------------------------------------------------------

    def __str__(self):
        parts = []
        for j, c in enumerate(self.nums):
            if not c:
                continue
            if j == 0:
                parts.append(_ratio_text(c, self.den))
            else:
                mag = "z" if j == 1 else "z^%d" % j
                if c == self.den:
                    parts.append(mag)
                elif c == -self.den:
                    parts.append("-" + mag)
                else:
                    parts.append("%s*%s" % (_ratio_text(c, self.den), mag))
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return "Cyclo(%d, %s)" % (self.order, self)


_CYCLO_ZERO = _make(1, (0,), 1)
_CYCLO_ONE = _make(1, (1,), 1)
_CYCLO_HALF = _make(1, (1,), 2)


# -- exact interval arithmetic for sign determination --------------------------

@lru_cache(maxsize=None)
def _pi_interval(terms: int) -> tuple[Fraction, Fraction]:
    """Rational bracket of pi via Machin's formula with alternating tails."""

    def atan_bounds(inv_x: int) -> tuple[Fraction, Fraction]:
        x = Fraction(1, inv_x)
        s = _ZERO
        sign = 1
        power = x
        x2 = x * x
        lo = hi = s
        for k in range(terms):
            term = power / (2 * k + 1)
            s = s + term if sign > 0 else s - term
            power *= x2
            sign = -sign
            if sign < 0:
                hi = s
                lo = s - power / (2 * k + 3)
            else:
                lo = s
                hi = s + power / (2 * k + 3)
        return lo, hi

    a_lo, a_hi = atan_bounds(5)
    b_lo, b_hi = atan_bounds(239)
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo


def _cos_bracket(t: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Bracket cos(t) for 0 <= t <= pi by alternating Taylor partial sums."""
    s = _ONE
    term = _ONE
    t2 = t * t
    sign = 1
    k = 0
    while True:
        k += 1
        term = term * t2 / ((2 * k - 1) * (2 * k))
        sign = -sign
        s = s + term if sign > 0 else s - term
        nxt = term * t2 / ((2 * k + 1) * (2 * k + 2))
        if k >= max(terms, 3) and nxt < term:
            # the tail alternates with decreasing magnitude from here on
            return (s, s + nxt) if sign < 0 else (s - nxt, s)


def _cos_taylor_bounds(t_lo: Fraction, t_hi: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Bracket cos on [t_lo, t_hi] subset of [0, pi] (cos is decreasing there)."""
    lo, _ = _cos_bracket(t_hi, terms)
    _, hi = _cos_bracket(t_lo, terms)
    return lo, hi


def _cos2pi_interval(r: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Bracket cos(2*pi*r) for rational r."""
    r %= 1
    if r > Fraction(1, 2):
        r = 1 - r
    pi_lo, pi_hi = _pi_interval(terms)
    t_lo, t_hi = 2 * pi_lo * r, 2 * pi_hi * r
    if r == 0:
        return _ONE, _ONE
    return _cos_taylor_bounds(t_lo, t_hi, terms)


# -- linear algebra -----------------------------------------------------------

class Echelon:
    """Incrementally maintained row echelon form over a cyclotomic field.

    Rows are held sparse, as {column: coefficient} without zero entries and
    keyed by their pivot, the least column, where the row has a 1.  The form
    is forward-reduced only: a row may have entries in the pivot columns of
    later rows, so an insert costs no back-substitution.  reduce sweeps the
    pivot columns it meets in increasing order; its remainder, the one
    vector congruent to the input with no entry in a pivot column, depends
    only on the span, as do the pivots and dim.  sparse_basis, basis and
    kernel back-substitute on demand into the fully reduced form, which is
    unique for the span, and return fresh rows.  Vectors are given as
    coordinate lists or as sparse dicts.  The arithmetic is plain Cyclo
    arithmetic, so feeding in conj-fixed rows keeps everything inside the
    maximal real subfield.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict[int, Cyclo]] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> dict[int, Cyclo]:
        """The remainder of vec, sparse, with no entry in a pivot column."""
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        v = {j: c for j, c in items if not c.is_zero()}
        rows = self.rows
        # subtracting the row of pivot p touches only columns past p, but it
        # can bring in later pivot columns, so they are swept off a heap
        heap = [j for j in v if j in rows]
        heapq.heapify(heap)
        while heap:
            p = heapq.heappop(heap)
            c = v.pop(p, None)
            if c is None:  # cancelled, or a repeat on the heap
                continue
            for j in _subtract_multiple(v, c, rows[p], p):
                if j in rows:
                    heapq.heappush(heap, j)
        return v

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def add(self, vec) -> bool:
        """Insert vec if independent of the current span; returns True if added."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        lead = v[pivot]
        if not lead.is_one():
            inv = lead.inv()
            v = {j: c * inv for j, c in v.items()}
        self.rows[pivot] = v
        return True

    def sparse_basis(self) -> list[dict[int, Cyclo]]:
        """The fully reduced rows as fresh {column: coefficient}, in pivot order."""
        reduced = self._full_rows()
        return [reduced[p] for p in sorted(reduced)]

    def basis(self) -> list[list[Cyclo]]:
        zero = Cyclo.zero()
        return [[row.get(j, zero) for j in range(self.ncols)]
                for row in self.sparse_basis()]

    def kernel(self) -> list[list[Cyclo]]:
        """Basis of the solution space of (this row span) * x = 0."""
        reduced = self._full_rows()
        free = [j for j in range(self.ncols) if j not in reduced]
        out = []
        for f in free:
            v = [Cyclo.zero()] * self.ncols
            v[f] = Cyclo.one()
            for p, row in reduced.items():
                if f in row:
                    v[p] = -row[f]
            out.append(v)
        return out

    def _full_rows(self) -> dict[int, dict[int, Cyclo]]:
        """Copies of the rows back-substituted into fully reduced form, from
        the last pivot down: the rows past a pivot are already reduced, so
        clearing one of their pivot columns brings in no other."""
        out = {}
        for p in sorted(self.rows, reverse=True):
            row = dict(self.rows[p])
            for q in [j for j in row if j != p and j in out]:
                _subtract_multiple(row, row.pop(q), out[q], q)
            out[p] = row
        return out


def _subtract_multiple(v, c, row, pivot):
    """v -= c * row in place on the columns of row other than its pivot,
    dropping the entries that cancel; returns the columns it brings into v."""
    new = []
    for j, e in row.items():
        if j == pivot:
            continue
        s = v.get(j)
        if s is None:
            v[j] = -(c * e)
            new.append(j)
        else:
            s = s - c * e
            if s.is_zero():
                del v[j]
            else:
                v[j] = s
    return new


def _real_rows(rows):
    """Split each cyclotomic row into two rows over the maximal real subfield.

    A real vector c solves (row) . c = 0 iff it solves both the conj-symmetrized
    row (row + conj row) and the skew part divided by zeta - zeta^(-1); both of
    those have conj-fixed entries.  A row that is already conj-fixed is kept
    as it stands: its symmetrized row is 2 row and its skew part is zero, so
    the split spans the same rows, and the echelon form and kernel are the
    same.  Every row the structure solves of algebras.py pass is of this kind.
    """
    out = []
    for row in rows:
        n = 1
        for e in row:
            n = _lcm(n, e.order)
        row = [e.lift(n) for e in row]
        crow = [e.conj() for e in row]
        if row == crow:
            if any(not e.is_zero() for e in row):
                out.append(row)
            continue
        plus = [a + b for a, b in zip(row, crow)]
        if any(not e.is_zero() for e in plus):
            out.append(plus)
        if n > 2:
            dinv = _skew_inverse(n)
            minus = [(a - b) * dinv for a, b in zip(row, crow)]
            if any(not e.is_zero() for e in minus):
                out.append(minus)
    return out


def kernel_over_real_subfield(matrix) -> list[list[Cyclo]]:
    """Basis over the maximal real subfield of {c real : M c = 0}.

    The returned vectors have conj-fixed entries and span, over the reals,
    the full space of real solutions.
    """
    rows = [list(r) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    ech = Echelon(ncols)
    for row in _real_rows(rows):
        ech.add(row)
    return ech.kernel()


def span_compare(U, V):
    """Exact subspace comparison; returns (relation, witness).

    relation is one of "equal", "U<V", "V<U", "incomparable".  The witness is
    a vector lying in one span but not the other (None when equal).
    """
    dims = {len(v) for v in itertools.chain(U, V)}
    if len(dims) > 1:
        raise ValueError("span_compare dimension mismatch: %s" % sorted(dims))
    ncols = dims.pop() if dims else 0
    eu, ev = Echelon(ncols), Echelon(ncols)
    for u in U:
        eu.add(u)
    for v in V:
        ev.add(v)
    u_in_v = next((u for u in U if not ev.contains(u)), None)
    v_in_u = next((v for v in V if not eu.contains(v)), None)
    if u_in_v is None and v_in_u is None:
        return "equal", None
    if u_in_v is None:
        return "U<V", v_in_u
    if v_in_u is None:
        return "V<U", u_in_v
    return "incomparable", u_in_v


# -- literal syntax ------------------------------------------------------------

def parse_cyclo(text: str, order: int) -> Cyclo:
    """Parse a cyclotomic literal like "1/2 - 3*z^2 + z" for the given order."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty cyclotomic literal")
    terms = []
    buf = ""
    for ch in s:
        if ch in "+-" and buf and buf[-1] not in "+-*/^(":
            terms.append(buf)
            buf = ch
        else:
            buf += ch
    terms.append(buf)
    total = Cyclo.zero()
    for term in terms:
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if not term:
            raise ValueError("malformed cyclotomic literal: %r" % text)
        coeff = Fraction(1)
        power = None
        for factor in term.split("*"):
            if factor.startswith("z"):
                if power is not None:
                    raise ValueError("repeated z factor in %r" % text)
                power = 1 if factor == "z" else int(factor[2:]) if factor[1] == "^" else None
                if power is None:
                    raise ValueError("malformed z power in %r" % text)
            else:
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError("zero denominator in %r" % text) from None
        value = Cyclo.rational(sign * coeff)
        if power is not None:
            value = value * Cyclo.zeta(order, power)
        total = total + value
    return total
