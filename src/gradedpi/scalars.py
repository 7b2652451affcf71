"""Exact cyclotomic arithmetic and linear algebra over the real subfield.

All scalars in this package are elements of Q(zeta_N) for some N, stored as
rational coordinate vectors on the power basis 1, zeta, ..., zeta^(phi(N)-1)
reduced modulo the N-th cyclotomic polynomial.  Reduction modulo Phi_N (rather
than zeta^N - 1) makes the representation a field with unique normal forms, so
equality is literal tuple equality.  There is no floating point anywhere;
sign determination for real values uses exact interval refinement.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd

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


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


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
def _power_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced coordinates of zeta_n^j on the power basis, for j in range(n)."""
    phi = euler_phi(n)
    top = [-Fraction(c) for c in cyclotomic_polynomial(n)[:phi]]  # zeta^phi
    rows: list[tuple[Fraction, ...]] = []
    cur = [_ZERO] * phi
    cur[0] = _ONE
    for j in range(n):
        rows.append(tuple(cur))
        # multiply by zeta
        carry = cur[phi - 1]
        nxt = [_ZERO] + cur[: phi - 1]
        if carry:
            nxt = [a + carry * t for a, t in zip(nxt, top)]
        cur = nxt
    return tuple(rows)


class Cyclo:
    """An element of the N-th cyclotomic field over Q, in canonical form.

    Binary operations lift both operands into Q(zeta_lcm).  Rational values
    are canonicalized to order 1 so that equal rationals hash equally
    regardless of the order they were produced in.
    """

    __slots__ = ("order", "coeffs", "_hash")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        if order >= 2 and all(c == 0 for c in coeffs[1:]):
            order, coeffs = 1, (coeffs[0],)
        self.order = order
        self.coeffs = coeffs
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(value) -> "Cyclo":
        return Cyclo(1, (Fraction(value),))

    @staticmethod
    def zero() -> "Cyclo":
        return _CYCLO_ZERO

    @staticmethod
    def one() -> "Cyclo":
        return _CYCLO_ONE

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Cyclo":
        power %= order
        phi = euler_phi(order)
        row = _power_table(order)[power]
        return Cyclo(order, tuple(row))

    # -- basic predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number: %s" % self)
        return self.coeffs[0]

    def is_real(self) -> bool:
        return self.conj() == self

    # -- coercion ------------------------------------------------------------

    def _coeffs_at(self, order: int) -> tuple[Fraction, ...]:
        """Raw coordinates of this value on the power basis of Q(zeta_order)."""
        if order == self.order:
            return self.coeffs
        if order % self.order != 0:
            raise ValueError("cannot lift order %d into order %d" % (self.order, order))
        step = order // self.order
        table = _power_table(order)
        phi = euler_phi(order)
        acc = [_ZERO] * phi
        for j, c in enumerate(self.coeffs):
            if c:
                row = table[(j * step) % order]
                for i, r in enumerate(row):
                    if r:
                        acc[i] += c * r
        return tuple(acc)

    def lift(self, order: int) -> "Cyclo":
        """Embed into Q(zeta_order); requires self.order | order."""
        return Cyclo(order, self._coeffs_at(order))

    def _align(self, other) -> tuple[int, tuple, tuple]:
        if not isinstance(other, Cyclo):
            other = Cyclo.rational(other)
        if self.order == other.order:
            return self.order, self.coeffs, other.coeffs
        m = _lcm(self.order, other.order)
        return m, self._coeffs_at(m), other._coeffs_at(m)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Cyclo) and self.order == 1 and other.order == 1:
            return Cyclo(1, (self.coeffs[0] + other.coeffs[0],))
        n, ca, cb = self._align(other)
        return Cyclo(n, tuple(x + y for x, y in zip(ca, cb)))

    __radd__ = __add__

    def __sub__(self, other):
        n, ca, cb = self._align(other)
        return Cyclo(n, tuple(x - y for x, y in zip(ca, cb)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Cyclo(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Cyclo):
            if self.order == 1:
                a = self.coeffs[0]
                if other.order == 1:
                    return Cyclo(1, (a * other.coeffs[0],))
                if a == 1:
                    return other
                return Cyclo(other.order, tuple(a * c for c in other.coeffs))
            if other.order == 1:
                b = other.coeffs[0]
                if b == 1:
                    return self
                return Cyclo(self.order, tuple(c * b for c in self.coeffs))
        n, ca, cb = self._align(other)
        phi = len(ca)
        table = _power_table(n)
        acc = [_ZERO] * phi
        for i, ai in enumerate(ca):
            if not ai:
                continue
            for j, bj in enumerate(cb):
                if not bj:
                    continue
                k = i + j
                c = ai * bj
                if k < phi:
                    acc[k] += c
                else:
                    row = table[k % n]
                    for t, r in enumerate(row):
                        if r:
                            acc[t] += c * r
        return Cyclo(n, tuple(acc))

    __rmul__ = __mul__

    def inv(self) -> "Cyclo":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return Cyclo.rational(1 / self.coeffs[0])
        modulus = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = modulus, list(self.coeffs)
        s0, s1 = [_ZERO], [_ONE]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                c = r1[0]
                inv_coeffs = [s / c for s in s1]
                break
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul_frac(q, s1))
        phi = len(self.coeffs)
        acc = [_ZERO] * phi
        table = _power_table(self.order)
        for j, c in enumerate(inv_coeffs):
            if not c:
                continue
            if j < phi:
                acc[j] += c
            else:
                row = table[j % self.order]
                for t, r in enumerate(row):
                    acc[t] += c * r
        out = Cyclo(self.order, tuple(acc))
        if not (out * self).is_one():
            raise AssertionError("cyclotomic inverse check fails")
        return out

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

    def conj(self) -> "Cyclo":
        """The automorphism zeta -> zeta^(-1) (complex conjugation)."""
        if self.order <= 2:
            return self
        n = self.order
        table = _power_table(n)
        phi = len(self.coeffs)
        acc = [_ZERO] * phi
        for j, c in enumerate(self.coeffs):
            if c:
                row = table[(n - j) % n]
                for t, r in enumerate(row):
                    if r:
                        acc[t] += c * r
        return Cyclo(n, tuple(acc))

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, (Cyclo, int, Fraction)):
            return NotImplemented
        _, ca, cb = self._align(other)
        return ca == cb

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, self.coeffs))
        return self._hash

    # -- real structure ----------------------------------------------------

    def real_part(self) -> "Cyclo":
        return (self + self.conj()) * Cyclo.rational(Fraction(1, 2))

    def imag_over_i(self) -> "Cyclo":
        """The real number y with self = real_part + i*y; needs 4 | order."""
        n = _lcm(self.order, 4)
        x = self.lift(n)
        i = Cyclo.zeta(n, n // 4)
        return (x - x.conj()) / (i + i)

    def real_sign(self) -> int:
        """Exact sign of a real cyclotomic number (-1, 0, +1)."""
        if not self.is_real():
            raise ValueError("real_sign of a non-real value")
        if self.is_zero():
            return 0
        if self.is_rational():
            v = self.coeffs[0]
            return -1 if v < 0 else 1
        terms = 12
        while True:
            lo, hi = _ZERO, _ZERO
            for j, c in enumerate(self.coeffs):
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
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                mag = "z" if j == 1 else "z^%d" % j
                if c == 1:
                    parts.append(mag)
                elif c == -1:
                    parts.append("-" + mag)
                else:
                    parts.append("%s*%s" % (c, mag))
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return "Cyclo(%d, %s)" % (self.order, self)


_CYCLO_ZERO = Cyclo(1, (_ZERO,))
_CYCLO_ONE = Cyclo(1, (_ONE,))


# -- polynomial helpers over Fraction (ascending coefficient lists) -----------

def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    while den and den[-1] == 0:
        den = den[:-1]
    dn = len(den) - 1
    q = [_ZERO] * max(len(num) - dn, 1)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c == 0:
            continue
        f = c / den[-1]
        q[k - dn] = f
        for i, di in enumerate(den):
            num[k - dn + i] -= f * di
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


def _poly_mul_frac(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


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
    """Incrementally maintained reduced row echelon form over a cyclotomic field.

    Rows are held sparse, as {column: coefficient} without zero entries and
    keyed by their pivot, the leftmost column, where the row has a 1.  The
    form is fully reduced (no row has an entry in another row's pivot
    column), so it is unique for the span.  Vectors are given as coordinate
    lists or as sparse dicts.  The arithmetic is plain Cyclo arithmetic, so
    feeding in conj-fixed rows keeps everything inside the maximal real
    subfield.
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
        # a fully reduced form leaves the pivot entries of v unchanged, so
        # one pass over them reduces v
        for p in sorted(j for j in v if j in self.rows):
            _subtract_multiple(v, v.pop(p), self.rows[p], p)
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
        for row in self.rows.values():
            if pivot in row:
                _subtract_multiple(row, row.pop(pivot), v, pivot)
        self.rows[pivot] = v
        return True

    def sparse_basis(self) -> list[dict[int, Cyclo]]:
        """The rows as {column: coefficient}, in pivot order."""
        return [self.rows[p] for p in sorted(self.rows)]

    def basis(self) -> list[list[Cyclo]]:
        zero = Cyclo.zero()
        return [[row.get(j, zero) for j in range(self.ncols)]
                for row in self.sparse_basis()]

    def kernel(self) -> list[list[Cyclo]]:
        """Basis of the solution space of (this row span) * x = 0."""
        free = [j for j in range(self.ncols) if j not in self.rows]
        out = []
        for f in free:
            v = [Cyclo.zero()] * self.ncols
            v[f] = Cyclo.one()
            for p, row in self.rows.items():
                if f in row:
                    v[p] = -row[f]
            out.append(v)
        return out


def _subtract_multiple(v, c, row, pivot):
    """v -= c * row in place on the columns of row other than its pivot,
    dropping the entries that cancel."""
    for j, e in row.items():
        if j == pivot:
            continue
        s = v.get(j)
        s = -(c * e) if s is None else s - c * e
        if s.is_zero():
            del v[j]
        else:
            v[j] = s


def _real_rows(rows):
    """Split each cyclotomic row into two rows over the maximal real subfield.

    A real vector c solves (row) . c = 0 iff it solves both the conj-symmetrized
    row (row + conj row) and the skew part divided by zeta - zeta^(-1); both of
    those have conj-fixed entries.
    """
    out = []
    for row in rows:
        n = 1
        for e in row:
            n = _lcm(n, e.order)
        row = [e.lift(n) for e in row]
        crow = [e.conj() for e in row]
        plus = [a + b for a, b in zip(row, crow)]
        if any(not e.is_zero() for e in plus):
            out.append(plus)
        if n > 2:
            delta = Cyclo.zeta(n) - Cyclo.zeta(n, n - 1)
            if not delta.is_zero():
                dinv = delta.inv()
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
                coeff *= Fraction(factor)
        value = Cyclo.rational(sign * coeff)
        if power is not None:
            value = value * Cyclo.zeta(order, power)
        total = total + value
    return total
