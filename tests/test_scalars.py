import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from gradedpi.scalars import (
    Cyclo,
    Echelon,
    _real_rows,
    cyclotomic_polynomial,
    kernel_over_real_subfield,
    parse_cyclo,
    span_compare,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_omega_squared_is_i():
    omega = Cyclo.zeta(8)
    i = Cyclo.zeta(8, 2)
    assert omega * omega == i
    assert i == Cyclo.zeta(4).lift(8)


def test_conj_and_is_real():
    i = Cyclo.zeta(4)
    assert i.conj() == -i
    x = Cyclo.zeta(8) + Cyclo.zeta(8, 7)
    assert x.is_real()
    # (zeta8 + zeta8^-1)^2 = 2
    assert x * x == Cyclo.rational(2)
    assert not Cyclo.zeta(8).is_real()


def test_inverse_of_one_plus_zeta5():
    x = Cyclo.one() + Cyclo.zeta(5)
    y = x.inv()
    assert (x * y).is_one()
    assert (y * x).is_one()


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero().inv()


def test_lift_requires_divisibility():
    with pytest.raises(ValueError):
        Cyclo.zeta(4).lift(6)


def test_rational_canonicalization_hash():
    a = Cyclo.zeta(4, 0)
    b = Cyclo.rational(1)
    assert a == b and hash(a) == hash(b)


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def cyclos(order):
    from gradedpi.scalars import euler_phi

    phi = euler_phi(order)
    return st.lists(small_rationals, min_size=phi, max_size=phi).map(
        lambda cs: Cyclo(order, tuple(Fraction(c) for c in cs))
    )


@settings(max_examples=60, deadline=None)
@given(cyclos(8), cyclos(8))
def test_conj_is_multiplicative(x, y):
    assert (x * y).conj() == x.conj() * y.conj()


@settings(max_examples=60, deadline=None)
@given(cyclos(12))
def test_inverse_roundtrip(x):
    if not x.is_zero():
        assert (x * x.inv()).is_one()


@settings(max_examples=60, deadline=None)
@given(cyclos(5))
def test_lift_preserves_arithmetic(x):
    y = x.lift(20)
    assert y == x
    assert (y * y) == (x * x).lift(20)


def test_real_sign_rational_and_irrational():
    assert Cyclo.rational(Fraction(-3, 7)).real_sign() == -1
    sqrt2 = Cyclo.zeta(8) + Cyclo.zeta(8, 7)
    assert sqrt2.real_sign() == 1
    assert (sqrt2 - Cyclo.rational(2)).real_sign() == -1
    assert (sqrt2 * sqrt2 - Cyclo.rational(2)).real_sign() == 0
    sqrt3 = Cyclo.zeta(12) + Cyclo.zeta(12, 11)
    assert (sqrt3 - Cyclo.rational(Fraction(17, 10))).real_sign() == 1


# -- kernels over the real subfield ------------------------------------------


def test_kernel_single_row_sqrt2():
    # hand-derived: 1*c0 + zeta8^-1*c1 + zeta8^-2*c2 = 0 with real c
    # splits into c0 + c1/sqrt2 = 0 and -c1/sqrt2 - c2 = 0, so (1, -sqrt2, 1).
    row = [Cyclo.one(), Cyclo.zeta(8, 7), Cyclo.zeta(8, 6)]
    basis = kernel_over_real_subfield([row])
    assert len(basis) == 1
    v = basis[0]
    sqrt2 = Cyclo.zeta(8) + Cyclo.zeta(8, 7)
    scale = v[0]
    assert not scale.is_zero()
    normalized = [c / scale for c in v]
    assert normalized == [Cyclo.one(), -sqrt2, Cyclo.one()]
    # substituting back gives exactly zero in the original (complex) row
    total = Cyclo.zero()
    for r, c in zip(row, v):
        total = total + r * c
    assert total.is_zero()
    assert all(c.is_real() for c in v)


def test_kernel_identity_matrix_empty():
    rows = [
        [Cyclo.one(), Cyclo.zero()],
        [Cyclo.zero(), Cyclo.one()],
    ]
    assert kernel_over_real_subfield(rows) == []


def test_kernel_one_minus_one():
    basis = kernel_over_real_subfield([[Cyclo.one(), -Cyclo.one()]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] and not v[0].is_zero()


def test_kernel_zero_matrix_full():
    rows = [[Cyclo.zero(), Cyclo.zero(), Cyclo.zero()]]
    basis = kernel_over_real_subfield(rows)
    assert len(basis) == 3


def _split_real_rows(rows):
    """Every row split into its conj-symmetrized row and its skew part over
    zeta - zeta^(-1), conj-fixed or not: the split _real_rows made of all
    rows before it kept conj-fixed ones as they stand."""
    out = []
    for row in rows:
        n = 1
        for e in row:
            n = lcm(n, e.order)
        row = [e.lift(n) for e in row]
        crow = [e.conj() for e in row]
        plus = [a + b for a, b in zip(row, crow)]
        if any(not e.is_zero() for e in plus):
            out.append(plus)
        if n > 2:
            dinv = (Cyclo.zeta(n) - Cyclo.zeta(n, n - 1)).inv()
            minus = [(a - b) * dinv for a, b in zip(row, crow)]
            if any(not e.is_zero() for e in minus):
                out.append(minus)
    return out


def _split_kernel(rows):
    ech = Echelon(len(rows[0]))
    for row in _split_real_rows(rows):
        ech.add(row)
    return ech.kernel()


def _conj_fixed_rows(rng, count, width):
    """Random rows of rationals, sqrt2 = zeta8 + zeta8^-1 and sqrt3 =
    zeta12 + zeta12^-1 combinations: conj-fixed at orders 1, 8 and 12."""
    sqrt2 = Cyclo.zeta(8) + Cyclo.zeta(8, 7)
    sqrt3 = Cyclo.zeta(12) + Cyclo.zeta(12, 11)
    pool = [Cyclo.zero(), Cyclo.zero(), Cyclo.one(), -Cyclo.one(), Cyclo.rational(2),
            sqrt2, sqrt3, Cyclo.rational(Fraction(1, 3)) - sqrt3, sqrt2 * sqrt3]
    return [[rng.choice(pool) for _ in range(width)] for _ in range(count)]


def test_conj_fixed_rows_are_kept_and_give_the_split_kernel():
    """A conj-fixed row goes to the echelon as it stands, not as 2 row and a
    zero skew row; the kernel, entries and their representations included,
    is the one of the full split, on random conj-fixed systems and on
    systems mixing them with non-real rows."""
    rng = random.Random(11)
    for trial in range(60):
        rows = _conj_fixed_rows(rng, rng.randint(1, 4), rng.randint(1, 5))
        if trial % 3 == 0:
            width = len(rows[0])
            rows.append([rng.choice((Cyclo.zero(), Cyclo.one(), Cyclo.zeta(12),
                                     Cyclo.zeta(8, 3))) for _ in range(width)])
        assert all(c.is_real() for c in rows[0])
        zero_row = all(c.is_zero() for c in rows[0])
        assert _real_rows(rows[:1]) == ([] if zero_row else [rows[0]])
        got = kernel_over_real_subfield(rows)
        ref = _split_kernel(rows)
        assert got == ref
        assert [[(c.order, c.nums, c.den) for c in v] for v in got] == \
            [[(c.order, c.nums, c.den) for c in v] for v in ref]


def test_non_real_rows_are_still_split():
    """[1, zeta12] is not conj-fixed: it is split into its symmetrized row
    and its skew part, and its only real solution is zero."""
    z = Cyclo.zeta(12)
    row = [Cyclo.one(), z]
    split = _real_rows([row])
    assert split == _split_real_rows([row]) and len(split) == 2
    assert all(c.is_real() for r in split for c in r)
    assert kernel_over_real_subfield([row]) == []
    # a conj-fixed row is one row, the row itself
    sqrt3 = z + z.conj()
    assert _real_rows([[Cyclo.one(), sqrt3]]) == [[Cyclo.one(), sqrt3]]
    assert _real_rows([[Cyclo.zero(), Cyclo.zero()]]) == []


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(cyclos(8), min_size=3, max_size=3), min_size=1, max_size=3))
def test_kernel_vectors_solve_exactly(rows):
    basis = kernel_over_real_subfield(rows)
    for v in basis:
        assert all(c.is_real() for c in v)
        for row in rows:
            total = Cyclo.zero()
            for r, c in zip(row, v):
                total = total + r * c
            assert total.is_zero()


# -- span comparison ------------------------------------------------------------


def one_hot(n, j):
    return [Cyclo.one() if k == j else Cyclo.zero() for k in range(n)]


def test_span_compare_strict():
    U = [one_hot(2, 0)]
    V = [one_hot(2, 0), one_hot(2, 1)]
    rel, witness = span_compare(U, V)
    assert rel == "U<V"
    assert witness == one_hot(2, 1)


def test_span_compare_empty_equal():
    assert span_compare([], []) == ("equal", None)


def test_span_compare_incomparable():
    rel, witness = span_compare([one_hot(3, 0)], [one_hot(3, 1)])
    assert rel == "incomparable"
    assert witness is not None


def test_span_compare_dimension_mismatch():
    with pytest.raises(ValueError):
        span_compare([one_hot(2, 0)], [one_hot(3, 0)])


def test_echelon_incremental():
    ech = Echelon(3)
    assert ech.add([Cyclo.one(), Cyclo.one(), Cyclo.zero()])
    assert not ech.add([Cyclo.rational(2), Cyclo.rational(2), Cyclo.zero()])
    assert ech.add(one_hot(3, 2))
    assert ech.dim == 2
    assert ech.contains([Cyclo.one(), Cyclo.one(), Cyclo.rational(5)])
    assert not ech.contains(one_hot(3, 0))


def _gauss_jordan(rows, ncols):
    """Reference reduced row echelon form over Fraction (nonzero rows only)."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][col]
        m[rank] = [x / lead for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return m[:rank]


@st.composite
def rational_matrices(draw):
    """(ncols, rows, order): a small rational matrix that may hold zero and
    duplicate rows, and a permutation of its rows."""
    ncols = draw(st.integers(1, 5))
    entry = st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(2),
                                                 Fraction(1, 2), Fraction(-3, 4)])
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    return ncols, rows, draw(st.permutations(range(len(rows))))


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_echelon_matches_gauss_jordan(matrix):
    """The sparse echelon agrees with plain Gauss-Jordan elimination on dim,
    basis and membership, for rows given as lists, full dicts or sparse
    dicts, and its basis does not depend on the insertion order."""
    ncols, rows, order = matrix
    expected = _gauss_jordan(rows, ncols)
    probes = rows + [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    if len(rows) >= 2:
        probes.append([a + b for a, b in zip(rows[0], rows[1])])
    forms = [
        lambda r: [Cyclo.rational(x) for x in r],
        lambda r: {j: Cyclo.rational(x) for j, x in enumerate(r)},
        lambda r: {j: Cyclo.rational(x) for j, x in enumerate(r) if x},
    ]
    for form in forms:
        ech = Echelon(ncols)
        for r in rows:
            ech.add(form(r))
        assert ech.dim == len(expected)
        assert [[c.rational_value() for c in r] for r in ech.basis()] == expected
        for probe in probes:
            inside = len(_gauss_jordan(expected + [probe], ncols)) == len(expected)
            assert ech.contains(form(probe)) == inside
        kernel = ech.kernel()
        assert len(kernel) == ncols - len(expected)
        for v in kernel:
            for r in rows:
                assert sum(x * c.rational_value() for x, c in zip(r, v)) == 0
    shuffled = Echelon(ncols)
    for i in order:
        shuffled.add(forms[0](rows[i]))
    assert shuffled.basis() == ech.basis()


class _FullyReducedEchelon:
    """The echelon as it was held before its rows were forward-reduced only:
    after each insert the new pivot is cleared from every other row, so the
    rows are always the unique fully reduced form."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = {}

    @property
    def dim(self):
        return len(self.rows)

    @staticmethod
    def _subtract(v, c, row, pivot):
        for j, e in row.items():
            if j != pivot:
                s = v.get(j, Cyclo.zero()) - c * e
                if s.is_zero():
                    v.pop(j, None)
                else:
                    v[j] = s

    def reduce(self, vec):
        v = {j: c for j, c in vec.items() if not c.is_zero()}
        for p in sorted(j for j in v if j in self.rows):
            self._subtract(v, v.pop(p), self.rows[p], p)
        return v

    def add(self, vec):
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        inv = v[pivot].inv()
        v = {j: c * inv for j, c in v.items()}
        for row in self.rows.values():
            if pivot in row:
                self._subtract(row, row.pop(pivot), v, pivot)
        self.rows[pivot] = v
        return True

    def sparse_basis(self):
        return [dict(self.rows[p]) for p in sorted(self.rows)]

    def kernel(self):
        out = []
        for f in range(self.ncols):
            if f not in self.rows:
                v = [Cyclo.zero()] * self.ncols
                v[f] = Cyclo.one()
                for p, row in self.rows.items():
                    if f in row:
                        v[p] = -row[f]
                out.append(v)
        return out


def _random_cyclo(rng, order):
    terms = [Cyclo.rational(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3))))
             * Cyclo.zeta(order, rng.randrange(order)) for _ in range(rng.randint(1, 2))]
    return sum(terms[1:], terms[0])


def _random_sparse(rng, order, ncols):
    cols = rng.sample(range(ncols), rng.randint(1, min(4, ncols)))
    return {j: _random_cyclo(rng, order) for j in cols}


def _combination(rng, order, vecs):
    """A random combination of vecs, as a sparse dict (possibly empty)."""
    out = {}
    for v in rng.sample(vecs, min(len(vecs), 3)):
        c = _random_cyclo(rng, order)
        for j, e in v.items():
            out[j] = out.get(j, Cyclo.zero()) + c * e
    return {j: e for j, e in out.items() if not e.is_zero()}


def _assert_same_echelon(ech, ref, probes):
    assert ech.dim == ref.dim
    assert sorted(ech.rows) == sorted(ref.rows)
    assert ech.sparse_basis() == ref.sparse_basis()
    zero = Cyclo.zero()
    assert ech.basis() == [[row.get(j, zero) for j in range(ref.ncols)]
                           for row in ref.sparse_basis()]
    assert ech.kernel() == ref.kernel()
    for probe in probes:
        assert ech.reduce(probe) == ref.reduce(probe)
        assert ech.contains(probe) == (not ref.reduce(probe))


def _chained(ech):
    """Whether some row has an entry in the pivot column of a later row, so
    that reducing against it must sweep that column too."""
    return any(j != p and j in ech.rows for p, row in ech.rows.items() for j in row)


@pytest.mark.parametrize("order", [1, 4, 12])
def test_forward_echelon_matches_fully_reduced_echelon(order):
    """The forward-reduced Echelon agrees with the fully reduced one on dim,
    contains, every reduce remainder, sparse_basis, basis and kernel, on
    seeded sparse vectors whose spans repeat, through reads of the basis
    between inserts and changes to the rows it returns."""
    chained = 0
    for seed in range(12):
        rng = random.Random(1000 * order + seed)
        ncols = rng.randint(3, 9)
        vecs = []
        for _ in range(rng.randint(2, ncols + 2)):
            vecs.append(_combination(rng, order, vecs) if vecs and rng.random() < 0.3
                        else _random_sparse(rng, order, ncols))
        probes = [_random_sparse(rng, order, ncols) for _ in range(4)]
        probes += [_combination(rng, order, vecs) for _ in range(4)]
        probes += [{j: Cyclo.one()} for j in range(ncols)]
        ech, ref = Echelon(ncols), _FullyReducedEchelon(ncols)
        for k, v in enumerate(vecs):
            assert ech.add(v) == ref.add(v)
            if k == len(vecs) // 2:
                # read the basis between inserts, and change what it returns
                for row in ech.sparse_basis():
                    row.clear()
                _assert_same_echelon(ech, ref, probes)
        chained += _chained(ech)
        _assert_same_echelon(ech, ref, probes)
        for row in ech.sparse_basis():
            row[ncols - 1] = Cyclo.rational(7)
        _assert_same_echelon(ech, ref, probes)
    assert chained


def test_forward_echelon_sweeps_chained_pivots():
    """Rows that hold entries in later pivot columns: reducing e0 must sweep
    columns 0, 1 and 2 in turn, and the basis is still the reduced one."""
    one = Cyclo.one()
    ech = Echelon(4)
    for v in ({0: one, 1: one}, {1: one, 2: one}, {2: one, 3: one}):
        assert ech.add(v)
    assert ech.rows[0] == {0: one, 1: one} and ech.rows[1] == {1: one, 2: one}
    assert ech.reduce({0: one}) == {3: Cyclo.rational(-1)}
    assert not ech.contains({0: one}) and ech.contains({0: one, 3: one})
    assert ech.sparse_basis() == [{0: one, 3: one}, {1: one, 3: -one}, {2: one, 3: one}]
    assert ech.kernel() == [[-one, one, -one, one]]
    assert ech.rows[0] == {0: one, 1: one}


def test_parse_cyclo_roundtrip():
    x = parse_cyclo("1/2 - 3*z^2 + z", 8)
    expected = (
        Cyclo.rational(Fraction(1, 2))
        + Cyclo.zeta(8)
        - Cyclo.rational(3) * Cyclo.zeta(8, 2)
    )
    assert x == expected
    assert parse_cyclo(str(x), 8) == x
    assert parse_cyclo("-2", 4) == Cyclo.rational(-2)


@pytest.mark.parametrize("text", ["1/0", "z - 3/0*z^2", "-0/0"])
def test_parse_cyclo_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_cyclo(text, 8)


# -- differential test against polynomial arithmetic over Fraction -------------

DIFF_ORDERS = (1, 2, 3, 4, 5, 8, 12, 15, 16, 20, 24)


def _phi(n):
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def _ref_reduce(poly, n):
    """Remainder of a Fraction polynomial (ascending) modulo Phi_n."""
    mod = cyclotomic_polynomial(n)
    deg = len(mod) - 1
    poly = list(poly) + [Fraction(0)] * max(0, deg - len(poly))
    for k in range(len(poly) - 1, deg - 1, -1):
        c = poly[k]
        if c:
            for i, m in enumerate(mod):
                poly[k - deg + i] -= c * m
    return poly[:deg]


def _ref_substitute(coeffs, n, exponent):
    """sum(c_j * zeta_n^(exponent * j)), reduced modulo Phi_n."""
    poly = [Fraction(0)] * n
    for j, c in enumerate(coeffs):
        poly[exponent * j % n] += c
    return _ref_reduce(poly, n)


def _ref_lift(ref, m):
    n, coeffs = ref
    return m, _ref_substitute(coeffs, m, m // n)


def _ref_aligned(a, b):
    m = a[0] * b[0] // gcd(a[0], b[0])
    return m, _ref_lift(a, m)[1], _ref_lift(b, m)[1]


def _ref_add(a, b, sign=1):
    m, ca, cb = _ref_aligned(a, b)
    return m, [p + sign * q for p, q in zip(ca, cb)]


def _ref_mul(a, b):
    m, ca, cb = _ref_aligned(a, b)
    poly = [Fraction(0)] * (2 * len(ca) - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            poly[i + j] += x * y
    return m, _ref_reduce(poly, m)


def _ref_inv(a):
    """Solve (multiplication by a) y = 1 by Gauss-Jordan elimination."""
    n, coeffs = a
    phi = len(coeffs)
    cols = [_ref_mul(a, (n, [Fraction(int(i == j)) for i in range(phi)]))[1]
            for j in range(phi)]
    rows = [[cols[j][i] for j in range(phi)] + [Fraction(int(i == 0))] for i in range(phi)]
    for col in range(phi):
        piv = next(i for i in range(col, phi) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(phi):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return n, [r[-1] for r in rows]


def _ref_of(x):
    return x.order, [Fraction(c, x.den) for c in x.nums]


def _same_value(x, ref):
    """The Cyclo x holds the value ref, and keeps the canonical form."""
    assert type(x.order) is int and type(x.den) is int and x.den > 0
    assert type(x.nums) is tuple and all(type(c) is int for c in x.nums)
    assert len(x.nums) == _phi(x.order)
    assert gcd(x.den, *x.nums) == 1
    assert x.order == 1 or any(x.nums[1:])  # rationals live at order 1
    _, cx, cr = _ref_aligned(_ref_of(x), ref)
    return cx == cr


@st.composite
def ref_values(draw):
    order = draw(st.sampled_from(DIFF_ORDERS))
    coeffs = [draw(small_rationals) if draw(st.booleans()) else Fraction(0)
              for _ in range(_phi(order))]
    return order, coeffs


@settings(max_examples=200, deadline=None)
@given(ref_values(), ref_values(), st.sampled_from((2, 3, 4)))
def test_cyclo_matches_fraction_reference(a, b, scale):
    x, y = Cyclo(*a), Cyclo(*b)
    assert _same_value(x, a) and _same_value(y, b)
    assert _same_value(x + y, _ref_add(a, b))
    assert _same_value(x - y, _ref_add(a, b, -1))
    assert _same_value(-x, (a[0], [-c for c in a[1]]))
    assert _same_value(x * y, _ref_mul(a, b))
    assert _same_value(x.conj(), (a[0], _ref_substitute(a[1], a[0], -1)))
    lifted = _ref_lift(a, a[0] * scale)
    assert _same_value(x.lift(a[0] * scale), lifted)
    assert x.lift(a[0] * scale) == x
    assert hash(x.lift(a[0] * scale)) == hash(x)
    _, ca, cb = _ref_aligned(a, b)
    assert (x == y) == (ca == cb)
    if x == y:
        assert hash(x) == hash(y)
    if any(a[1]):
        assert _same_value(x.inv(), _ref_inv(a))
        assert (x * x.inv()).is_one()
    else:
        with pytest.raises(ZeroDivisionError):
            x.inv()


@settings(max_examples=100, deadline=None)
@given(ref_values(), ref_values())
def test_galois_action_matches_substitution(a, b):
    """sigma_u is the substitution zeta -> zeta^u: conj is u = -1, each
    sigma_u is multiplicative, and x times its other conjugates, its norm, is
    rational and vanishes only at zero."""
    x, y = Cyclo(*a), Cyclo(*b)
    n = a[0]
    assert x.galois(-1) == x.conj()
    assert _same_value(x.galois(-1), (n, _ref_substitute(a[1], n, -1)))
    norm = x
    for u in range(2, n):
        if gcd(u, n) == 1:
            assert _same_value(x.galois(u), (n, _ref_substitute(a[1], n, u)))
            norm = norm * x.galois(u)
    assert _same_value(x.galois(1), a)
    assert norm.is_rational() and norm.is_zero() == x.is_zero()
    m = lcm(n, b[0])
    xm, ym = x.lift(m), y.lift(m)
    for u in range(1, m):
        if gcd(u, m) == 1:
            assert (xm * ym).galois(u) == xm.galois(u) * ym.galois(u)


def test_galois_refuses_non_units():
    with pytest.raises(ValueError):
        Cyclo.zeta(12).galois(3)


def test_rational_inverse_stays_exact():
    third = Cyclo.rational(3).inv()
    assert _same_value(third, (1, [Fraction(1, 3)]))
    assert third.rational_value() == Fraction(1, 3)
    assert type(third.rational_value()) is Fraction
    minus_two = Cyclo.rational(Fraction(-3, 6)).inv()
    assert _same_value(minus_two, (1, [Fraction(-2)]))
    assert minus_two == -2 and minus_two.rational_value() == -2
    assert _same_value(Cyclo.rational(Fraction(-3, 6)) / 3, (1, [Fraction(-1, 6)]))


def test_floats_are_refused():
    with pytest.raises(TypeError):
        Cyclo.rational(0.5)
    with pytest.raises(TypeError):
        Cyclo.one() * 0.5
    with pytest.raises(TypeError):
        Cyclo(4, (0.5, 0))


def test_equal_values_at_different_orders_hash_equally():
    assert Cyclo.zeta(4) == Cyclo.zeta(12, 3)
    assert len({Cyclo.zeta(4), Cyclo.zeta(12, 3)}) == 1
    sqrt2 = Cyclo.zeta(8) + Cyclo.zeta(8, 7)
    assert len({sqrt2, sqrt2.lift(16), sqrt2.lift(24)}) == 1
    assert len({Cyclo.zeta(3), Cyclo.zeta(6, 2), -Cyclo.zeta(6, 5)}) == 1


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((4, 8, 12, 16, 20, 24)).flatmap(cyclos))
def test_imag_over_i_splits_off_the_real_part(x):
    """x = real_part + i*y for the real y = imag_over_i, which is (x - conj x)/(2i)
    in the same canonical form."""
    n = lcm(x.order, 4)
    i = Cyclo.zeta(n, n // 4)
    y = x.imag_over_i()
    assert y.is_real() and x.real_part().is_real()
    assert x == x.real_part() + i * y
    reference = (x - x.conj()) / (i + i)
    assert (y.order, y.nums, y.den) == (reference.order, reference.nums, reference.den)


@pytest.mark.parametrize("x", [Cyclo.rational(Fraction(-3, 7)), Cyclo.rational(5),
                               Cyclo.zeta(12) + Cyclo.rational(Fraction(1, 3))],
                         ids=["rational", "integer", "order-12"])
def test_multiplying_by_rational_one_returns_the_other_operand(x):
    one = Cyclo.rational(1)
    assert one * x is x
    assert x * one is x


# -- the inverse: conj(x) / (x conj(x)) against the Galois-norm inverse ----------

INV_ORDERS = (1, 3, 4, 5, 8, 12, 16)


def _galois_norm_inverse(x):
    """1/x as the product of the other Galois conjugates of x over its norm."""
    n = x.order
    others = Cyclo.one()
    for a in range(2, n):
        if gcd(a, n) == 1:
            others = others * x.galois(a)
    norm = others * x
    assert norm.is_rational() and not norm.is_zero()
    return others * Cyclo.rational(1 / norm.rational_value())


@st.composite
def inv_values(draw):
    """Nonzero values of Q(zeta_n): arbitrary ones, and rational multiples of
    roots of unity (whose x conj(x) is rational at every order)."""
    order = draw(st.sampled_from(INV_ORDERS))
    if draw(st.booleans()):
        scale = draw(small_rationals.filter(bool))
        return Cyclo.zeta(order, draw(st.integers(0, order - 1))) * Cyclo.rational(scale)
    x = Cyclo(order, [draw(small_rationals) for _ in range(_phi(order))])
    return x if not x.is_zero() else Cyclo.zeta(order)


@settings(max_examples=200, deadline=None)
@given(inv_values())
def test_inverse_matches_galois_norm_inverse(x):
    ref = _galois_norm_inverse(x)
    out = x.inv()
    assert (out.order, out.nums, out.den) == (ref.order, ref.nums, ref.den)
    assert (x * out).is_one()


def test_inverse_takes_the_conjugate_path_only_when_x_conj_x_is_rational(monkeypatch):
    fallbacks = []
    norm_inverse = Cyclo._norm_inverse

    def counted(self):
        fallbacks.append(self)
        return norm_inverse(self)

    monkeypatch.setattr(Cyclo, "_norm_inverse", counted)
    for order in INV_ORDERS[1:]:
        root = Cyclo.zeta(order, order - 1)
        assert root.inv() == Cyclo.zeta(order)
    assert (Cyclo.zeta(8, 3) * Cyclo.rational(Fraction(-2, 3))).inv() == \
        Cyclo.zeta(8, 5) * Cyclo.rational(Fraction(-3, 2))
    assert fallbacks == []
    x = Cyclo.one() + Cyclo.zeta(12)
    two_plus_sqrt3 = x * x.conj()
    assert not two_plus_sqrt3.is_rational()
    assert two_plus_sqrt3 * two_plus_sqrt3 - 4 * two_plus_sqrt3 == -1
    assert x.inv() == _galois_norm_inverse(x)
    assert fallbacks == [x]
