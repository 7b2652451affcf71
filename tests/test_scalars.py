from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedpi.scalars import (
    Cyclo,
    Echelon,
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
