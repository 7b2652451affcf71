import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gradedpi.groups import Bicharacter, FiniteAbelianGroup, bichar_tensor, quotient_by
from gradedpi.scalars import Cyclo


def brute_force_cosets(group, g):
    """Oracle: enumerate cosets of <g> directly."""
    sub = group.subgroup_generated([g])
    cosets = []
    seen = set()
    for x in group.elements():
        if x in seen:
            continue
        coset = frozenset(group.op(x, s) for s in sub)
        seen |= coset
        cosets.append(coset)
    return cosets


def test_group_basics():
    g = FiniteAbelianGroup((4, 2))
    assert len(g) == 8
    assert len(g.elements()) == 8
    a, b = g.generators()
    assert g.op(a, a) == (2, 0)
    assert g.order_of(a) == 4 and g.order_of(b) == 2
    assert g.order_of(g.identity) == 1
    assert g.inverse((3, 1)) == (1, 1)
    assert g.element_to_word((3, 1)) == "a^3.b"
    assert g.word_to_element("a^3.b") == (3, 1)
    assert g.word_to_element("e") == (0, 0)
    assert g.word_to_element("(3,1)") == (3, 1)


def test_quotient_z4_by_square():
    g = FiniteAbelianGroup((4,))
    q, proj = quotient_by(g, (2,))
    assert len(q) == 2
    assert proj((1,)) != q.identity
    assert proj((2,)) == q.identity


def test_quotient_by_identity():
    g = FiniteAbelianGroup((4,))
    q, proj = quotient_by(g, (0,))
    assert len(q) == 4
    # still a bijective homomorphism
    images = {proj(x) for x in g.elements()}
    assert len(images) == 4


def test_quotient_klein_by_diagonal_matches_brute_force():
    g = FiniteAbelianGroup((2, 2))
    q, proj = quotient_by(g, (1, 1))
    assert len(q) == 2
    cosets = brute_force_cosets(g, (1, 1))
    assert len(cosets) == 2
    # proj constant on each brute-force coset, distinct across cosets
    images = []
    for coset in cosets:
        vals = {proj(x) for x in coset}
        assert len(vals) == 1
        images.append(vals.pop())
    assert len(set(images)) == 2
    assert proj((1, 0)) == proj((0, 1))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3), st.data())
def test_quotient_is_homomorphism(orders, data):
    g = FiniteAbelianGroup(tuple(orders))
    elems = g.elements()
    x = data.draw(st.sampled_from(elems))
    q, proj = quotient_by(g, x)
    assert len(g) == len(q) * g.order_of(x)
    y = data.draw(st.sampled_from(elems))
    z = data.draw(st.sampled_from(elems))
    assert proj(g.op(y, z)) == q.op(proj(y), proj(z))
    # kernel is exactly <g>
    kernel = [e for e in elems if proj(e) == q.identity]
    assert sorted(kernel) == g.subgroup_generated([x])


def beta_m2_4():
    """Bicharacter of the Sylvester-matrix Z2 x Z2 division grading."""
    g = FiniteAbelianGroup((2, 2))
    m1 = Cyclo.rational(-1)
    one = Cyclo.one()
    return Bicharacter(g, 2, [[one, m1], [m1, one]])


def test_bichar_eval_m2_4():
    beta = beta_m2_4()
    a, b = beta.group.generators()
    assert beta.eval(a, b) == Cyclo.rational(-1)
    assert beta.eval(beta.group.identity, b).is_one()
    assert beta.eval(beta.group.op(a, b), b) == Cyclo.rational(-1)
    with pytest.raises(ValueError):
        beta.eval((2, 0), b)


def test_bichar_pauli3_clock_shift_oracle():
    """The Z3 x Z3 Pauli bicharacter value on the generators is a cube root.

    Oracle: multiply explicit 3x3 clock and shift matrices over Q(zeta_3)
    and read off XY = zeta3 * YX.
    """
    z3 = Cyclo.zeta(3)
    zero, one = Cyclo.zero(), Cyclo.one()
    X = [[one, zero, zero], [zero, z3, zero], [zero, zero, z3 * z3]]
    Y = [[zero, zero, one], [one, zero, zero], [zero, one, zero]]

    def matmul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(3)), zero) for j in range(3)]
                for i in range(3)]

    XY = matmul(X, Y)
    YX = matmul(Y, X)
    scaled = [[z3 * YX[i][j] for j in range(3)] for i in range(3)]
    assert XY == scaled

    g = FiniteAbelianGroup((3, 3), ("x", "y"))
    beta = Bicharacter(g, 3, [[one, z3], [z3.inv(), one]])
    assert beta.eval(g.generator(0), g.generator(1)) == z3


def test_bichar_eval_memo_agrees_with_the_table_and_still_checks():
    """Memoized values equal the multiplicative extension of the generator
    table, repeat as the same object, and bad elements are still refused
    after every pair is cached."""
    z3 = Cyclo.zeta(3)
    one = Cyclo.one()
    g = FiniteAbelianGroup((3, 3), ("x", "y"))
    beta = Bicharacter(g, 3, [[one, z3], [z3.inv(), one]])
    for x, y in itertools.product(g.elements(), repeat=2):
        value = beta.eval(x, y)
        assert value == z3 ** ((x[0] * y[1] - x[1] * y[0]) % 3)
        assert beta.eval(x, y) is value
    for bad in ((3, 0), [1, 0], (1,)):
        with pytest.raises(ValueError):
            beta.eval(bad, g.generator(1))
        with pytest.raises(ValueError):
            beta.eval(g.generator(0), bad)


def test_bichar_table_keeps_its_entries_given_at_any_order():
    """Each entry is found among the N powers of zeta_N however it was
    given, so the table, and eval on generators, keep the given values."""
    g = FiniteAbelianGroup((3, 6))
    one = Cyclo.one()
    z3, z6 = Cyclo.zeta(3), Cyclo.zeta(6)
    given = [[one, z3], [z3.inv(), -one]]
    beta = Bicharacter(g, 12, [[one, z3.lift(12)], [z6 ** 4, Cyclo.rational(-1)]])
    assert beta.table == tuple(tuple(row) for row in given)
    assert beta.table_exponents == ((0, 4), (8, 6))
    a, b = g.generators()
    assert [beta.eval(a, b), beta.eval(b, a), beta.eval(b, b)] == [z3, z3.inv(), -one]


def test_bichar_table_validation():
    g = FiniteAbelianGroup((2, 2))
    one = Cyclo.one()
    i = Cyclo.zeta(4)
    # i has order 4, inconsistent with Z2 factors
    with pytest.raises(ValueError):
        Bicharacter(g, 4, [[one, i], [-i, one]])
    # not skew-symmetric: beta(a,b) = -1 but beta(b,a) = 1
    with pytest.raises(ValueError):
        Bicharacter(g, 2, [[one, -one], [one, one]])
    g4 = FiniteAbelianGroup((4, 4))
    z8 = Cyclo.zeta(8)
    for order, table, reason in (
            (4, [[one, 2], [Cyclo.rational(1) / 2, one]], "not an N-th root of unity"),
            (4, [[one, z8], [z8.inv(), one]], "not an N-th root of unity"),
            (4, [[one, i], [i, one]], "not skew-symmetric"),
            (4, [[i, one], [one, one]], "not skew-symmetric"),
            (8, [[one, z8], [z8.inv(), one]], "inconsistent with factor orders"),
            (4, [[one, 1.0], [one, one]], "not an N-th root of unity"),
            (0, [[one, one], [one, one]], "positive integer")):
        with pytest.raises(ValueError, match=reason):
            Bicharacter(g4, order, table)


def test_radical_trivial_bichar_is_whole_group():
    g = FiniteAbelianGroup((2, 2))
    beta = Bicharacter.trivial(g)
    assert beta.radical() == g.elements()


def test_radical_m2_4_trivial():
    assert beta_m2_4().radical() == [(0, 0)]


def test_radical_c2_tensor_block():
    """gamma_1 on Z2^3: trivial on the first factor, beta_1 on the last two."""
    c2 = FiniteAbelianGroup((2,), ("a0",))
    gamma = bichar_tensor(Bicharacter.trivial(c2), beta_m2_4())
    rad = gamma.radical()
    assert rad == [(0, 0, 0), (1, 0, 0)]
    assert rad != [gamma.group.identity]
    assert beta_m2_4().radical() == [beta_m2_4().group.identity]


def test_bichar_tensor_values():
    beta2 = bichar_tensor(beta_m2_4(), beta_m2_4())
    g = beta2.group
    assert g.orders == (2, 2, 2, 2)
    m1 = Cyclo.rational(-1)
    for i, j in itertools.product(range(4), repeat=2):
        expected = m1 if (i, j) in ((0, 1), (1, 0), (2, 3), (3, 2)) else Cyclo.one()
        assert beta2.eval(g.generator(i), g.generator(j)) == expected


def test_bichar_tensor_mixed_orders():
    g3 = FiniteAbelianGroup((3,), ("u",))
    z3 = Cyclo.zeta(3)
    b3 = Bicharacter(g3, 3, [[Cyclo.one()]])
    # order-3 values tensored with order-2 values lift to order 6
    mixed = bichar_tensor(b3, beta_m2_4())
    assert mixed.order == 6


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_bichar_is_multiplicative_and_skew(data):
    beta = data.draw(st.sampled_from([
        beta_m2_4(),
        bichar_tensor(Bicharacter.trivial(FiniteAbelianGroup((2,), ("a0",))), beta_m2_4()),
    ]))
    elems = beta.group.elements()
    g = data.draw(st.sampled_from(elems))
    h = data.draw(st.sampled_from(elems))
    k = data.draw(st.sampled_from(elems))
    assert beta.eval(g, beta.group.op(h, k)) == beta.eval(g, h) * beta.eval(g, k)
    assert (beta.eval(h, g) * beta.eval(g, h)).is_one()


def test_radical_closed_under_op():
    beta = bichar_tensor(Bicharacter.trivial(FiniteAbelianGroup((2,), ("a0",))), beta_m2_4())
    rad = beta.radical()
    for x in rad:
        for y in rad:
            assert beta.group.op(x, y) in rad
    assert beta.group.identity in rad
