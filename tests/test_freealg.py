import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gradedpi.algebras import (
    build_catalog,
    build_twisted_group_algebra,
    detect_complex_bicharacter,
    detect_regular,
    tensor,
)
from gradedpi.errors import SpecParseError
from gradedpi.freealg import (
    FreePoly,
    commutator_poly,
    evaluate,
    hall_poly,
    lift_poly,
    monomial_poly,
    multilinearize,
    named_poly,
    okhitin_central_poly,
    padded_standard_poly,
    parse_poly,
    project_poly,
    reorder_scalar,
    standard_poly,
    transfer_phi,
)
from gradedpi.groups import Bicharacter, FiniteAbelianGroup, quotient_by
from gradedpi.scalars import Cyclo


TRIV = FiniteAbelianGroup(())


def test_standard_4_has_24_signed_monomials():
    s4 = standard_poly(4)
    assert len(s4.terms) == 24
    assert all(c == Cyclo.rational(1) or c == Cyclo.rational(-1) for c in s4.terms.values())
    assert s4.is_multilinear()


def test_equal_coefficients_at_two_orders_make_one_set_element():
    mono = ((0, ()),)
    at4 = FreePoly(TRIV, 4, {mono: Cyclo.zeta(4)})
    at12 = FreePoly(TRIV, 12, {mono: Cyclo.zeta(12, 3)})
    assert at4 == at12
    assert hash(at4) == hash(at12)
    assert len({at4, at12}) == 1


Z33 = FiniteAbelianGroup((3, 3), ("x", "y"))


def test_freepoly_checks_each_distinct_letter_once():
    """A construction checks each distinct letter's degree once, however
    many terms it occurs in; a letter given with a list degree, which cannot
    be kept, is checked where it occurs and made canonical all the same."""
    checked = []
    group = FiniteAbelianGroup((3, 3), ("x", "y"))
    check = group.check

    def counted(g):
        checked.append(g)
        return check(g)

    group.check = counted
    a, b, c = (1, (1, 0)), (2, (0, 1)), (3, (1, 1))
    f = FreePoly(group, 3, [((a, b, c), 1), ((c, b, a), 2), ((b, a, c), -1), ((a, b, c), 1)])
    assert sorted(checked) == sorted([a[1], b[1], c[1]])
    assert list(f.terms) == [(a, b, c), (c, b, a), (b, a, c)]
    assert f.terms[(a, b, c)] == Cyclo.rational(2)
    del checked[:]
    g = FreePoly(group, 3, [(((1, [1, 0]), b), 1), ((b, (1, [1, 0])), 1)])
    assert len(checked) == 3  # the list degree at each occurrence, b once
    assert list(g.terms) == [(a, b), (b, a)]
    assert all(type(d) is tuple for mono in g.terms for _, d in mono)
    # an index that is not an int, and an equal key given twice, are canonical
    h = FreePoly(group, 3, [((("1", (1, 0)), b), 1), (((1, (1, 0)), b), 1)])
    assert list(h.terms.items()) == [((a, b), Cyclo.rational(2))]


@pytest.mark.parametrize("bad", [
    pytest.param((4, (3, 0)), id="residue-at-order"),
    pytest.param((4, (-1, 2)), id="negative-residue"),
    pytest.param((4, (5, 7)), id="outside-the-group"),
    pytest.param((4, (1,)), id="rank-too-small"),
    pytest.param((4, (1, 0, 0)), id="rank-too-large"),
    pytest.param((4, [0, 3]), id="list-degree-out-of-range"),
    pytest.param((4, [1]), id="list-degree-wrong-rank"),
])
@pytest.mark.parametrize("where", ["first", "later", "later-again"])
def test_freepoly_rejects_a_bad_letter_in_any_term(bad, where):
    """A letter whose degree is not an element of the group is refused
    (ValueError), whether it is in the first term, first appears in a later
    term after good letters were kept, or is met again; a dict of terms is
    refused the same way as pairs."""
    good = ((1, (1, 0)), (2, (0, 1)))
    if where == "first":
        terms = [((bad,) + good, 1), (good, 1)]
    elif where == "later":
        terms = [(good, 1), (good[::-1], 2), (good + (bad,), 1)]
    else:
        terms = [(good, 1), (good + ((4, (2, 2)),), 1), (good + (bad,), 1),
                 ((bad,) + good, 1)]
    with pytest.raises(ValueError):
        FreePoly(Z33, 3, terms)
    if isinstance(bad[1], tuple):
        with pytest.raises(ValueError):
            FreePoly(Z33, 3, dict(terms))


def test_freepoly_sums_repeated_monomials_of_pairs():
    """Pairs with a repeated monomial are summed, a sum that cancels is
    dropped, a zero coefficient is skipped (it places no monomial), and a
    dict gives the same polynomial as its pairs."""
    x, y, z = ((1, ()),), ((2, ()),), ((3, ()),)
    q = Cyclo.rational
    p = FreePoly(TRIV, 1, [(z, 0), (x, 2), (y, 1), (x, 3), (z, 4), (y, -1)])
    assert p.terms == {x: q(5), z: q(4)}
    assert list(p.terms) == [x, z]
    assert FreePoly(TRIV, 1, [(x, 1), (x, -1)]).is_zero()
    as_dict = {y: q(-1), x: q(2), z: q(0)}
    for built in (FreePoly(TRIV, 1, as_dict), FreePoly(TRIV, 1, as_dict.items())):
        assert built.terms == {y: q(-1), x: q(2)} and list(built.terms) == [y, x]


def test_commutator():
    c = commutator_poly()
    assert len(c.terms) == 2
    assert c.is_multilinear()


def expand_hall_oracle():
    """Independent expansion of [[x1,x2]^2, x3] by direct term bookkeeping."""
    # [x1,x2] = 12 - 21; square: 1212 - 1221 - 2112 + 2121; bracket with 3
    words = {(1, 2, 1, 2): 1, (1, 2, 2, 1): -1, (2, 1, 1, 2): -1, (2, 1, 2, 1): 1}
    out = {}
    for w, c in words.items():
        out[w + (3,)] = out.get(w + (3,), 0) + c
        out[(3,) + w] = out.get((3,) + w, 0) - c
    return {w: c for w, c in out.items() if c}


def test_hall_matches_oracle():
    h = hall_poly()
    oracle = expand_hall_oracle()
    got = {tuple(i for i, _ in mono): c for mono, c in h.terms.items()}
    assert len(h.terms) == len(oracle) == 8
    for w, c in oracle.items():
        assert got[w] == Cyclo.rational(c)


def test_named_poly_dispatch():
    assert named_poly("standard_3") == standard_poly(3)
    assert named_poly("hall") == hall_poly()
    assert named_poly("commutator") == commutator_poly()
    assert named_poly("okhitin_central") == okhitin_central_poly()
    assert named_poly("padded_standard_4") == padded_standard_poly(4)
    with pytest.raises(ValueError):
        named_poly("nope")


# -- evaluation ------------------------------------------------------------------


def test_evaluate_commutator_on_elementary_diagonal():
    alg = build_catalog("m2-elem")
    g = alg.group
    c = commutator_poly(g, degrees=[(0,), (0,)])
    e11 = alg.basis_vector(alg.labels.index("E11"))
    e22 = alg.basis_vector(alg.labels.index("E22"))
    val = evaluate(c, {(1, (0,)): e11, (2, (0,)): e22}, alg)
    assert val == {}


def test_evaluate_off_diagonal_commutator_m2_4():
    """x1a*x2a - x2a*x1a at (A, B) in the Z2-coarsened Sylvester grading is 2C."""
    alg = build_catalog("m2-2")
    g = alg.group
    a_deg = next(d for d in alg.support if d != g.identity)
    idx_a = alg.labels.index("A")
    idx_b = alg.labels.index("B")
    idx_c = alg.labels.index("C")
    f = commutator_poly(g, degrees=[a_deg, a_deg])
    val = evaluate(f, {(1, a_deg): alg.basis_vector(idx_a), (2, a_deg): alg.basis_vector(idx_b)}, alg)
    assert val == {idx_c: Cyclo.rational(2)}


def test_evaluate_rejects_inadmissible():
    alg = build_catalog("m2-elem")
    f = commutator_poly(alg.group, degrees=[(1,), (1,)])
    e11 = alg.basis_vector(0)
    with pytest.raises(ValueError):
        evaluate(f, {(1, (1,)): e11, (2, (1,)): alg.basis_vector(2)}, alg)


def test_evaluate_rejects_unassigned():
    alg = build_catalog("m2-elem")
    f = commutator_poly(alg.group, degrees=[(0,), (0,)])
    with pytest.raises(ValueError):
        evaluate(f, {(1, (0,)): alg.basis_vector(0)}, alg)


# -- multilinearization ------------------------------------------------------------


def test_multilinearize_square():
    g = FiniteAbelianGroup((2,))
    x = monomial_poly(g, 1, [(1, (1,)), (1, (1,))])  # x_{1a}^2
    out = multilinearize(x)
    assert len(out) == 1
    lin = out[0]
    expected = FreePoly(g, 1, {
        ((1, (1,)), (2, (1,))): 1,
        ((2, (1,)), (1, (1,))): 1,
    })
    assert lin == expected


def test_multilinearize_already_multilinear():
    f = standard_poly(3)
    assert multilinearize(f) == [f]


def test_multilinearize_mixed_cubic():
    g = FiniteAbelianGroup((4,))
    h = (1,)
    f = FreePoly(g, 1, {
        ((1, h), (1, h), (2, h)): 1,
        ((2, h), (2, h), (1, h)): 1,
    })
    out = multilinearize(f)
    assert len(out) == 2
    assert all(p.is_multilinear() for p in out)
    assert sum(len(p.terms) for p in out) == 4


def test_polarization_recombines_to_multiple():
    """Substituting the same value into the linearization recovers a rational
    multiple of the original evaluation."""
    alg = build_catalog("m2-2")
    a_deg = (1,)
    x_sq = monomial_poly(alg.group, 1, [(1, a_deg), (1, a_deg)])
    (lin,) = multilinearize(x_sq)
    idx_a = alg.labels.index("A")
    v = alg.basis_vector(idx_a)
    direct = evaluate(x_sq, {(1, a_deg): v}, alg)
    recombined = evaluate(lin, {(1, a_deg): v, (2, a_deg): v}, alg)
    assert recombined == {k: Cyclo.rational(2) * c for k, c in direct.items()}


# -- reorder scalar and transfer ---------------------------------------------------


def beta_m2_4():
    g = FiniteAbelianGroup((2, 2), ("a", "b"))
    m1 = Cyclo.rational(-1)
    one = Cyclo.one()
    return Bicharacter(g, 2, [[one, m1], [m1, one]])


def test_reorder_scalar_identity_perm():
    beta = beta_m2_4()
    assert reorder_scalar((0, 1), [(1, 0), (0, 1)], beta).is_one()


def test_reorder_scalar_transposition():
    beta = beta_m2_4()
    lam = reorder_scalar((1, 0), [(1, 0), (0, 1)], beta)
    assert lam == Cyclo.rational(-1)


def _parent_reorder_scalar(perm, degrees, beta):
    """reorder_scalar as a chain of Cyclo products of the generator-table
    extension, as it was computed before it summed exponents."""
    n = len(perm)
    pos = [0] * n
    for k, v in enumerate(perm):
        pos[v] = k
    out = Cyclo.one()
    for u in range(n):
        for v in range(u + 1, n):
            if pos[u] > pos[v]:
                for i, gi in enumerate(degrees[u]):
                    for j, hj in enumerate(degrees[v]):
                        if gi and hj:
                            out = out * beta.table[i][j] ** (gi * hj)
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reorder_scalar_matches_the_cyclo_product(n):
    """The exponent sum gives the product of table powers over the inverted
    pairs, for every permutation of length <= 5 of sampled pauli-n degree
    tuples, and is one of beta's shared powers."""
    beta, _ = detect_complex_bicharacter(build_catalog("pauli", n=n))
    elements = beta.group.elements()
    rng = random.Random(n)
    for length in range(1, 6):
        for _ in range(4):
            degrees = [rng.choice(elements) for _ in range(length)]
            for perm in itertools.permutations(range(length)):
                lam = reorder_scalar(perm, degrees, beta)
                assert lam == _parent_reorder_scalar(perm, degrees, beta), (degrees, perm)
                assert any(lam is power for power in beta.powers)


def eval_word_in_algebra(alg, idxs):
    acc = None
    for i in idxs:
        acc = alg.basis_vector(i) if acc is None else alg.mul_vec(acc, alg.basis_vector(i))
    return acc


def test_reorder_scalar_against_twisted_group_algebra():
    """r_1 r_2 r_3 = lam * r_perm(1) r_perm(2) r_perm(3) holds in P(beta)_R."""
    g = FiniteAbelianGroup((4, 4), ("x", "y"))
    eps = Cyclo.zeta(4)
    beta = Bicharacter(g, 4, [[Cyclo.one(), eps], [eps.inv(), Cyclo.one()]])
    alg = build_twisted_group_algebra(beta, name="p4")
    rep = {}
    for i, lab in enumerate(alg.labels):
        if not lab.startswith("i*"):
            rep[alg.degrees[i]] = i
    degrees = [(1, 0), (0, 1), (1, 1)]
    for perm in itertools.permutations(range(3)):
        lam = reorder_scalar(perm, degrees, beta)
        lhs = eval_word_in_algebra(alg, [rep[d] for d in degrees])
        rhs = eval_word_in_algebra(alg, [rep[degrees[k]] for k in perm])
        # lhs = lam * rhs, with the i-part of lam realized by the central J
        j_vec = alg.basis_vector(alg.labels.index("i*u[e]"))
        lam_re, lam_im = lam.lift(4).real_part(), lam.lift(4).imag_over_i()
        expected = {}
        for k, c in rhs.items():
            expected[k] = expected.get(k, Cyclo.zero()) + lam_re * c
        for k, c in alg.mul_vec(j_vec, rhs).items():
            expected[k] = expected.get(k, Cyclo.zero()) + lam_im * c
        expected = {k: c for k, c in expected.items() if not c.is_zero()}
        assert lhs == expected, perm


def test_transfer_phi_commutator():
    beta = beta_m2_4()
    g = FiniteAbelianGroup((2,), ("g",))
    f = commutator_poly(g, degrees=[(1,), (1,)])
    h = [(1, 0), (0, 1)]
    phi = transfer_phi(f, h, beta)
    # x1 x2 - beta(h1,h2) x2 x1 = x1 x2 + x2 x1 in the product degrees
    l1 = (1, (1, 1, 0))
    l2 = (2, (1, 0, 1))
    expected = FreePoly(phi.group, phi.order, {(l1, l2): 1, (l2, l1): 1})
    assert phi == expected


def test_transfer_phi_identity_tuple():
    beta = beta_m2_4()
    g = FiniteAbelianGroup((2,), ("g",))
    f = commutator_poly(g, degrees=[(1,), (1,)])
    h = [(0, 0), (0, 0)]
    phi = transfer_phi(f, h, beta)
    assert len(phi.terms) == 2
    assert set(phi.terms.values()) == {Cyclo.rational(1), Cyclo.rational(-1)}


def test_transfer_phi_is_bijective_roundtrip():
    beta = beta_m2_4()
    g = FiniteAbelianGroup((2,), ("g",))
    f = standard_poly(3, g, degrees=[(1,)] * 3)
    h = [(1, 0), (1, 1), (0, 1)]
    phi = transfer_phi(f, h, beta)
    # invert: strip the H-part of each degree and divide by the same scalars
    back = {}
    letters = sorted(phi.letters())
    pos_of = {lt: k for k, lt in enumerate(letters)}
    for mono, c in phi.terms.items():
        perm = tuple(pos_of[lt] for lt in mono)
        lam = reorder_scalar(perm, h, beta)
        stripped = tuple((i, d[:1]) for i, d in mono)
        back[stripped] = c / lam
    assert FreePoly(g, phi.order, back) == f


def test_transfer_phi_factorization_exact():
    """phi_h(f)(a tensor r) = f(a) tensor r_1...r_n on all basis substitutions."""
    a = build_catalog("m2-elem")
    r = build_catalog("m2-4")
    beta, _ = detect_regular(r)
    t = tensor(a, r)
    g = a.group
    f = commutator_poly(g, degrees=[(1,), (0,)]) + standard_poly(
        2, g, degrees=[(1,), (0,)])
    h = [(1, 0), (1, 1)]
    phi = transfer_phi(f, h, beta)
    letters_f = f.letters()
    for ai in [a.component((1,))[0], a.component((1,))[1]]:
        for aj in a.component((0,)):
            for ri in [r.component(h[0])[0]]:
                for rj in [r.component(h[1])[0]]:
                    subs_t = {
                        (1, (1,) + h[0]): t.basis_vector(ai * r.dim + ri),
                        (2, (0,) + h[1]): t.basis_vector(aj * r.dim + rj),
                    }
                    lhs = evaluate(phi, subs_t, t)
                    fa = evaluate(f, {(1, (1,)): a.basis_vector(ai),
                                      (2, (0,)): a.basis_vector(aj)}, a)
                    rr = r.mul_vec(r.basis_vector(ri), r.basis_vector(rj))
                    rhs = {}
                    for k1, c1 in fa.items():
                        for k2, c2 in rr.items():
                            rhs[k1 * r.dim + k2] = c1 * c2
                    rhs = {k: c for k, c in rhs.items() if not c.is_zero()}
                    assert lhs == rhs


# -- quotient maps ----------------------------------------------------------------


def test_project_then_lift_roundtrip():
    g = FiniteAbelianGroup((4,), ("a",))
    q, proj = quotient_by(g, (2,))
    f = FreePoly(g, 1, {
        ((1, (1,)), (2, (3,))): 1,
        ((2, (3,)), (1, (1,))): -1,
    })
    pf = project_poly(f, q, proj)
    assert pf.group is q
    # both letters land in the nontrivial class
    for mono in pf.terms:
        for _, d in mono:
            assert d != q.identity
    choice = {(1, proj((1,))): (1,), (2, proj((3,))): (3,)}
    back = lift_poly(pf, g, choice)
    assert back == f


def test_lift_missing_choice_raises():
    g = FiniteAbelianGroup((4,), ("a",))
    q, proj = quotient_by(g, (2,))
    f = FreePoly(q, 1, {((1, proj((1,))),): 1})
    with pytest.raises(ValueError):
        lift_poly(f, g, {})


# -- parsing -----------------------------------------------------------------------


def test_parse_poly_roundtrip():
    g = FiniteAbelianGroup((2, 2), ("a", "b"))
    f = parse_poly("2*x1:a*x2:b - x2:b*x1:a", g, 4)
    assert len(f.terms) == 2
    assert f.terms[((1, (1, 0)), (2, (0, 1)))] == Cyclo.rational(2)
    assert f.terms[((2, (0, 1)), (1, (1, 0)))] == Cyclo.rational(-1)
    assert parse_poly(str(f), g, 4) == f


def test_parse_poly_cyclo_coeff_and_tuple_degrees():
    g = FiniteAbelianGroup((4,), ("a",))
    f = parse_poly("(1 + z^2)*x1:(1)*x2:a^3 + x2:a^3*x1:a", g, 8)
    coeff = Cyclo.one() + Cyclo.zeta(8, 2)
    assert f.terms[((1, (1,)), (2, (3,)))] == coeff


def test_parse_poly_errors():
    g = FiniteAbelianGroup((2,))
    with pytest.raises(SpecParseError):
        parse_poly("", g, 2)
    with pytest.raises(SpecParseError):
        parse_poly("x1:zz", g, 2)
    with pytest.raises(SpecParseError):
        parse_poly("(x1:a", g, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.data())
def test_multilinearize_outputs_multilinear(n, data):
    g = FiniteAbelianGroup((2,), ("a",))
    monos = data.draw(st.lists(
        st.lists(st.tuples(st.integers(1, 2), st.sampled_from([(0,), (1,)])),
                 min_size=1, max_size=n),
        min_size=1, max_size=3))
    f = FreePoly(g, 1, {tuple(m): 1 for m in monos})
    for p in multilinearize(f):
        assert p.is_multilinear()


def test_letters_returns_a_fresh_list_each_call():
    g = FiniteAbelianGroup((2,))
    f = commutator_poly(g, degrees=[(1,), (0,)])
    first = f.letters()
    assert first == [(1, (1,)), (2, (0,))]
    first.append((9, (0,)))
    first.reverse()
    assert f.letters() == [(1, (1,)), (2, (0,))]


def test_evaluate_drops_explicit_zero_coordinates():
    """A raw coordinate dict with an explicit zero gives the value of the
    same dict without it, and no value holds a zero entry."""
    alg = build_catalog("m2-elem")
    g = alg.group
    e11, e22, e12, e21 = range(4)
    zero, one = Cyclo.zero(), Cyclo.one()
    f = monomial_poly(g, 1, [(1, (0,)), (2, (1,))]) + monomial_poly(g, 1, [(2, (1,))])
    with_zero = {(1, (0,)): {e11: one, e22: zero}, (2, (1,)): {e12: one, e21: zero}}
    without = {(1, (0,)): {e11: one}, (2, (1,)): {e12: one}}
    val = evaluate(f, with_zero, alg)
    assert val == evaluate(f, without, alg) == {e12: Cyclo.rational(2)}
    assert all(not c.is_zero() for c in val.values())
    # a lone zero coordinate evaluates to zero
    assert evaluate(f, {(1, (0,)): {e22: zero}, (2, (1,)): {e21: zero}}, alg) == {}
