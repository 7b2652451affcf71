import functools
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedpi import pitool
from gradedpi.algebras import (
    GradedAlgebra,
    build_catalog,
    catalog_ids,
    center,
    center_echelon,
    center_rows,
    coarsen_by_quotient,
    commutation_bicharacter,
    detect_complex_bicharacter,
    detect_regular,
    tensor,
)
from gradedpi.cli import resolve_basis
from gradedpi.errors import PreconditionError, ResourceRefusal
from gradedpi.freealg import (
    FreePoly,
    commutator_poly,
    evaluate,
    hall_poly,
    monomial_poly,
    monomial_values,
    multilinearize,
    parse_poly,
    project_poly,
    standard_poly,
    transfer_phi,
)
from gradedpi.groups import FiniteAbelianGroup, quotient_by
from gradedpi.pitool import (
    GeneratorSet,
    MultidegreeBasis,
    _check_multidegree,
    bp_basis,
    check_pauli_multidegree,
    dv_basis,
    family_pauli,
    family_regular,
    is_central,
    is_identity,
    lift_basis,
    multilinear_central_space,
    multilinear_identity_space,
    pauli_reduce,
    replay_certificate,
    tideal_consequences,
    transfer_basis,
    tspace_consequences,
    verify_basis,
)
from gradedpi.scalars import Cyclo, Echelon, kernel_over_real_subfield


def trivial_field_algebra():
    """R with the trivial grading, the 1-dimensional building block."""
    return GradedAlgebra(FiniteAbelianGroup(()), 1, ["1"], [()],
                         {(0, 0): {0: Cyclo.one()}}, {0: Cyclo.one()},
                         name="r-triv")


# -- membership ----------------------------------------------------------------


def test_s4_is_identity_of_m2r():
    m2 = build_catalog("m2r-triv")
    ok, _ = is_identity(m2, standard_poly(4))
    assert ok
    ok, w = is_identity(m2, standard_poly(3))
    assert not ok and w is not None


def test_hall_is_identity_of_quaternions():
    h = build_catalog("h-triv")
    ok, _ = is_identity(h, hall_poly())
    assert ok


def test_mixed_commutator_not_identity_m2_4():
    alg = build_catalog("m2-4")
    g = alg.group
    f = commutator_poly(g, degrees=[(1, 0), (0, 1)])
    ok, witness = is_identity(alg, f)
    assert not ok
    labels = set(witness.values())
    assert labels == {"A", "B"}


def test_is_central_classification_m2_4():
    alg = build_catalog("m2-4")
    g = alg.group
    x_e = monomial_poly(g, 1, [(1, (0, 0))])
    assert is_central(alg, x_e)[0] == "proper-central"
    x_a = monomial_poly(g, 1, [(1, (1, 0))])
    verdict, witness = is_central(alg, x_a)
    assert verdict == "neither"
    assert witness[1] == "B"
    comm_ab = commutator_poly(g, degrees=[(1, 0), (0, 1)])
    skew = parse_poly("x1:a*x2:b + x2:b*x1:a", g, 2)
    assert is_central(alg, skew)[0] == "identity"


def test_okhitin_poly_proper_central_m2r():
    from gradedpi.freealg import okhitin_central_poly

    m2 = build_catalog("m2r-triv")
    assert is_central(m2, okhitin_central_poly())[0] == "proper-central"


# -- multilinear spaces ----------------------------------------------------------


def test_identity_space_elementary_ee():
    elem = build_catalog("m2-elem")
    sp = multilinear_identity_space(elem, [(0,), (0,)])
    assert sp.dim == 1
    (poly,) = sp.basis_polys()
    scaled = {m: c for m, c in poly.terms.items()}
    assert len(scaled) == 2


def test_identity_space_elementary_aaa_contains_reversal():
    elem = build_catalog("m2-elem")
    sp = multilinear_identity_space(elem, [(1,), (1,), (1,)])
    f = parse_poly("x1:a*x2:a*x3:a - x3:a*x2:a*x1:a", elem.group, 2)
    assert sp.contains(pitool._sparse_vector(sp.pg, f.terms.items()))


def test_single_variable_space_trivial_on_support():
    alg = build_catalog("m2-4")
    for g in alg.support:
        sp = multilinear_identity_space(alg, [g])
        assert sp.dim == 0


def test_central_space_m2_4_aa_full():
    alg = build_catalog("m2-4")
    sp = multilinear_central_space(alg, [(1, 0), (1, 0)])
    assert sp.dim == 2


def test_central_space_pauli_offsupport_degree_equals_identity_space():
    p3 = build_catalog("pauli", n=3)
    degs = [(1, 0), (0, 1)]  # product (1,1) != e
    zc = multilinear_central_space(p3, degs)
    zi = multilinear_identity_space(p3, degs)
    assert zc.dim == zi.dim


def commutator_central_basis(algebra, degrees):
    """Reference central space: the real kernel of the commutators
    [value, b] of the monomial values with every basis element b."""
    pg = MultidegreeBasis(algebra.group, degrees)
    zero = Cyclo.zero()
    rows = []
    for choice in pitool._substitution_tuples(algebra, pg.letters) or ():
        assign = {lt: algebra.basis_vector(i) for lt, i in zip(pg.letters, choice)}
        values = list(monomial_values(pg.monomials, assign, algebra))
        for j in range(algebra.dim):
            b = algebra.basis_vector(j)
            comms = []
            for v in values:
                diff = dict(algebra.mul_vec(v, b))
                for k, c in algebra.mul_vec(b, v).items():
                    diff[k] = diff.get(k, zero) - c
                comms.append({k: c for k, c in diff.items() if not c.is_zero()})
            for k in sorted({k for d in comms for k in d}):
                rows.append([d.get(k, zero) for d in comms])
    rows = [r for r in rows if any(not c.is_zero() for c in r)]
    ech = Echelon(pg.ncols)
    for v in (kernel_over_real_subfield(rows) if rows
              else [{k: Cyclo.one()} for k in range(pg.ncols)]):
        ech.add(v)
    return ech.basis()


@pytest.mark.parametrize("name, params", [
    ("e-series", {"eps": -1, "n": 4}), ("m2-8", {}), ("m2c-z4", {}), ("h4", {}),
    ("pauli", {"n": 3}), ("m2-elem", {}), ("c2@m2-4", {}),
], ids=["e-series(-1,4)", "m2-8", "m2c-z4", "h4", "pauli-3", "m2-elem", "c2@m2-4"])
def test_central_space_matches_commutator_reference(name, params):
    """The central space taken modulo the center's echelon form equals the
    commutator-row definition at every multidegree of length <= 2."""
    alg = build_catalog(name, **params)
    for n in (1, 2):
        for degs in itertools.product(alg.support, repeat=n):
            assert multilinear_central_space(alg, degs).basis() == \
                commutator_central_basis(alg, degs), degs


# -- word-keyed evaluation against per-substitution references ---------------------

_EVALUATION_CASES = [(name, {}) for name in catalog_ids()
                     if name not in ("pauli", "d-cyclic", "d-pair", "e-series")] + [
    ("pauli", {"n": 3}), ("e-series", {"eps": -1, "n": 4}),
    ("d-cyclic", {"m": 3, "eps": 1}), ("d-pair", {"k": 2, "l": 2, "mu": -1, "nu": -1}),
]


def _assignments(algebra, letters):
    """Each representative basis substitution of letters, as (choice, assign)
    in itertools.product order, assign mapping letters to basis vectors."""
    pools = [algebra.substitution_reps(d) for _, d in letters]
    for choice in itertools.product(*pools):
        yield choice, {lt: algebra.basis_vector(i) for lt, i in zip(letters, choice)}


_LONG_EVALUATION_CASES = ("m2-4", "m2-8", "e-series")


@pytest.mark.parametrize("name, params", _EVALUATION_CASES,
                         ids=["%s%s" % (name, "".join("-%s" % v for v in params.values()))
                              for name, params in _EVALUATION_CASES])
def test_word_evaluation_matches_evaluate(name, params):
    """One memo of basis-index words per multidegree gives the values that
    evaluate gives substitution by substitution, and _component_rows gives
    the rows of a per-substitution loop, each value reduced modulo the whole
    center when central, at every multidegree of length <= 3 (<= 4 on m2-4,
    m2-8 and e-series(-1,4), whose components meet the center in every way:
    see test_central_components_of_every_kind_are_checked)."""
    alg = build_catalog(name, **params)
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    zero = Cyclo.zero()
    for n in range(1, 5 if name in _LONG_EVALUATION_CASES else 4):
        for degs in itertools.product(alg.support, repeat=n):
            pg = MultidegreeBasis(alg.group, degs)
            memo = {}
            rows = {False: [], True: []}
            positions = pitool._letter_positions(pg.monomials, pg.letters)
            for choice, assign in _assignments(alg, pg.letters):
                expected = [evaluate(monomial_poly(alg.group, alg.order, m), assign, alg)
                            for m in pg.monomials]
                words = [tuple(choice[p] for p in pos) for pos in positions]
                assert list(monomial_values(words, basis, alg, memo)) == expected, \
                    (degs, choice)
                for central in (False, True):
                    values = [center_echelon(alg).reduce(v) for v in expected] \
                        if central else expected
                    for k in sorted({k for v in values for k in v}):
                        rows[central].append([v.get(k, zero) for v in values])
            for central in (False, True):
                assert (pitool._component_rows(alg, pg, central) or []) == rows[central], \
                    (degs, central)


def kernel_span_reference(algebra, pg, central):
    """The target as a spanning basis, built as before it was held as
    equations: the distinct nonzero evaluation rows, their real kernel (the
    whole component when there are none), echelonized."""
    seen, rows = set(), []
    for r in pitool._component_rows(algebra, pg, central) or ():
        if tuple(r) not in seen and any(not c.is_zero() for c in r):
            seen.add(tuple(r))
            rows.append(r)
    ech = Echelon(pg.ncols)
    for v in (kernel_over_real_subfield(rows) if rows
              else [{k: Cyclo.one()} for k in range(pg.ncols)]):
        ech.add(v)
    return ech


_TARGET_CASES = _EVALUATION_CASES + [("c2@m2-4", {})]


@pytest.mark.parametrize("name, params", _TARGET_CASES,
                         ids=["%s%s" % (name, "".join("-%s" % v for v in params.values()))
                              for name, params in _TARGET_CASES])
def test_target_equations_match_kernel_span_reference(name, params):
    """The target held as equations has the dimension and the reduced basis
    of the kernel-span construction, and the same membership on that basis
    and on every unit vector, at every multidegree of length <= 3 in both
    modes."""
    alg = build_catalog(name, **params)
    for n in (1, 2, 3):
        for degs in itertools.product(alg.support, repeat=n):
            for central in (False, True):
                space = multilinear_central_space if central else multilinear_identity_space
                target = space(alg, degs)
                ref = kernel_span_reference(alg, target.pg, central)
                assert target.dim == ref.dim, (degs, central)
                assert target.basis() == ref.basis(), (degs, central)
                assert all(target.contains(v) for v in ref.sparse_basis()), (degs, central)
                for k in range(target.pg.ncols):
                    unit = {k: Cyclo.one()}
                    assert target.contains(unit) == ref.contains(unit), (degs, central, k)


@pytest.mark.parametrize("name, params", [("pauli", {"n": 3}), ("m2-4", {}),
                                          ("e-series", {"eps": -1, "n": 4})],
                         ids=["pauli-3", "m2-4", "e-series-minus1-4"])
def test_target_span_matches_the_dense_kernel_span(name, params):
    """The span built sparse from the reduced equation rows has the
    sparse_basis of the span of the equations' dense kernel, at every sorted
    multidegree of length <= 3 in both modes."""
    alg = build_catalog(name, **params)
    for n in (1, 2, 3):
        for degs in itertools.combinations_with_replacement(sorted(alg.support), n):
            for space in (multilinear_identity_space, multilinear_central_space):
                target = space(alg, degs)
                equations, dense = Echelon(target.pg.ncols), Echelon(target.pg.ncols)
                for row in target._rows:
                    equations.add(row)
                for v in equations.kernel():
                    dense.add(v)
                assert target.span().sparse_basis() == dense.sparse_basis(), degs


@pytest.mark.parametrize("name, params", _TARGET_CASES,
                         ids=["%s%s" % (name, "".join("-%s" % v for v in params.values()))
                              for name, params in _TARGET_CASES])
def test_component_rows_are_real(name, params):
    """Every evaluation row, and every row taken modulo the center, is fixed
    by conj at every multidegree of length <= 3: the target's equations need
    no split over the real subfield."""
    alg = build_catalog(name, **params)
    for n in (1, 2, 3):
        for degs in itertools.product(alg.support, repeat=n):
            pg = MultidegreeBasis(alg.group, degs)
            for central in (False, True):
                for row in pitool._component_rows(alg, pg, central) or ():
                    assert all(c.is_real() for c in row), (degs, central)


def test_central_components_of_every_kind_are_checked():
    """The algebras that test_word_evaluation_matches_evaluate checks at
    length 4 cover each way a component meets the center: inside it (m2-8
    at a^2), in 0 (m2-8 at a) and neither (e-series(-1,4) at e)."""
    m28 = build_catalog("m2-8")
    e4 = build_catalog("e-series", eps=-1, n=4)
    for alg, g, meet in ((m28, (2, 0), 1), (m28, (1, 0), 0), (e4, (0,), 1)):
        assert len(center_rows(alg, g)) == meet, (alg.name, g)
    assert len(m28.component((2, 0))) == 1
    assert len(e4.component((0,))) == 2


_CLOSED_FORM_CASES = [
    ("pauli", {"n": 2}, 4), ("pauli", {"n": 3}, 4), ("pauli", {"n": 4}, 3),
    ("c2", {}, 4), ("m2-4", {}, 4), ("m2-8", {}, 4), ("h4", {}, 4),
    ("d-cyclic", {"m": 4, "eps": -1}, 4), ("d-pair", {"k": 2, "l": 4, "mu": -1, "nu": 1}, 4),
    ("c2@m2-4", {}, 3),
]


def _evaluated_rows(algebra, pg, central):
    """The reduced rows of the evaluated equations, as Target held them
    before they were read off reordering exponents."""
    ech = Echelon(pg.ncols)
    for row in pitool._component_rows(algebra, pg, central) or ():
        ech.add(row)
    return ech.sparse_basis()


def _assert_closed_form_matches_evaluation(algebra, degs):
    """The closed-form rows at degs apply in both modes and are the
    evaluated rows, entry for entry and in the same normal forms, so the
    kernels and witnesses built from them print the same."""
    pg = MultidegreeBasis(algebra.group, degs)
    for central in (False, True):
        closed = pitool._reordering_rows(algebra, pg, central)
        evaluated = _evaluated_rows(algebra, pg, central)
        assert closed == evaluated, (degs, central)
        assert [[(k, repr(c)) for k, c in sorted(row.items())] for row in closed] == \
            [[(k, repr(c)) for k, c in sorted(row.items())] for row in evaluated], \
            (degs, central)


@pytest.mark.parametrize("name, params, max_length", _CLOSED_FORM_CASES,
                         ids=["%s%s" % (name, "".join("-%s" % v for v in params.values()))
                              for name, params, _ in _CLOSED_FORM_CASES])
def test_closed_form_targets_match_evaluation(name, params, max_length):
    """On every grading with a commutation bicharacter, real or through a
    central J, the target rows read off the reordering exponents are the
    evaluated rows at every record of length <= 4 (<= 3 on pauli-4 and
    c2@m2-4), in both modes."""
    alg = build_catalog(name, **params)
    for n in range(1, max_length + 1):
        for degs in itertools.combinations_with_replacement(sorted(alg.support), n):
            _assert_closed_form_matches_evaluation(alg, degs)


@functools.lru_cache(maxsize=None)
def _closed_form_algebra(name, n=None):
    return build_catalog(name, n=n) if n else build_catalog(name)


@pytest.mark.parametrize("name, n", [("pauli", 3), ("pauli", 4), ("m2-8", None)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_closed_form_targets_match_evaluation_on_drawn_multidegrees(name, n, data):
    """The same at drawn multidegrees of length <= 5, in any order."""
    alg = _closed_form_algebra(name, n)
    degs = data.draw(st.lists(st.sampled_from(sorted(alg.support)), min_size=1, max_size=5))
    _assert_closed_form_matches_evaluation(alg, degs)


@pytest.mark.parametrize("name, params", [("pauli", {"n": 3}), ("pauli", {"n": 4}),
                                          ("m2-8", {}), ("c2@m2-4", {})])
def test_closed_form_target_evaluates_two_words(monkeypatch, name, params):
    """A closed-form target evaluates the identity word and the reversed
    word at one substitution, n - 1 products each, and multiplies by J at
    most once: no value of the n! - 2 other monomials is multiplied out."""
    alg = build_catalog(name, **params)
    pitool._reordering(alg)  # the bicharacter is found once per algebra
    calls = [0]
    mul_vec = GradedAlgebra.mul_vec

    def counted(self, u, v):
        calls[0] += 1
        return mul_vec(self, u, v)

    monkeypatch.setattr(GradedAlgebra, "mul_vec", counted)
    monkeypatch.setattr(pitool, "_component_rows", None)
    support = sorted(alg.support)
    for degs in (support[-1:], support[:3], support[1:5], support[-4:] + support[:1]):
        calls[0] = 0
        multilinear_identity_space(alg, degs)
        assert 2 * (len(degs) - 1) <= calls[0] <= 2 * (len(degs) - 1) + 1, degs


@pytest.mark.parametrize("name, params", [("pauli", {"n": 3}), ("m2-8", {}), ("m2-4", {})])
def test_reversal_check_refuses_a_perturbed_exponent(monkeypatch, name, params):
    """A reordering exponent of the reversal that is off by one no longer
    predicts the reversed word's value, and the target is refused with
    AssertionError, raised explicitly, so also under python -O."""
    alg = build_catalog(name, **params)
    gamma_values = pitool._gamma_values

    def perturbed(beta, degrees):
        exps = gamma_values(beta, degrees)
        return exps[:-1] + [(exps[-1] + 1) % beta.order]

    monkeypatch.setattr(pitool, "_gamma_values", perturbed)
    # a central target is evaluated alike when its component meets the center
    degs = next(degs for degs in itertools.combinations(sorted(alg.support), 3)
                if not center_rows(alg, alg.group.product(degs)))
    for space in (multilinear_identity_space, multilinear_central_space):
        with pytest.raises(AssertionError, match="reversed word"):
            space(alg, degs)


def test_vanishing_identity_word_falls_back_to_evaluation(monkeypatch):
    """When the identity word vanishes at the first substitution the rows
    are evaluated, and the target is the same."""
    alg = build_catalog("pauli", n=3)
    degs = [(0, 1), (1, 0), (1, 1)]
    rows = multilinear_identity_space(alg, degs)._rows
    monkeypatch.setattr(pitool._Reordering, "identity_word_nonzero",
                        lambda self, algebra, choice, e_rev: False)
    evaluated = []
    component_rows = pitool._component_rows

    def counted(algebra, pg, central):
        evaluated.append(central)
        return component_rows(algebra, pg, central)

    monkeypatch.setattr(pitool, "_component_rows", counted)
    assert multilinear_identity_space(alg, degs)._rows == rows
    assert evaluated == [False]


def test_algebra_without_a_bicharacter_is_evaluated():
    """e-series(-1,4) has a noncentral identity component and no
    commutation bicharacter: its targets are evaluated."""
    alg = build_catalog("e-series", eps=-1, n=4)
    assert commutation_bicharacter(alg) == (None, None)
    pg = MultidegreeBasis(alg.group, [(1,), (2,)])
    assert pitool._reordering_rows(alg, pg, False) is None


def test_central_component_record_makes_no_product(monkeypatch):
    """A record whose degree product's component lies in the center builds
    its central target with no evaluation: no mul_vec call, and the target
    is the whole component, which the stream closes.  On m2-8 (the
    components at e and a^2 are central), with the regular source and with
    the generic stream of the same members."""
    alg = build_catalog("m2-8")
    fam = resolve_basis("regular", alg, "centrals", 3)
    generic = GeneratorSet(fam.name, "centrals", fam.group, fam.order, s1=fam.s1, s2=fam.s2)
    center(alg)
    alg.complex_structure()  # both solved once per algebra, before counting
    central = [degs for n in (1, 2, 3)
               for degs in itertools.combinations_with_replacement(sorted(alg.support), n)
               if alg.group.product(degs) in ((0, 0), (2, 0))]
    assert len(central) == 44
    calls = [0]
    mul_vec = GradedAlgebra.mul_vec

    def counted(self, u, v):
        calls[0] += 1
        return mul_vec(self, u, v)

    monkeypatch.setattr(GradedAlgebra, "mul_vec", counted)
    for genset in (fam, generic):
        for degs in central:
            record, _ = _check_multidegree(alg, genset, degs)
            assert calls[0] == 0, degs
            assert record.equal and record.dim_target == math.factorial(len(degs)), degs


def _first_failure(algebra, poly, fails):
    """The witness of the first substitution, in polarized-piece and then
    itertools.product order, whose value fails, with that value."""
    for lin in pitool._polarized(poly):
        letters = lin.letters()
        for choice, assign in _assignments(algebra, letters):
            value = evaluate(lin, assign, algebra)
            if fails(value):
                return {lt: algebra.labels[i] for lt, i in zip(letters, choice)}, value
    return None, None


def test_failing_membership_reports_the_first_witness_in_product_order():
    m24 = build_catalog("m2-4")
    # the first polarized piece is an identity, the second is not
    poly = parse_poly("x1:a*x1:a*x2:b - x2:b*x1:a*x1:a + x1:a*x2:b", m24.group, 1)
    witness, _ = _first_failure(m24, poly, bool)
    assert witness is not None
    assert is_identity(m24, poly) == (False, witness)

    e4 = build_catalog("e-series", eps=-1, n=4)
    center = center_echelon(e4)
    for text in ("x1:g*x1:g*x2:e", "x1:e*x2:g*x3:e - x3:e*x2:g*x1:e"):
        poly = parse_poly(text, e4.group, 1)
        witness, value = _first_failure(
            e4, poly, lambda v: bool(v) and not center.contains(v))
        label = next(e4.labels[j] for j in range(e4.dim)
                     if e4.mul_vec(value, e4.basis_vector(j))
                     != e4.mul_vec(e4.basis_vector(j), value))
        assert is_central(e4, poly) == ("neither", (witness, label)), text
        # not the first substitution, so the order is really pinned
        assert witness != _first_failure(e4, poly, lambda v: True)[0], text


def test_membership_multiplies_each_basis_word_prefix_once(monkeypatch):
    """A padded central member of e-series(-1,4) costs one mul_vec per
    distinct nonempty prefix of its basis-index words, not one per prefix of
    every substitution."""
    alg = build_catalog("e-series", eps=-1, n=4)
    center_echelon(alg)  # solved once per algebra, before counting
    poly = parse_poly("x1:e*x2:e*x3:e*x4:g^2 - x1:e*x3:e*x2:e*x4:g^2", alg.group, 1)
    prefixes = set()
    tuples = 0
    for choice, _ in _assignments(alg, poly.letters()):
        tuples += 1
        index = dict(zip(poly.letters(), choice))
        for mono in poly.terms:
            word = tuple(index[lt] for lt in mono)
            prefixes.update(word[:k] for k in range(1, len(word) + 1))
    calls = [0]
    mul_vec = GradedAlgebra.mul_vec

    def counted(self, u, v):
        calls[0] += 1
        return mul_vec(self, u, v)

    monkeypatch.setattr(GradedAlgebra, "mul_vec", counted)
    assert is_central(alg, poly)[0] != "neither"
    assert calls[0] == len(prefixes)
    assert calls[0] < tuples * sum(len(m) for m in poly.terms)


def test_empty_multidegree_rejected():
    alg = build_catalog("m2-4")
    with pytest.raises(PreconditionError):
        multilinear_identity_space(alg, [])


def test_resource_refusal():
    alg = build_catalog("m2-elem")
    with pytest.raises(ResourceRefusal):
        multilinear_identity_space(alg, [(0,)] * 9)


# -- consequence spans --------------------------------------------------------------


def test_tideal_commutator_at_ee():
    g = FiniteAbelianGroup(())
    comm = commutator_poly(g)
    sub = tideal_consequences([comm], [(), ()], group=g)
    assert sub.dim == 1


def test_tspace_single_variable_full():
    g = FiniteAbelianGroup((2,))
    x = monomial_poly(g, 2, [(1, (0,))])
    sub = tspace_consequences([x], [(1,), (1,)], group=g)
    assert sub.dim == 2  # both orderings of the two odd letters


def test_tspace_of_identity_family_takes_substitution_instances_only():
    """A T-space span of an identity family is the span of its generic
    substitution instances, not the T-ideal span its fast stream gives."""
    alg = build_catalog("m2-4")
    beta, _ = detect_regular(alg)
    fam = family_regular(beta, "identities")
    degs = [(1, 0), (0, 1), (1, 1)]
    for span in (tspace_consequences, tideal_consequences):
        via_family = span(fam, degs)
        generic = span(fam.members, degs, group=fam.group)
        assert via_family.dim == generic.dim
        assert all(generic.contains(v) for v in via_family.basis())
    assert tspace_consequences(fam, degs).dim < tideal_consequences(fam, degs).dim


def _first_column_span(generators, degrees, group, tideal):
    """Reference for the public spans: every instance stage eliminated in a
    plain Echelon, pivoting on each row's first column, a raw list or a set
    of the other mode taking the generic instances of its polarized
    members."""
    if isinstance(generators, GeneratorSet):
        group = generators.group
    pg = MultidegreeBasis(group, degrees)
    if isinstance(generators, GeneratorSet) and tideal == (generators.mode == "identities"):
        stages = pitool._instance_stages(generators, pg)
    else:
        polys = generators.members if isinstance(generators, GeneratorSet) else generators
        polys = [piece for p in polys for piece in multilinearize(p)]
        stages = [(vec for vec, _ in pitool._generic_instances(
            pitool._template_table(polys), pg, tideal))]
    span = Echelon(pg.ncols)
    for vec in itertools.chain.from_iterable(stages):
        span.add(vec)
    return span


@pytest.mark.parametrize("case, dims", [
    ("m2-8-set", {True: 119, False: 96}),
    ("m2-8-list", {True: 119, False: 96}),
    ("c2@m2-4-centrals", {False: 23}),
    ("bp-centrals", {False: 20}),
    ("pauli3", {True: 22}),
], ids=["m2-8-set", "m2-8-list", "c2@m2-4-centrals", "bp-centrals", "pauli3"])
def test_public_spans_match_first_column_elimination(case, dims):
    """tideal_consequences and tspace_consequences (dims keyed by tideal),
    held mirrored in a Subspace, span what first-column elimination spans.
    The m2-8 set, spanned by its regular source's descents, has the
    sparse_basis of its raw member list, spanned by generic instances."""
    group = None
    if case.startswith("m2-8"):
        fam = family_regular(detect_regular(build_catalog("m2-8"))[0], "identities")
        words = ["a", "b", "a.b", "a^2", "a^3.b"]
        if case == "m2-8-list":
            fam, group = fam.members, fam.group
    elif case == "c2@m2-4-centrals":
        # a product outside the radical: the span is that of the descents
        fam = family_regular(detect_regular(build_catalog("c2@m2-4"))[0], "centrals")
        words = ["a0", "a", "b", "a0.b"]
    elif case == "bp-centrals":
        fam = bp_basis(build_catalog("m2-elem").group)
        words = ["a", "e", "e", "a"]
    else:
        fam = family_pauli(build_catalog("pauli", n=3), 3)
        words = ["x", "y", "x.y", "x^2"]
    degrees = [(group or fam.group).word_to_element(w) for w in words]
    for tideal, dim in dims.items():
        span = tideal_consequences if tideal else tspace_consequences
        sub = span(fam, degrees, group=group)
        reference = _first_column_span(fam, degrees, group, tideal)
        assert sub.dim == reference.dim == dim
        assert all(reference.contains(v) for v in sub.sparse_basis())
        assert all(sub.contains(v) for v in reference.basis())
        if case == "m2-8-set":
            members = span(fam.members, degrees, group=fam.group)
            assert sub.sparse_basis() == members.sparse_basis()


def _entry_points():
    """The five entry points that build a multidegree component, each with
    the least length it refuses and a degree to repeat up to it."""
    m2 = build_catalog("m2-elem")
    dv = dv_basis(m2.group)
    p3 = build_catalog("pauli", n=3)
    return [
        (9, (0,), lambda degs: multilinear_identity_space(m2, degs)),
        (9, (0,), lambda degs: multilinear_central_space(m2, degs)),
        (9, (0,), lambda degs: tideal_consequences(dv, degs)),
        (9, (0,), lambda degs: tspace_consequences(dv, degs)),
        (8, (1, 0), lambda degs: check_pauli_multidegree(p3, degs)),
    ]


def test_long_multidegrees_refused_before_enumerating(monkeypatch):
    """Spaces and spans refuse past 6 letters and the long record past 7,
    before the n! monomials of the component are listed."""
    def enumerate_component(*args):
        raise RuntimeError("component enumerated before its length was checked")

    entry_points = _entry_points()
    monkeypatch.setattr(pitool, "MultidegreeBasis", enumerate_component)
    for length, degree, entry in entry_points:
        with pytest.raises(ResourceRefusal):
            entry([degree] * length)


def test_empty_multidegree_refused():
    """No entry point reads an empty multidegree as a vacuous PASS."""
    for _, _, entry in _entry_points():
        with pytest.raises(PreconditionError):
            entry([])


def _reference_block_assignments(targets, degrees, tideal, group):
    """A frozen reference for _block_assignments: the same assignments in the
    same order, each candidate block's degree found by group.product."""
    identity = group.identity
    nonempty = [0] * (len(degrees) + 1)
    for j in range(len(degrees) - 1, -1, -1):
        nonempty[j] = nonempty[j + 1] + (degrees[j] != identity)

    def rec(j, remaining, blocks):
        if j == len(degrees):
            if tideal:
                for perm in itertools.permutations(remaining):
                    for cut in range(len(perm) + 1):
                        yield blocks, perm[:cut], perm[cut:]
            elif not remaining:
                yield blocks, (), ()
            return
        dj = degrees[j]
        if dj == identity:
            yield from rec(j + 1, remaining, blocks + [()])
        for size in range(1, len(remaining) - nonempty[j + 1] + 1):
            for combo in itertools.permutations(remaining, size):
                if dj is None or group.product([d for _, d in combo]) == dj:
                    left = tuple(x for x in remaining if x not in combo)
                    yield from rec(j + 1, left, blocks + [combo])

    yield from rec(0, tuple(targets), [])


def _unpruned_instances(polys, pg, tideal):
    """Reference for _generic_instances: the same template order, and the
    reference block assignments of every template enumerated, with no test
    on its degree product."""
    def rank(p):
        lts = p.letters()
        exact = (len(lts) == len(pg.letters) and
                 sorted(d for _, d in lts) == sorted(pg.degrees))
        return (0 if exact else 1, len(lts))

    group = pg.group
    for template in sorted(polys, key=rank):
        letters_t = template.letters()
        if sum(1 for _, d in letters_t if d != group.identity) > len(pg.letters):
            continue
        for blocks, prefix, suffix in _reference_block_assignments(
                pg.letters, [d for _, d in letters_t], tideal, group):
            by_letter = dict(zip(letters_t, blocks))
            vec = pitool._sparse_vector(pg, (
                (prefix + tuple(x for lt in mono for x in by_letter[lt]) + suffix, c)
                for mono, c in template.terms.items()))
            if vec:
                yield vec, (template, blocks, prefix, suffix)


def _all_instances_match_reference(genset, support, max_length, tideal):
    """Assert that the generic stream of genset's templates equals the
    unpruned reference at every multidegree over support of length <=
    max_length."""
    m1, m2 = genset.multilinear_members()
    for n in range(1, max_length + 1):
        for degs in itertools.product(support, repeat=n):
            pg = MultidegreeBasis(genset.group, degs)
            assert list(pitool._generic_instances(genset.templates(), pg, tideal)) == \
                list(_unpruned_instances(m1 + m2, pg, tideal)), degs


_CENTRAL_FAMILIES = [
    ("e-series", {"eps": -1, "n": 4}, "corollary", 4),
    ("m2-4", {}, "regular", 4),
    ("m2c-z4", {}, "corollary", 3),
    ("d-cyclic", {"m": 3, "eps": 1}, "regular", 3),
    ("m2-elem", {}, "bp-centrals", 4),
    ("m2r-triv", {}, "okhitin", 4),
]


@pytest.mark.parametrize("name, params, basis, max_length", _CENTRAL_FAMILIES,
                         ids=["%s-%s" % (name, basis) for name, _, basis, _ in
                              _CENTRAL_FAMILIES])
def test_tspace_instances_match_unpruned_enumeration(name, params, basis, max_length):
    """Skipping the T-space templates whose degree product misses the
    multidegree's, and reading block degrees off the subset-degree table,
    change no instance and no order, at every multidegree."""
    alg = build_catalog(name, **params)
    genset = resolve_basis(basis, alg, "centrals", max_length)
    _all_instances_match_reference(genset, alg.support, max_length, tideal=False)


@pytest.mark.parametrize("name, basis", [("m2c-z4", "corollary"), ("m2-elem", "dv-lemma")])
def test_tideal_instances_match_reference(name, basis):
    """The T-ideal stream of an identities set equals the unpruned reference
    at every multidegree of length <= 4."""
    alg = build_catalog(name)
    genset = resolve_basis(basis, alg, "identities", 4)
    _all_instances_match_reference(genset, alg.support, 4, tideal=True)


def test_tideal_instances_are_not_pruned():
    """T-ideal instances are enumerated for every template, including those
    whose degree product misses the multidegree's (a prefix or suffix makes
    up the difference)."""
    alg = build_catalog("m2-elem")
    group = alg.group
    genset = resolve_basis("bp-centrals", alg, "centrals", 4)
    m1, m2 = genset.multilinear_members()
    off_product = 0
    for n in (1, 2, 3, 4):
        for degs in itertools.product(alg.support, repeat=n):
            pg = MultidegreeBasis(group, degs)
            got = list(pitool._generic_instances(genset.templates(), pg, True))
            assert got == list(_unpruned_instances(m1 + m2, pg, True)), degs
            off_product += sum(group.product([d for _, d in t.letters()])
                               != group.product(degs) for _, (t, _, _, _) in got)
    assert off_product


def _counted_group_calls(monkeypatch, calls):
    """Count FiniteAbelianGroup.op and .product calls into calls."""
    op, product = FiniteAbelianGroup.op, FiniteAbelianGroup.product

    def counted_op(self, g, h):
        calls["op"] += 1
        return op(self, g, h)

    def counted_product(self, elems):
        calls["product"] += 1
        return product(self, elems)

    monkeypatch.setattr(FiniteAbelianGroup, "op", counted_op)
    monkeypatch.setattr(FiniteAbelianGroup, "product", counted_product)


def test_generic_stream_reads_block_degrees_off_one_table(monkeypatch):
    """A fully consumed generic stream makes at most 2^n - 1 group operations,
    those of its subset-degree table, and no group.product, at every
    multidegree of length <= 3 and every sorted one (a campaign's records) of
    length 4 of the e-series(-1,8) corollary centrals."""
    alg = build_catalog("e-series", eps=-1, n=8)
    genset = resolve_basis("corollary", alg, "centrals", 4)
    templates = genset.templates()
    calls = {"op": 0, "product": 0}
    _counted_group_calls(monkeypatch, calls)
    instances = 0
    for n in range(1, 5):
        for degs in itertools.product(alg.support, repeat=n):
            if n == 4 and list(degs) != sorted(degs):
                continue
            pg = MultidegreeBasis(alg.group, degs)
            calls["op"] = 0
            instances += sum(1 for _ in pitool._generic_instances(templates, pg, False))
            assert calls["op"] <= 2 ** n - 1, degs
    assert calls["product"] == 0
    assert instances


_KILLER_CASES = [
    ("e-series", {"eps": -1, "n": 4}, "corollary", "identities"),
    ("e-series", {"eps": -1, "n": 4}, "corollary", "centrals"),
    ("m2c-z4", {}, "corollary", "identities"),
    ("m2c-z4", {}, "corollary", "centrals"),
    ("m2-elem", {}, "dv-lemma", "identities"),
    ("m2-elem", {}, "bp-centrals", "centrals"),
    ("m2r-triv", {}, "okhitin", "centrals"),
    ("m2r-triv", {}, "s4-hall", "identities"),
]
_KILLER_IDS = ["%s-%s-%s" % (name, basis, mode) for name, _, basis, mode in _KILLER_CASES]


def _set_to_one(poly, letters):
    """poly with each of letters replaced by 1, its like terms summed."""
    return FreePoly(poly.group, poly.order,
                    ((tuple(lt for lt in mono if lt not in letters), c)
                     for mono, c in poly.terms.items()))


@pytest.mark.parametrize("name, params, basis, mode", _KILLER_CASES, ids=_KILLER_IDS)
def test_killer_letters_are_every_vanishing_set(name, params, basis, mode):
    """On every template row, setting a set S of identity-degree letters to 1
    gives the zero polynomial exactly when S contains one of the row's
    killer letters, for every such S: the killers are of identity degree,
    and these rows have no vanishing set of two or more letters without a
    killer."""
    alg = build_catalog(name, **params)
    genset = resolve_basis(basis, alg, mode, 4)
    identity = alg.group.identity
    found = 0
    for row in genset.templates().rows:
        letters = row.poly.letters()
        units = [k for k, (_, d) in enumerate(letters) if d == identity]
        assert row.killers & sum(1 << k for k in units) == row.killers, row.poly
        for size in range(len(units) + 1):
            for subset in itertools.combinations(units, size):
                mask = sum(1 << k for k in subset)
                zero = _set_to_one(row.poly, {letters[k] for k in subset}).is_zero()
                assert zero == bool(mask & row.killers), (row.poly, subset)
        found += bin(row.killers).count("1")
    assert found


def _skipped_assignments(table, group, support, tideal):
    """Assert that, at every multidegree over support of length <= 4, the
    block assignments each row's killer letters prune are the reference
    assignments with some left out, in the same order, and that each one
    left out substitutes into a zero instance; returns how many were left
    out."""
    skipped = 0
    for n in range(1, 5):
        for degs in itertools.product(support, repeat=n):
            pg = MultidegreeBasis(group, degs)
            for row in table.rows:
                if row.needed > n or not (tideal or row.product == pg.subset_degrees[-1]):
                    continue
                got = list(pitool._block_assignments(pg, row.degrees, tideal, row.killers))
                kept = 0
                for blocks, prefix, suffix in _reference_block_assignments(
                        pg.letters, row.degrees, tideal, group):
                    if kept < len(got) and got[kept] == (blocks, prefix, suffix):
                        kept += 1
                        continue
                    skipped += 1
                    by_letter = dict(zip(row.poly.letters(), blocks))
                    assert not pitool._sparse_vector(pg, (
                        (prefix + tuple(x for lt in mono for x in by_letter[lt]) + suffix, c)
                        for mono, c in row.poly.terms.items())), (degs, row.poly, blocks)
                assert kept == len(got), (degs, row.poly)
    return skipped


@pytest.mark.parametrize("name, params, basis, mode", _KILLER_CASES, ids=_KILLER_IDS)
def test_skipped_assignments_have_zero_instances(name, params, basis, mode):
    """Pruning by killer letters leaves out only zero instances of the
    family's templates, at every multidegree of length <= 4."""
    alg = build_catalog(name, **params)
    genset = resolve_basis(basis, alg, mode, 4)
    assert _skipped_assignments(genset.templates(), alg.group, alg.support,
                                mode == "identities")


class _CountedPermutations:
    """itertools with permutations counting the orderings it yields."""

    _itertools = itertools

    def __init__(self):
        self.drawn = 0

    def __getattr__(self, name):
        return getattr(self._itertools, name)

    def permutations(self, *args):
        for perm in self._itertools.permutations(*args):
            self.drawn += 1
            yield perm


def _block_degree_lists(name, params, basis, mode, step):
    """(pg, block degrees, tideal) for every distinct degree list of the
    family's template rows that _generic_instances enumerates at every
    step-th sorted multidegree of length 3 and 4."""
    alg = build_catalog(name, **params)
    genset = resolve_basis(basis, alg, mode, 4)
    table, tideal = genset.templates(), mode == "identities"
    records = [degs for n in (3, 4)
               for degs in itertools.combinations_with_replacement(sorted(alg.support), n)]
    for degs in records[::step]:
        pg = MultidegreeBasis(alg.group, degs)
        rows = table.rows if tideal else table.by_product.get(pg.subset_degrees[-1], ())
        for degrees in sorted({tuple(row.degrees) for row in rows if row.needed <= len(degs)}):
            yield pg, list(degrees), tideal


_BLOCK_CASES = [("e-series", {"eps": -1, "n": 8}, "corollary", "centrals", 25),
                ("m2c-z4", {}, "corollary", "identities", 5)]


@pytest.mark.parametrize("name, params, basis, mode, step", _BLOCK_CASES,
                         ids=["e-series-8-centrals", "m2c-z4-identities"])
def test_block_assignments_permute_only_subsets_of_the_block_degree(
        monkeypatch, name, params, basis, mode, step):
    """Permuting only the subsets of each block's degree yields the frozen
    reference's assignments in its order, on a sample of records of the
    corollary families, T-space and T-ideal; it draws under half of the
    orderings that permuting every subset and then reading its degree
    draws, leftover orderings of a T-ideal instance included."""
    new, old = _CountedPermutations(), _CountedPermutations()
    for pg, degrees, tideal in _block_degree_lists(name, params, basis, mode, step):
        monkeypatch.setattr(pitool, "itertools", new)
        got = list(pitool._block_assignments(pg, degrees, tideal))
        monkeypatch.setitem(globals(), "itertools", old)
        want = list(_reference_block_assignments(pg.letters, degrees, tideal, pg.group))
        monkeypatch.undo()
        assert got == want, (pg.degrees, degrees)
    assert 2 * new.drawn < old.drawn, (new.drawn, old.drawn)


def test_two_letter_vanishing_set_is_left_to_the_zero_filter():
    """x1 x2 x3 - x3 x2 x1 with x1 and x3 of identity degree vanishes when
    both are set to 1 but not when one is: it has no killer letter, nothing
    is pruned, and its zero instances are dropped as vectors, so its stream
    is the unpruned reference at every multidegree of length <= 3."""
    group = FiniteAbelianGroup((2,))
    poly = parse_poly("x1:e*x2:a*x3:e - x3:e*x2:a*x1:e", group, 1)
    table = pitool._template_table([poly])
    assert [row.killers for row in table.rows] == [0]
    for n in (1, 2, 3):
        for degs in itertools.product([(0,), (1,)], repeat=n):
            pg = MultidegreeBasis(group, degs)
            for tideal in (False, True):
                assert list(pitool._generic_instances(table, pg, tideal)) == \
                    list(_unpruned_instances([poly], pg, tideal)), (degs, tideal)


def test_one_substitution_instance_through_every_path():
    """One kernel member under one block assignment is the same instance
    whether it comes from the generic template stream, the Pauli kernel
    stage or certificate replay (instance_poly), and each is the literal
    expansion of the member's shape."""
    algebra = build_catalog("pauli", n=3)
    source = pitool._pauli_source(algebra)
    group, order = algebra.group, source.beta.order
    pg = MultidegreeBasis(group, [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)])
    l1, l2, l3, l4, l5 = pg.letters
    stage = list(source._partition_kernels(pg))
    for blocks, prefix, suffix in (([(l2, l3), (l4,), (l5,)], (l1,), ()),
                                   ([(l2,), (l3,), (l4, l5)], (), (l1,))):
        degs = [group.product([d for _, d in blk]) for blk in blocks]
        combo = max(source.kernel_shapes(degs), key=len)
        assert len(combo) == 3  # a trinomial
        member = FreePoly(group, order, {tuple((k + 1, degs[k]) for k in perm): c
                                         for perm, c in combo})
        expected = {}
        for perm, c in combo:
            mono = prefix + tuple(x for k in perm for x in blocks[k]) + suffix
            expected[pg.index[mono]] = c

        generic = [vec for vec, (_, b, p, q) in pitool._generic_instances(
                       pitool._template_table([member]), pg, True)
                   if (list(b), p, q) == (blocks, prefix, suffix)]
        assert generic == [expected]
        assert list(pitool._kernel_vectors(pg, [combo], blocks, prefix, suffix)) == [expected]
        assert expected in stage
        replayed = pitool.instance_poly(member, prefix, blocks, suffix, group, order)
        assert replayed == pg.from_vector(expected, order)


def test_tspace_padded_commutator_contains_its_shape():
    elem = build_catalog("m2-elem")
    bp = bp_basis(elem.group)
    sub = tspace_consequences(bp, [(1,), (0,), (0,), (1,)])
    target = parse_poly("x1:a*x2:e*x3:e*x4:a - x1:a*x3:e*x2:e*x4:a", elem.group, 2)
    assert sub.contains(pitool._sparse_vector(sub.pg, target.terms.items()))


def test_conservativity_regular():
    alg = build_catalog("m2-4")
    beta, _ = detect_regular(alg)
    fam = family_regular(beta, "identities")
    for degrees in [[(1, 0), (0, 1)], [(1, 0), (1, 0), (0, 1)]]:
        cons = tideal_consequences(fam, degrees)
        idsp = multilinear_identity_space(alg, degrees)
        for v in cons.basis():
            assert idsp.contains(v)


# -- families -----------------------------------------------------------------------


def test_family_regular_m2_4_counts():
    beta, _ = detect_regular(build_catalog("m2-4"))
    fam = family_regular(beta, "identities")
    assert len(fam.members) == 16
    cent = family_regular(beta, "centrals")
    assert len(cent.s2) == 1  # radical is trivial: only the identity degree
    assert len(cent.s1) == 256


def test_family_regular_gamma_centrals_include_radical_variable():
    alg = build_catalog("c2@m2-4")
    beta, _ = detect_regular(alg)
    cent = family_regular(beta, "centrals")
    words = {str(f) for f in cent.s2}
    assert "x1:a0" in words and "x1:e" in words


def test_family_regular_trivial_group():
    triv = trivial_field_algebra()
    beta, _ = detect_regular(triv)
    fam = family_regular(beta, "identities")
    assert len(fam.members) == 1
    cent = family_regular(beta, "centrals")
    assert [str(f) for f in cent.s2] == ["x1:e"]
    assert len(cent.s1) == 1


def test_family_pauli_p3_shapes():
    p3 = build_catalog("pauli", n=3)
    fam = family_pauli(p3, 3)
    # no swap or degree-seven members in the basis when i never occurs
    assert all(len(f.letters()) <= 3 for f in fam.s1)
    assert fam.extras  # the swap identities are tracked as extras
    # the trinomial at a nonreal pair has p = q = 1 (cube-root quadratic)
    trinomials = [f for f in fam.s1 if len(f.terms) == 3 and len(f.letters()) == 3]
    coeffs = {c for f in trinomials for c in f.terms.values()}
    assert coeffs == {Cyclo.one()}


def test_family_pauli_p4_has_degree7():
    p4 = build_catalog("pauli", n=4)
    fam = family_pauli(p4, 2)
    assert any(len(f.letters()) == 7 for f in fam.s1)
    assert not fam.extras  # swap identities are basis members here


def test_family_pauli_rejects_regular():
    p2 = build_catalog("pauli", n=2)
    with pytest.raises(PreconditionError):
        family_pauli(p2, 3)


def test_family_pauli_extras_are_consequences():
    p3 = build_catalog("pauli", n=3)
    fam = family_pauli(p3, 3)
    for f in fam.extras[:5]:
        ok, _ = is_identity(p3, f)
        assert ok
        degrees = [d for _, d in f.letters()]
        cons = tideal_consequences(fam, degrees)
        assert cons.contains(pitool._sparse_vector(cons.pg, f.terms.items()))


# -- transfer ---------------------------------------------------------------------


def test_transfer_field_recovers_regular_central_family():
    """Transporting the field's central basis along a regular factor gives the
    radical variables and the padded commutation binomials."""
    field = trivial_field_algebra()
    r = build_catalog("m2-4")
    group = field.group
    x = lambda i: monomial_poly(group, 1, [(i, ())])
    s1 = [x(1) * (x(2) * x(3) - x(3) * x(2)) * x(4)]
    s2 = [x(1)]
    genset = GeneratorSet("field-centrals", "centrals", group, 1, s1=s1, s2=s2)
    out = transfer_basis(genset, r)
    beta, _ = detect_regular(r)
    expected = family_regular(beta, "centrals")
    # the trivial factor has rank zero, so product degrees are the H-degrees
    got_s2 = {str(f) for f in out.s2}
    want_s2 = {str(f) for f in expected.s2}
    assert got_s2 == want_s2
    got_s1 = {str(f) for f in out.s1}
    want_s1 = {str(f) for f in expected.s1}
    assert got_s1 == want_s1


def test_transfer_refuses_nonminimal_center():
    """A coarsened regular grading whose center exceeds the radical components
    is refused in central mode rather than guessed."""
    field = trivial_field_algebra()
    group = field.group
    x = lambda i: monomial_poly(group, 1, [(i, ())])
    genset = GeneratorSet("field-centrals", "centrals", group, 1,
                          s1=[x(1) * (x(2) * x(3) - x(3) * x(2)) * x(4)], s2=[x(1)])
    h2 = build_catalog("h2")
    with pytest.raises(PreconditionError):
        transfer_basis(genset, h2)


def test_transfer_soundness_random():
    random.seed(3)
    a = build_catalog("m2-elem")
    r = build_catalog("m2-4")
    beta, _ = detect_regular(r)
    big = tensor(a, r)
    helems = beta.group.elements()
    for _ in range(20):
        n = random.randint(1, 3)
        degrees = [random.choice(a.group.elements()) for _ in range(n)]
        terms = {}
        for _ in range(random.randint(1, 3)):
            perm = list(range(n))
            random.shuffle(perm)
            mono = tuple((k + 1, degrees[k]) for k in perm)
            terms[mono] = Fraction(random.randint(-2, 2))
        f = FreePoly(a.group, 2, terms)
        if f.is_zero():
            continue
        h = [random.choice(helems) for _ in range(len(f.letters()))]
        phi = transfer_phi(f, h, beta)
        assert is_identity(a, f)[0] == is_identity(big, phi)[0]


# -- quotient lifting ----------------------------------------------------------------


def test_lift_basis_preconditions():
    elem = build_catalog("m2-elem")
    # no invertible central element of the off-diagonal degree
    with pytest.raises(PreconditionError):
        lift_basis(elem, (1,), dv_basis(FiniteAbelianGroup((2,))))


def test_lift_through_trivial_quotient_is_relabel():
    es = build_catalog("e-series", eps=1, n=2)
    q, _ = quotient_by(es.group, (0,))
    base = dv_basis(q)
    lifted = lift_basis(es, (0,), base)
    assert len(lifted.members) == len(base.members)
    rep = verify_basis(es, lifted, 3)
    assert rep.ok


def test_quotient_soundness_m2c_z4():
    alg = build_catalog("m2c-z4")
    co = coarsen_by_quotient(alg, (2,))
    q, proj = quotient_by(alg.group, (2,))
    random.seed(11)
    for _ in range(15):
        n = random.randint(1, 3)
        degrees = [random.choice(alg.group.elements()) for _ in range(n)]
        terms = {}
        for _ in range(random.randint(1, 3)):
            perm = list(range(n))
            random.shuffle(perm)
            terms[tuple((k + 1, degrees[k]) for k in perm)] = Fraction(
                random.randint(-2, 2))
        f = FreePoly(alg.group, alg.order, terms)
        if f.is_zero():
            continue
        qf = project_poly(f, q, proj)
        assert is_identity(alg, f)[0] == is_identity(co, qf)[0]


def test_lifted_corollary_shapes_m2c_z4():
    alg = build_catalog("m2c-z4")
    co = coarsen_by_quotient(alg, (2,))
    lifted = lift_basis(alg, (2,), dv_basis(co.group))
    twos = [f for f in lifted.members if len(f.letters()) == 2]
    threes = [f for f in lifted.members if len(f.letters()) == 3]
    assert len(twos) == 4 and len(threes) == 8
    even = {(0,), (2,)}
    odd = {(1,), (3,)}
    for f in twos:
        assert {d for _, d in f.letters()} <= even
    for f in threes:
        assert {d for _, d in f.letters()} <= odd


# -- verification ------------------------------------------------------------------


def test_verify_dv_on_elementary():
    elem = build_catalog("m2-elem")
    rep = verify_basis(elem, dv_basis(elem.group), 4)
    assert rep.ok
    assert all(r.equal for r in rep.records)
    # report serialization round-trips through JSON
    import json

    doc = json.loads(rep.to_json())
    assert doc["ok"] and doc["records"]
    assert "dim_target" in rep.to_tsv().splitlines()[0]


def test_m2_8_degree_six_record():
    """A record at the dense engine's degree bound: the regular family spans
    the identities of m2-8 at six distinct degrees."""
    alg = build_catalog("m2-8")
    beta, _ = detect_regular(alg)
    degs = [alg.group.word_to_element(w)
            for w in ("a", "b", "a.b", "a^2", "a^3.b", "a^2.b")]
    rec, _ = _check_multidegree(alg, family_regular(beta, "identities"), degs)
    assert rec.equal and (rec.dim_target, rec.dim_consequence) == (719, 719)


def test_verify_detects_incomplete_basis():
    elem = build_catalog("m2-elem")
    group = elem.group
    partial = GeneratorSet("partial", "identities", group, 2,
                           s1=[commutator_poly(group, degrees=[(0,), (0,)])])
    rep = verify_basis(elem, partial, 3)
    assert not rep.ok
    bad = [r for r in rep.records if not r.equal]
    assert bad and any("missing" in (r.witness or "") for r in bad)


def test_verify_flags_non_identity_member():
    alg = build_catalog("m2-4")
    group = alg.group
    wrong = GeneratorSet("wrong", "identities", group, 2,
                         s1=[commutator_poly(group, degrees=[(1, 0), (0, 1)])])
    rep = verify_basis(alg, wrong, 2)
    assert not rep.ok
    assert any(not m["ok"] for m in rep.membership)


def _with_broken_member(genset, k):
    """genset with its s1 member k given a doubled first coefficient."""
    s1 = list(genset.s1)
    s1[k] = _scaled_first_term(s1[k])
    return GeneratorSet(genset.name, genset.mode, genset.group, genset.order, s1=s1,
                        s2=genset.s2, extras=genset.extras,
                        assumptions=genset.assumptions, fast_source=genset.fast_source)


def _scaled_first_term(f):
    terms = dict(f.terms)
    mono = min(terms)
    terms[mono] = terms[mono] * 2
    return FreePoly(f.group, f.order, terms)


def test_verify_parallel_matches_sequential():
    """Records and membership entries agree at one and two jobs, also when
    pool workers decide a broken member on a record's target, or a broken
    padded central member on the identity space of its core's record."""
    elem = build_catalog("m2-elem")
    e4 = build_catalog("e-series", eps=-1, n=4)
    e4_broken = _with_broken_member(resolve_basis("corollary", e4, "centrals", 3), 50)
    p3 = build_catalog("pauli", n=3)
    broken = _with_broken_member(family_pauli(p3, 3), 100)
    for algebra, genset, failing in ((elem, dv_basis(elem.group), []),
                                     (e4, e4_broken, [e4_broken.s1[50]]),
                                     (p3, broken, [broken.s1[100]])):
        rep1 = verify_basis(algebra, genset, 3)
        rep2 = verify_basis(algebra, genset, 3, jobs=2)
        assert [r.as_dict() for r in rep1.records] == [r.as_dict() for r in rep2.records]
        assert rep1.membership == rep2.membership
        assert [m["poly"] for m in rep1.membership if not m["ok"]] == list(map(str, failing))


def test_verify_pool_pickles_no_generator_set():
    """Pool workers inherit the record task, so a generator set that cannot
    be pickled still verifies at two jobs, with the one-job report."""
    elem = build_catalog("m2-elem")
    genset = dv_basis(elem.group)
    genset.unpicklable = lambda: None
    with pytest.raises(Exception):
        pickle.dumps(genset)
    rep1 = verify_basis(elem, genset, 3)
    rep2 = verify_basis(elem, genset, 3, jobs=2)
    assert rep2.ok
    assert [r.as_dict() for r in rep1.records] == [r.as_dict() for r in rep2.records]
    assert rep1.membership == rep2.membership


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_progress_sees_every_record_in_order(jobs):
    p3 = build_catalog("pauli", n=3)
    seen = []
    rep = verify_basis(p3, family_pauli(p3, 3), 3, jobs=jobs, progress=seen.append)
    assert len(rep.records) > 1
    assert [r.as_dict() for r in seen] == [r.as_dict() for r in rep.records]


def test_verify_pool_task_error_reaches_the_caller(monkeypatch):
    """A record task that raises in a pool worker raises in the caller, and
    the pool's workers are gone afterwards."""
    import multiprocessing

    real = pitool._check_multidegree

    def failing(algebra, genset, degrees, members=()):
        if len(degrees) == 3:
            raise RuntimeError("record task failed at %r" % (degrees,))
        return real(algebra, genset, degrees, members)

    monkeypatch.setattr(pitool, "_check_multidegree", failing)
    elem = build_catalog("m2-elem")
    with pytest.raises(RuntimeError, match="record task failed"):
        verify_basis(elem, dv_basis(elem.group), 3, jobs=2)
    assert multiprocessing.active_children() == []


# -- consequence-span elimination ------------------------------------------------


def _column_order_record(algebra, genset, degrees):
    """The record of one multidegree with the instance stages eliminated in a
    plain Echelon, pivoting on each row's first column, every instance
    checked against the target; and how many of the checked instances were
    dependent on the ones before."""
    if genset.mode == "identities":
        target = multilinear_identity_space(algebra, degrees)
    else:
        target = multilinear_central_space(algebra, degrees)
    pg = target.pg
    cons = Echelon(pg.ncols)
    witness = None
    dependent = 0
    for stage in pitool._instance_stages(genset, pg):
        for vec in stage:
            if not target.contains(vec):
                witness = "instance outside the target space: %s" % (
                    pg.from_vector(vec, genset.order))
                break
            if not cons.add(vec):
                dependent += 1
            if cons.dim == target.dim:
                break
        if witness is not None or cons.dim == target.dim:
            break
    equal = witness is None and cons.dim == target.dim
    if witness is None and not equal:
        witness = next("missing from consequences: %s" % pg.from_vector(v, genset.order)
                       for v in target.span().sparse_basis() if not cons.contains(v))
    return pitool.VerificationRecord(pg.words(), pitool._orbit_size(degrees), target.dim,
                                     cons.dim, equal, witness), dependent


def _cut_pauli3_family():
    """The pauli-3 degree-3 family with every third s1 member kept and no
    fast source, as a written family file loads."""
    fam = family_pauli(build_catalog("pauli", n=3), 3)
    return GeneratorSet("pauli3-cut", "identities", fam.group, fam.order,
                        s1=fam.s1[::3], s2=fam.s2, extras=fam.extras)


def _broken_pauli3_family():
    """The pauli-3 degree-3 family with s1 member 20, x1:y^2*x2:y^2 -
    x2:y^2*x1:y^2, no longer an identity and no fast source, as a written
    family file loads."""
    fam = _with_broken_member(family_pauli(build_catalog("pauli", n=3), 3), 20)
    return GeneratorSet("pauli3-broken", "identities", fam.group, fam.order,
                        s1=fam.s1, s2=fam.s2, extras=fam.extras)


@pytest.mark.parametrize("name, params, basis, mode", [
    ("pauli", {"n": 3}, "pauli", "identities"),
    ("m2-4", {}, "regular", "centrals"),
    ("e-series", {"eps": -1, "n": 4}, "corollary", "centrals"),
    ("pauli", {"n": 3}, "cut", "identities"),
    ("pauli", {"n": 3}, "broken", "identities"),
], ids=["pauli3", "m2-4-regular-centrals", "e-series-corollary-centrals", "pauli3-cut",
        "pauli3-broken"])
def test_mirrored_span_matches_column_order_elimination(name, params, basis, mode):
    """_check_multidegree, which eliminates from each row's last column and
    checks only the instances that enter the span against the target, gives
    the record of first-column elimination that checks every instance, at
    every sorted multidegree of length <= 3, FAIL witnesses included.  In
    the broken family some bad instance follows dependent ones, which the
    reference checks and the record skips."""
    algebra = build_catalog(name, **params)
    if basis == "cut":
        genset = _cut_pauli3_family()
    elif basis == "broken":
        genset = _broken_pauli3_family()
    else:
        genset = resolve_basis(basis, algebra, mode, 3)
    support = sorted(algebra.support)
    witnesses = []
    skipped_before_a_bad_instance = 0
    for n in (1, 2, 3):
        for degrees in itertools.combinations_with_replacement(support, n):
            record, _ = _check_multidegree(algebra, genset, degrees)
            reference, dependent = _column_order_record(algebra, genset, degrees)
            assert record.as_dict() == reference.as_dict(), degrees
            if not record.equal:
                witnesses.append(record.witness)
                if record.witness.startswith("instance outside"):
                    skipped_before_a_bad_instance += dependent
    if basis == "cut":
        # the cut family leaves records open, each with a missing target vector
        assert witnesses
        assert all(w.startswith("missing from consequences: ") for w in witnesses)
    elif basis == "broken":
        assert skipped_before_a_bad_instance
        assert all(w.startswith("instance outside the target space: ") for w in witnesses)
    else:
        assert not witnesses


@pytest.mark.parametrize("degrees", [
    [(0, 1), (3, 0), (0, 1), (3, 1), (0, 1)],
    # four y: no direct kernel stage, and 514 instances for the 118 rows
    [(0, 1), (3, 0), (0, 1), (0, 1), (0, 1)],
], ids=["y.x3.y.x3y.y", "y.x3.y.y.y"])
def test_passing_long_record_checks_only_its_kept_rows(monkeypatch, degrees):
    """A passing degree-five long record checks against its target only the
    instances that enter the span: one Target.contains per kept row."""
    calls = [0]
    contains = pitool.Target.contains

    def counted(self, vec):
        calls[0] += 1
        return contains(self, vec)

    monkeypatch.setattr(pitool.Target, "contains", counted)
    rec = check_pauli_multidegree(build_catalog("pauli", n=4), degrees)
    assert rec.equal
    assert calls[0] == rec.dim_consequence == 118


def test_pauli4_deg5_consequence_span_makes_no_fill(monkeypatch):
    """At pauli4-deg5's degrees the consequence span subtracts fewer than 100
    rows (first-column pivots subtract 3,538); the equations of the target,
    built before the span, are not counted."""
    from gradedpi import scalars

    calls, eliminating = [0], [False]
    subtract, close_span = scalars._subtract_multiple, pitool._close_span

    def counted(*args):
        calls[0] += eliminating[0]
        return subtract(*args)

    def closing(*args):
        eliminating[0] = True
        try:
            return close_span(*args)
        finally:
            eliminating[0] = False

    monkeypatch.setattr(scalars, "_subtract_multiple", counted)
    monkeypatch.setattr(pitool, "_close_span", closing)
    rec = check_pauli_multidegree(build_catalog("pauli", n=4),
                                  [(0, 1), (3, 0), (0, 1), (3, 1), (0, 1)])
    assert rec.equal and rec.dim_consequence == 118
    assert calls[0] < 100


# -- membership decided on the record's target ---------------------------------


_DIFFERENTIAL_SETS = {
    # name: (catalog id, parameters, basis, mode); None is the dv-lemma basis
    # transferred along m2-4 onto m2-elem (x) m2-4
    "pauli3": ("pauli", {"n": 3}, "pauli", "identities"),
    "pauli4": ("pauli", {"n": 4}, "pauli", "identities"),
    "m2-4-regular": ("m2-4", {}, "regular", "identities"),
    "m2-8-regular": ("m2-8", {}, "regular", "identities"),
    "m2-elem-dv": ("m2-elem", {}, "dv-lemma", "identities"),
    "okhitin": ("m2r-triv", {}, "okhitin", "centrals"),
    "lifted": ("m2c-z4", {}, "corollary", "identities"),
    "lifted-centrals": ("m2c-z4", {}, "corollary", "centrals"),
    "transferred": None,
}


@pytest.mark.parametrize("name", list(_DIFFERENTIAL_SETS))
def test_membership_on_the_target_matches_evaluation(name):
    """is_identity on a record's target gives the verdict and witness of
    direct evaluation, for every member of the family whose degrees form a
    record (length <= 5, over the support) and for two mutants of each: one
    term scaled, one term dropped."""
    spec = _DIFFERENTIAL_SETS[name]
    if spec is None:
        elem, m24 = build_catalog("m2-elem"), build_catalog("m2-4")
        algebra = tensor(elem, m24)
        genset = transfer_basis(dv_basis(elem.group), m24)
    else:
        cid, kw, basis, mode = spec
        algebra = build_catalog(cid, **kw)
        genset = resolve_basis(basis, algebra, mode, 3)
    by_degrees = {}
    for f in genset.s1 + genset.s2 + genset.extras:
        degrees = pitool._member_degrees(f)
        if degrees and len(degrees) <= 5 and set(degrees) <= set(algebra.support):
            by_degrees.setdefault(degrees, []).append(f)
    assert by_degrees
    verdicts = set()
    for degrees, members in by_degrees.items():
        target = multilinear_identity_space(algebra, degrees)
        for f in members:
            dropped = FreePoly(f.group, f.order, dict(sorted(f.terms.items())[:-1]))
            for g in (f, _scaled_first_term(f), dropped):
                expected = is_identity(algebra, g)
                assert is_identity(algebra, g, target) == expected, (degrees, str(g))
                verdicts.add(expected[0])
    assert verdicts == {True, False}


def test_membership_target_of_other_degrees_falls_back():
    """A target at other degrees, or a central target, decides nothing by
    itself: the verdict is evaluation's, or the call (is_identity or
    is_central) is refused."""
    p3 = build_catalog("pauli", n=3)
    f = parse_poly("x1:x*x2:y - x2:y*x1:x", p3.group, 12)
    expected = is_identity(p3, f)
    other = multilinear_identity_space(p3, [(1, 0), (1, 0)])
    assert is_identity(p3, f, other) == expected
    central = multilinear_central_space(p3, [(1, 0), (0, 1)])
    with pytest.raises(PreconditionError):
        is_identity(p3, f, central)
    with pytest.raises(PreconditionError):
        is_central(p3, f, central)


def _counted_evaluations(monkeypatch):
    """The polynomials evaluated from now on, in order (a list filled in place)."""
    evaluated = []
    real = pitool._substitution_values

    def counted(algebra, poly):
        evaluated.append(poly)
        return real(algebra, poly)

    monkeypatch.setattr(pitool, "_substitution_values", counted)
    return evaluated


def test_passing_verify_evaluates_no_member(monkeypatch):
    """On a passing pauli-3 campaign every member is decided on its record's
    target; a broken member is the only one evaluated, and its entry carries
    the witness that direct evaluation gives."""
    p3 = build_catalog("pauli", n=3)
    fam = family_pauli(p3, 3)
    evaluated = _counted_evaluations(monkeypatch)
    rep = verify_basis(p3, fam, 3)
    assert rep.ok and len(rep.membership) == 514
    assert evaluated == []
    broken = _with_broken_member(fam, 100)
    rep = verify_basis(p3, broken, 3)
    assert evaluated == [broken.s1[100]]
    bad = [m for m in rep.membership if not m["ok"]]
    ok, witness = is_identity(p3, broken.s1[100])
    assert not ok
    assert bad == [{"part": "s1", "poly": str(broken.s1[100]), "verdict": "not-an-identity",
                    "ok": False, "witness": pitool._witness_text(witness)}]


# -- membership decided on the identity target of a member's core ---------------


def test_core_strips_the_letters_every_monomial_shares_at_either_end():
    p3 = build_catalog("pauli", n=3)
    padded = parse_poly("x3:x*x1:x*x2:y*x4:y - x3:x*x2:y*x1:x*x4:y", p3.group, 12)
    assert pitool._core_slice(list(padded.terms)) == slice(1, 3)
    assert pitool._core_degrees(padded, 2) == ((0, 1), (1, 0))
    assert pitool._core_degrees(padded, 1) is None
    bare = parse_poly("x1:x*x2:y - x2:y*x1:x", p3.group, 12)
    assert pitool._core_slice(list(bare.terms)) == slice(0, 2)
    assert pitool._core_degrees(parse_poly("x1:x*x2:y", p3.group, 12), 6) is None


_CENTRAL_SETS = [
    ("e-series", {"eps": -1, "n": 4}, "corollary"),
    ("m2c-z4", {}, "corollary"),
    ("m2-4", {}, "regular"),
    ("m2-8", {}, "regular"),
    ("m2r-triv", {}, "okhitin"),
    ("m2-elem", {}, "bp-centrals"),
]


def test_central_membership_on_the_core_target_matches_evaluation():
    """is_central on the identity space at a polynomial's core degrees gives
    the verdict and witness of is_central without a target, for every member
    of the central families and for two mutants of each: one term scaled,
    one term dropped."""
    verdicts = set()
    decided = 0
    for cid, kw, basis in _CENTRAL_SETS:
        algebra = build_catalog(cid, **kw)
        genset = resolve_basis(basis, algebra, "centrals", 3)
        targets = {}
        for f in genset.s1 + genset.s2:
            dropped = FreePoly(f.group, f.order, dict(sorted(f.terms.items())[:-1]))
            for g in (f, _scaled_first_term(f), dropped):
                expected = is_central(algebra, g)
                verdicts.add(expected[0])
                core = (pitool._core_degrees(g, 6) if pitool._member_degrees(g) is not None
                        else None)
                if core is None:
                    continue
                if core not in targets:
                    targets[core] = multilinear_identity_space(algebra, core)
                assert is_central(algebra, g, targets[core]) == expected, (cid, str(g))
                decided += pitool._solves(g, targets[core])
    assert verdicts == {"identity", "proper-central", "neither"}
    assert decided > 0


def test_central_verify_evaluates_only_the_proper_central_members(monkeypatch):
    """On e-series(-1,4) centrals every padded member is decided on the
    identity space of its core; the 4 proper-central members are the only
    ones evaluated, and a broken padded member is evaluated, with the entry
    direct evaluation gives."""
    e4 = build_catalog("e-series", eps=-1, n=4)
    genset = resolve_basis("corollary", e4, "centrals", 3)
    evaluated = _counted_evaluations(monkeypatch)
    rep = verify_basis(e4, genset, 3)
    assert rep.ok and len(rep.membership) == 196
    assert evaluated == genset.s2 and len(evaluated) == 4
    broken = _with_broken_member(genset, 50)
    del evaluated[:]
    rep = verify_basis(e4, broken, 3)
    assert evaluated == [broken.s1[50]] + genset.s2
    entry = pitool._membership_entry(e4, "centrals", "s1", broken.s1[50])
    assert not entry["ok"] and entry["witness"]
    assert rep.membership[50] == entry
    assert [m for m in rep.membership if not m["ok"]] == [entry]


def test_padded_identity_member_is_decided_in_its_core_record(monkeypatch):
    """A pair binomial padded to length 4 is decided on the target of its
    core's record at max_degree 2, at one and two jobs, with the entry
    direct evaluation gives."""
    p3 = build_catalog("pauli", n=3)
    fam = family_pauli(p3, 2)
    pair = next(f for f in fam.s1 if len(f.letters()) == 2)
    x3, x4 = (monomial_poly(p3.group, fam.order, [lt])
              for lt in ((3, (1, 0)), (4, (0, 1))))
    padded = x3 * pair * x4
    assert len(padded.terms) == 2 and pitool._core_degrees(padded, 2) == tuple(
        sorted(d for _, d in pair.letters()))
    genset = GeneratorSet("padded", "identities", fam.group, fam.order,
                          s1=fam.s1 + [padded], fast_source=fam.fast_source)
    evaluated = _counted_evaluations(monkeypatch)
    expected = pitool._membership_entry(p3, "identities", "s1", padded)
    assert expected["ok"]
    del evaluated[:]
    for jobs in (1, 2):
        rep = verify_basis(p3, genset, 2, jobs=jobs)
        assert rep.ok and rep.membership[-1] == expected
    assert padded not in evaluated
    assert evaluated  # the length-3 members still are


# -- the reducer --------------------------------------------------------------------


def test_reduce_distinct_degrees_unchanged():
    p3 = build_catalog("pauli", n=3)
    f = parse_poly("x1:x*x2:y - x2:y*x1:x", p3.group, 12)
    red, cert = pauli_reduce(p3, f)
    assert red == FreePoly(p3.group, red.order, f.terms)
    assert cert == []


def test_reduce_pair_merge_p3():
    p3 = build_catalog("pauli", n=3)
    f = parse_poly("x1:x*x2:x", p3.group, 12)
    red, cert = pauli_reduce(p3, f)
    assert len(cert) == 1
    letters = red.letters()
    assert len(letters) == 1
    assert letters[0][1] == (2, 0)
    replay_certificate(FreePoly(p3.group, red.order, f.terms), red, cert)


def test_replay_rejects_tampered_certificate_under_optimize():
    """Replay keeps its checks when python -O strips assert statements."""
    import gradedpi

    script = textwrap.dedent("""
        from gradedpi.algebras import build_catalog
        from gradedpi.errors import VerificationFailure
        from gradedpi.freealg import FreePoly, parse_poly
        from gradedpi.pitool import pauli_reduce, replay_certificate

        p3 = build_catalog("pauli", n=3)
        f = parse_poly("x1:x*x2:x", p3.group, 12)
        red, cert = pauli_reduce(p3, f)
        try:
            replay_certificate(FreePoly(p3.group, red.order, f.terms),
                               red.scale(2), cert)
        except VerificationFailure:
            print("rejected")
        else:
            print("accepted")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradedpi.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.stdout.strip() == "rejected", proc.stderr


def test_reduce_is_identity_invariant_random():
    random.seed(5)
    for n_alg, trials in ((3, 25), (4, 25)):
        alg = build_catalog("pauli", n=n_alg)
        elems = alg.group.elements()
        for _ in range(trials):
            n = random.randint(2, 5)
            degrees = [random.choice(elems) for _ in range(n)]
            terms = {}
            for _ in range(random.randint(1, 4)):
                perm = list(range(n))
                random.shuffle(perm)
                terms[tuple((k + 1, degrees[k]) for k in perm)] = Fraction(
                    random.randint(-3, 3))
            f = FreePoly(alg.group, alg.order, terms)
            if f.is_zero():
                continue
            red, cert = pauli_reduce(alg, f)
            replay_certificate(FreePoly(alg.group, red.order, f.terms), red, cert)
            lhs = is_identity(alg, f)[0]
            rhs = True if red.is_zero() else is_identity(alg, red)[0]
            assert lhs == rhs


def test_reduce_needs_multilinear():
    p3 = build_catalog("pauli", n=3)
    f = parse_poly("x1:x*x1:x", p3.group, 12)
    with pytest.raises(PreconditionError):
        pauli_reduce(p3, f)


# -- the degree-seven check ------------------------------------------------------------


@pytest.fixture(scope="module")
def pauli_families():
    p3 = build_catalog("pauli", n=3)
    p4 = build_catalog("pauli", n=4)
    return {"pauli3": (p3, family_pauli(p3, 4)), "pauli4": (p4, family_pauli(p4, 3))}


@pytest.mark.parametrize("name, degs", [
    pytest.param("pauli4", [(1, 0), (0, 1), (1, 0)], id="pauli4-swap"),
    pytest.param("pauli3", [(1, 0), (1, 0), (2, 0), (1, 0)], id="pauli3-repeated"),
    pytest.param("pauli3", [(1, 0), (1, 0), (0, 1), (2, 1)], id="pauli3-nonreal"),
    pytest.param("pauli3", [(1, 0), (0, 1), (1, 1), (2, 0)], id="pauli3-distinct"),
    pytest.param("pauli3", [(1, 0), (0, 1), (1, 1)], id="pauli3-x-y-xy"),
    pytest.param("pauli4", [(1, 0), (0, 1), (2, 1)], id="pauli4-x-y-x2y"),
])
def test_check_pauli_multidegree_small(pauli_families, name, degs):
    """check_pauli_multidegree, which streams only the Pauli stages, agrees
    with the generic check against the exact identity space and the
    consequence span of the emitted family."""
    algebra, fam = pauli_families[name]
    rec = check_pauli_multidegree(algebra, degs)
    dense, _ = _check_multidegree(algebra, fam, degs)
    assert dense.equal
    assert rec.dim_target == multilinear_identity_space(algebra, degs).dim
    assert (rec.equal, rec.dim_target, rec.dim_consequence) == (
        dense.equal, dense.dim_target, dense.dim_consequence)


def test_check_pauli_multidegree_reports_instance_outside_target(monkeypatch):
    """An instance off the identity space gives a FAIL record with a
    witness, not an exception."""
    p3 = build_catalog("pauli", n=3)
    monkeypatch.setattr(pitool._PauliSource, "stages",
                        lambda self, pg: iter([iter([{0: Cyclo.one()}])]))
    rec = check_pauli_multidegree(p3, [(1, 0), (0, 1)])
    assert not rec.equal
    assert rec.witness.startswith("instance outside the target space")


def test_check_pauli_multidegree_reports_short_span(monkeypatch):
    """Stages that fall short of the identity space give a FAIL record whose
    witness, as in verify, names an identity the span misses."""
    p3 = build_catalog("pauli", n=3)
    degs = [(1, 0), (0, 1), (1, 1)]
    monkeypatch.setattr(pitool._PauliSource, "stages", lambda self, pg: iter([iter([])]))
    rec = check_pauli_multidegree(p3, degs)
    assert not rec.equal
    assert rec.dim_consequence == 0
    target = multilinear_identity_space(p3, degs)
    assert rec.dim_target == target.dim
    prefix = "missing from consequences: "
    assert rec.witness.startswith(prefix)
    order = pitool._pauli_source(p3).beta.order
    missing = parse_poly(rec.witness[len(prefix):], p3.group, order)
    assert target.contains(pitool._sparse_vector(target.pg, missing.terms.items()))


class ReorderingScalarReference:
    """The identity space of a Pauli-type grading at one multidegree as the
    reordering-scalar functional mu -> sum mu_k / gamma_k: its real
    solutions have codimension 1 when every weight is a real multiple of one
    number, and 2 otherwise.  On real vectors membership is the vanishing of
    the functional."""

    def __init__(self, algebra, degrees):
        beta, _ = detect_complex_bicharacter(algebra)
        gamma = [beta.powers[e] for e in pitool._gamma_values(beta, tuple(degrees))]
        self.weights = [g.inv() for g in gamma]
        self.codim = 1 if all((w * gamma[0]).is_real() for w in self.weights) else 2

    def contains(self, vec):
        return sum((c * self.weights[k] for k, c in vec.items()), Cyclo.zero()).is_zero()


def _assert_target_matches_reordering_reference(algebra, degs):
    """Equal dimensions and the target's basis inside the functional's real
    kernel make the two spaces equal; unit vectors must agree too."""
    target = multilinear_identity_space(algebra, degs)
    ref = ReorderingScalarReference(algebra, degs)
    assert target.dim == target.pg.ncols - ref.codim, degs
    assert all(ref.contains(v) for v in target.span().sparse_basis()), degs
    for k in range(target.pg.ncols):
        unit = {k: Cyclo.one()}
        assert target.contains(unit) == ref.contains(unit), (degs, k)


@pytest.mark.parametrize("name", ["pauli3", "pauli4"])
def test_target_matches_reordering_scalar_reference(pauli_families, name):
    """On the Pauli gradings the target agrees with the reordering-scalar
    functional, at every sorted multidegree of length <= 4."""
    algebra, _ = pauli_families[name]
    elements = sorted(algebra.group.elements())
    for n in (1, 2, 3, 4):
        for degs in itertools.combinations_with_replacement(elements, n):
            _assert_target_matches_reordering_reference(algebra, list(degs))


def test_target_matches_reordering_scalar_reference_pauli4_deg5(pauli_families):
    """The same at the degree-five pauli-4 shape (y, x^3, y, x^3y, y)."""
    algebra, _ = pauli_families["pauli4"]
    _assert_target_matches_reordering_reference(
        algebra, [(0, 1), (3, 0), (0, 1), (3, 1), (0, 1)])


def test_check_pauli_multidegree_pauli3_sweep(pauli_families):
    """Every sorted pauli-3 multidegree of length 2 and 3 reads complete.
    The target is verification's own, so the dimension check pins the two
    entry points together; the reordering-scalar reference tests the target
    itself."""
    algebra, _ = pauli_families["pauli3"]
    elements = sorted(algebra.group.elements())
    shapes = [list(d) for n in (2, 3)
              for d in itertools.combinations_with_replacement(elements, n)]
    assert len(shapes) == 210
    for degs in shapes:
        rec = check_pauli_multidegree(algebra, degs)
        assert rec.equal, (degs, rec.witness)
        assert rec.dim_target == multilinear_identity_space(algebra, degs).dim, degs


# -- the Pauli source's shared tables and the block cuts -----------------------


def _slicing_adjacent_cuts(mono, group):
    """Reference for _adjacent_cuts: each block degree as the product of its slice."""
    n = len(mono)
    for a in range(n):
        for b in range(a + 1, n + 1):
            d1 = group.product([d for _, d in mono[a:b]])
            for c in range(b + 1, n + 1):
                d2 = group.product([d for _, d in mono[b:c]])
                yield d1, d2, mono[:a] + mono[b:c] + mono[a:b] + mono[c:]


def _slicing_separated_cuts(mono, group):
    """Reference for _separated_cuts: each block degree as the product of its slice."""
    n = len(mono)
    for a in range(n):
        for b in range(a + 1, n + 1):
            b1 = mono[a:b]
            g = group.product([d for _, d in b1])
            for c in range(b, n + 1):
                for d in range(c + 1, n + 1):
                    b2 = mono[c:d]
                    if group.product([x for _, x in b2]) == g:
                        yield mono[:a], b1, mono[b:c], b2, mono[d:], g


def _two_walk_pair_relations(source, pg):
    """Reference for _PauliSource._pair_relations: conj on every cut, the
    triple and swap families on two walks over the separated cuts."""
    group, one = source.beta.group, Cyclo.one()
    for mono in pg.monomials:
        for d1, d2, swapped in _slicing_adjacent_cuts(mono, group):
            val = source.beta.eval(d1, d2)
            if val.is_real():
                yield pitool._binomial(pg, mono, swapped, val)
        for u, b1, w, b2, v, g in _slicing_separated_cuts(mono, group):
            if w:
                val = source.beta.eval(g, group.product([x for _, x in w]))
                if not val.is_real():
                    p, q = -(val + val.conj()), val * val.conj()
                    yield pitool._sparse_vector(pg, ((u + b1 + b2 + w + v, one), (mono, p),
                                                     (u + w + b1 + b2 + v, q)))
        if source.i_present:
            for u, b1, w, b2, v, _ in _slicing_separated_cuts(mono, group):
                yield pitool._binomial(pg, mono, u + b2 + w + b1 + v, one)


def _cut_multidegrees(algebra, seed):
    """Multidegrees of every length up to five: a repeated degree, one with
    the identity degree, and seeded random tuples."""
    rng = random.Random(seed)
    elements = sorted(algebra.group.elements())
    out = []
    for n in range(1, 6):
        out.append([elements[1]] * n)
        out.append([elements[0]] + [elements[-1]] * (n - 1))
        out.extend([rng.choice(elements) for _ in range(n)] for _ in range(3))
    return out


@pytest.mark.parametrize("name", ["pauli3", "pauli4"])
def test_cuts_match_the_slicing_reference(pauli_families, name):
    """The block-degree-table cuts yield the slicing reference's tuples in the
    same order, on every monomial of multidegrees of length up to five."""
    algebra, _ = pauli_families[name]
    group = algebra.group
    for degs in _cut_multidegrees(algebra, seed=len(name)):
        pg = MultidegreeBasis(group, degs)
        for mono in pg.monomials:
            pre = pitool._prefix_masks(mono)
            assert list(pitool._adjacent_cuts(mono, pre, pg.subset_degrees)) == \
                list(_slicing_adjacent_cuts(mono, group))
            assert list(pitool._separated_cuts(mono, pre, pg.subset_degrees)) == \
                list(_slicing_separated_cuts(mono, group))


@pytest.mark.parametrize("name", ["pauli3", "pauli4"])
def test_pair_relations_match_the_two_walk_reference(pauli_families, name):
    """The pair tables and the single walk over the separated cuts give the
    reference's instance vectors in the same order, at lengths up to four
    (pauli-4 has the swap family, pauli-3 does not)."""
    algebra, fam = pauli_families[name]
    source = fam.fast_source
    assert source.i_present == (name == "pauli4")
    for degs in _cut_multidegrees(algebra, seed=7)[:20]:
        pg = MultidegreeBasis(algebra.group, degs)
        assert list(source._pair_relations(pg)) == \
            [vec for vec in _two_walk_pair_relations(source, pg) if vec]


@pytest.mark.parametrize("name", ["pauli3", "pauli4"])
def test_pauli_stages_read_block_degrees_off_one_table(pauli_families, name,
                                                       monkeypatch):
    """The pair relations, the alternating relations and the partition
    kernels of one record together make at most 2^n - 1 group operations,
    those of the record's subset-degree table, and no group.product, at
    lengths up to four."""
    algebra, fam = pauli_families[name]
    source = fam.fast_source
    calls = {"op": 0, "product": 0}
    _counted_group_calls(monkeypatch, calls)
    instances = 0
    for degs in _cut_multidegrees(algebra, seed=7)[:20]:
        pg = MultidegreeBasis(algebra.group, degs)
        calls["op"] = 0
        for stage in (source._pair_relations, source._alternating_relations,
                      source._partition_kernels):
            instances += sum(1 for _ in stage(pg))
        assert calls["op"] <= 2 ** len(degs) - 1, degs
    assert calls["product"] == 0
    assert instances


def _product_alternating_relations(source, pg):
    """Reference for _PauliSource._alternating_relations: each block's
    degree by group.product of its slice."""
    group, one = source.beta.group, Cyclo.one()
    for mono in pg.monomials:
        by_degree = {}
        for t, (_, d) in enumerate(mono):
            by_degree.setdefault(d, []).append(t)
        for g, positions in by_degree.items():
            if len(positions) != 4:
                continue
            p1, p2, p3, p4 = positions
            blocks = [mono[p1 + 1:p2], mono[p2 + 1:p3], mono[p3 + 1:p4]]
            if all(blk and group.product([d for _, d in blk]) in source.partners[g]
                   for blk in blocks):
                other = (mono[:p1] + tuple(mono[p] for p in positions)
                         + blocks[0] + blocks[1] + blocks[2] + mono[p4 + 1:])
                yield pitool._sparse_vector(pg, ((mono, one), (other, one)))


def test_alternating_relations_match_the_product_reference(pauli_families, monkeypatch):
    """At the degree-seven record shape of pauli-4, the alternating
    relations read off the record's table, at most 2^7 - 1 group operations
    and no group.product, are the group.product reference's, in the same
    order."""
    algebra, fam = pauli_families["pauli4"]
    source = fam.fast_source
    pg = MultidegreeBasis(algebra.group, source.long_shape)
    calls = {"op": 0, "product": 0}
    with monkeypatch.context() as m:
        _counted_group_calls(m, calls)
        got = list(source._alternating_relations(pg))
    assert calls["op"] <= 2 ** 7 - 1 and calls["product"] == 0
    assert got and got == list(_product_alternating_relations(source, pg))


def _product_partition_kernels(source, pg):
    """Reference for _PauliSource._partition_kernels: the frozen reference
    block assignments, each block's degree by group.product."""
    group = source.beta.group
    for k in range(2, len(pg.letters)):
        for blocks, prefix, suffix in _reference_block_assignments(
                pg.letters, [None] * k, True, group):
            degs = [group.product([d for _, d in blk]) for blk in blocks]
            if source.admitted(degs):
                yield from pitool._kernel_vectors(pg, source.kernel_shapes(degs), blocks,
                                                  prefix, suffix)


def test_partition_kernels_match_the_product_reference(pauli_families):
    """On the pauli-3 records of length <= 4 whose first stage does not
    close the span, so that verification reads the second, the partition
    kernels read off the record's table are the group.product reference's,
    in the same order."""
    algebra, fam = pauli_families["pauli3"]
    source = fam.fast_source
    reached = 0
    for n in range(3, 5):
        for degs in itertools.combinations_with_replacement(sorted(algebra.support), n):
            target = multilinear_identity_space(algebra, degs)
            first = pitool.Subspace(target.pg)
            for vec in next(source.stages(target.pg)):
                first.add(vec)
            if first.dim == target.dim:
                continue
            reached += 1
            pg = MultidegreeBasis(algebra.group, degs)
            assert list(source._partition_kernels(pg)) == \
                list(_product_partition_kernels(source, pg)), degs
    assert reached


@pytest.mark.parametrize("name", ["pauli3", "pauli4"])
def test_kernel_shapes_match_kernel_perm_vectors(pauli_families, name):
    """kernel_shapes, which shares the source's realness and coefficient
    tables between tuples, is _kernel_perm_vectors with tables of the
    tuple's own at every admitted sorted degree tuple of length up to four
    (and, on pauli-3, at the reversed tuple), a second lookup returns
    the kept shapes, and the kept ranks are the itertools.permutations
    ranks of the shapes' permutations, identity after identity."""
    algebra, _ = pauli_families[name]
    source = pitool._pauli_source(algebra)
    elements = sorted(algebra.group.elements())
    for n in range(1, 5):
        for degs in itertools.combinations_with_replacement(elements, n):
            if not source.admitted(degs):
                continue
            tuples = [degs, degs[::-1]] if name == "pauli3" else [degs]
            for d in tuples:
                shapes = source.kernel_shapes(d)
                shapes_alone, ranks = pitool._kernel_perm_vectors(source.beta, d, {}, {})
                assert shapes == shapes_alone
                assert source.kernel_shapes(list(d)) is shapes
                rank_of = {p: r for r, p in enumerate(itertools.permutations(range(n)))}
                assert list(source._kernel(d)[1]) == list(ranks) == \
                    [rank_of[perm] for shape in shapes for perm, _ in shape]


def _parent_gamma_values(beta, degrees):
    """_gamma_values with each reordering scalar a chain of Cyclo products of
    generator-table powers over the inverted pairs, as it was computed
    before the scalars were held as exponents."""
    n = len(degrees)
    out = {}
    for perm in itertools.permutations(range(n)):
        pos = [perm.index(v) for v in range(n)]
        lam = Cyclo.one()
        for u, v in itertools.combinations(range(n), 2):
            if pos[u] > pos[v]:
                for (i, gi), (j, hj) in itertools.product(enumerate(degrees[u]),
                                                          enumerate(degrees[v])):
                    if gi and hj:
                        lam = lam * beta.table[i][j] ** (gi * hj)
        out[perm] = lam
    return out


def _per_permutation_kernel_perm_vectors(beta, degrees):
    """_kernel_perm_vectors with each reordering scalar a product of table
    powers and each permutation's realness and coefficients computed from
    its own scalar."""
    gammas = _parent_gamma_values(beta, degrees)
    identity_perm = tuple(range(len(degrees)))
    one = Cyclo.one()
    real_perms = [p for p, g in gammas.items() if g.is_real() and p != identity_perm]
    nonreal_perms = [p for p, g in gammas.items() if not g.is_real()]
    out = [[(identity_perm, one), (p, -gammas[p])] for p in real_perms]
    if nonreal_perms:
        tau0 = nonreal_perms[0]
        g_tau = gammas[tau0]
        for p in nonreal_perms[1:]:
            g_sig = gammas[p]
            a, b = g_sig.inv(), g_tau.inv()
            det = a * b.conj() - b * a.conj()
            if det.is_zero():
                ratio = g_tau / g_sig
                assert ratio.is_real()
                out.append([(p, one), (tau0, -ratio)])
            else:
                pp = (b - b.conj()) / det
                qq = (a.conj() - a) / det
                assert pp.is_real() and qq.is_real()
                assert (pp * a + qq * b + one).is_zero()
                out.append([(identity_perm, one), (p, pp), (tau0, qq)])
    return out


def _assert_walk_matches_parent(source, degs):
    """The exponent walk, mapped through beta.powers, is _parent_gamma_values
    permutation by permutation in itertools.permutations order, and
    kernel_shapes, which decides realness and computes coefficients once per
    distinct exponent, is the per-permutation computation on them."""
    beta = source.beta
    parent = _parent_gamma_values(beta, degs)
    assert list(parent) == list(itertools.permutations(range(len(degs))))
    assert [beta.powers[e] for e in pitool._gamma_values(beta, degs)] == \
        list(parent.values()), degs
    assert source.kernel_shapes(degs) == \
        _per_permutation_kernel_perm_vectors(beta, degs), degs


def test_kernel_coefficients_once_per_value_match_per_permutation():
    """The reordering exponents, walked off beta's pair exponents, give the
    Cyclo products of generator-table powers, permutation by permutation
    and in the same order; kernel_shapes equals the per-permutation
    computation on them.  Both at every sorted tuple of pauli-3 and pauli-4
    (length <= 4) and pauli-5 (length <= 3), at every admitted sorted tuple
    of pauli-3 of length 5 and its reversal, and at the pauli-4 shape of
    the pauli4-deg5 benchmark workload and its six-degree prefix, whose
    record closes at 718 of 718.  The quadratic pairs, computed once per
    distinct value, equal each pair's own _quadratic_pair on pauli-2 to
    pauli-5.  Only pauli-5 has trinomials with p != q and two distinct
    quadratic pairs."""
    for n, max_length in ((2, 0), (3, 4), (4, 4), (5, 3)):
        source = pitool._pauli_source(build_catalog("pauli", n=n))
        beta = source.beta
        assert source.quadratic == {pair: pitool._quadratic_pair(v)
                                    for pair, v in source.values.items()
                                    if not v.is_real()}
        elements = sorted(beta.group.elements())
        for length in range(1, max_length + 1):
            for degs in itertools.combinations_with_replacement(elements, length):
                _assert_walk_matches_parent(source, degs)
    source = pitool._pauli_source(build_catalog("pauli", n=3))
    for degs in itertools.combinations(sorted(source.beta.group.elements()), 5):
        assert source.admitted(degs)
        _assert_walk_matches_parent(source, degs)
        _assert_walk_matches_parent(source, degs[::-1])
    p4 = build_catalog("pauli", n=4)
    source = pitool._pauli_source(p4)
    assert source.long_shape[:5] == ((0, 1), (3, 0), (0, 1), (3, 1), (0, 1))
    for length in (5, 6):
        _assert_walk_matches_parent(source, source.long_shape[:length])
    record = check_pauli_multidegree(p4, source.long_shape[:6])
    assert (record.equal, record.dim_target, record.dim_consequence) == (True, 718, 718)


def test_direct_kernel_reads_ranks_as_kernel_vectors():
    """The direct kernel stage, read off the shapes' permutation ranks,
    yields the dicts of _kernel_vectors with each letter its own block, in
    the same order and with the same key order, at every admitted sorted
    tuple of pauli-3 (length <= 5) and pauli-4 (length <= 4)."""
    for n, max_length in ((3, 5), (4, 4)):
        algebra = build_catalog("pauli", n=n)
        source = pitool._pauli_source(algebra)
        elements = sorted(algebra.group.elements())
        for length in range(1, max_length + 1):
            for degs in itertools.combinations_with_replacement(elements, length):
                if not source.admitted(degs):
                    continue
                pg = MultidegreeBasis(algebra.group, degs)
                direct = list(source._direct_kernel(pg))
                expected = list(pitool._kernel_vectors(pg, source.kernel_shapes(degs),
                                                       [(lt,) for lt in pg.letters]))
                assert direct == expected, degs
                assert [list(v) for v in direct] == [list(v) for v in expected], degs


_OFF_BY_ONE_WALK = textwrap.dedent("""
    from gradedpi import pitool
    from gradedpi.algebras import build_catalog

    walk = pitool._inversion_exponents

    def off_by_one(column, order):
        return [(e + 1) % order for e in walk(column, order)]

    pitool._inversion_exponents = off_by_one
    p4 = build_catalog("pauli", n=4)
    degrees = [(0, 1), (3, 0), (0, 1), (3, 1), (0, 1)]
    try:
        pitool.check_pauli_multidegree(p4, degrees)
    except AssertionError as exc:
        print("raised" if "reorder_scalar" in str(exc) else "other: %s" % exc)
    else:
        print("accepted")
    print("debug" if __debug__ else "optimized")
""")


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "python-O"])
def test_off_by_one_exponent_walk_raises(optimize):
    """A reordering exponent walk that is off by one disagrees with
    reorder_scalar at the reversal, and the kernel shapes refuse it with
    AssertionError, also under python -O, which strips assert statements."""
    import gradedpi

    src = os.path.dirname(os.path.dirname(os.path.abspath(gradedpi.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-c", _OFF_BY_ONE_WALK], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.stdout.split() == ["raised", "optimized" if optimize else "debug"], \
        proc.stderr


def test_family_and_verification_build_each_kernel_shape_once(monkeypatch):
    """family_pauli followed by verify_basis builds the kernel shapes of each
    distinct degree tuple once: the instance stages reuse the family's."""
    builds = {}
    build = pitool._kernel_perm_vectors

    def counted(beta, degrees, *tables):
        key = tuple(degrees)
        builds[key] = builds.get(key, 0) + 1
        return build(beta, degrees, *tables)

    monkeypatch.setattr(pitool, "_kernel_perm_vectors", counted)
    p3 = build_catalog("pauli", n=3)
    fam = family_pauli(p3, 4)
    from_family = set(builds)
    assert verify_basis(p3, fam, 4).ok
    assert set(builds.values()) == {1}
    assert len(builds) > len(from_family)  # the partition stage adds unsorted tuples


# -- the family's members, each built in one construction -------------------------------


def _parent_pair_member(group, order, g, h, val):
    """x1:g x2:h - val x2:h x1:g, assembled as the builders once did."""
    x1 = monomial_poly(group, order, [(1, g)])
    x2 = monomial_poly(group, order, [(2, h)])
    return x1 * x2 - (x2 * x1).scale(val)


def _parent_triple_member(group, order, g, h, p, q):
    x1 = monomial_poly(group, order, [(1, g)])
    x2 = monomial_poly(group, order, [(2, g)])
    x3 = monomial_poly(group, order, [(3, h)])
    return x1 * x2 * x3 + (x1 * x3 * x2).scale(p) + (x3 * x1 * x2).scale(q)


def _parent_swap_member(group, order, g, h):
    x1 = monomial_poly(group, order, [(1, g)])
    x2 = monomial_poly(group, order, [(2, h)])
    x3 = monomial_poly(group, order, [(3, g)])
    return x1 * x2 * x3 - x3 * x2 * x1


def _parent_family_pauli(algebra, max_degree):
    """(name, assumptions, s1, extras) of family_pauli, every member built
    from monomials with *, scale, + and -, and the kernel shapes computed
    permutation by permutation."""
    source = pitool._pauli_source(algebra)
    beta, i_present = source.beta, source.i_present
    group, order = beta.group, beta.order
    s1, extras = [], []
    for (g, h), val in sorted(source.values.items()):
        if (g, h) in source.quadratic:
            s1.append(_parent_triple_member(group, order, g, h, *source.quadratic[(g, h)]))
        else:
            s1.append(_parent_pair_member(group, order, g, h, val))
        (s1 if i_present else extras).append(_parent_swap_member(group, order, g, h))
    for g, partners in source.partners.items():
        for h1, h2, h3 in itertools.product(partners, repeat=3):
            lts = {1: (1, g), 2: (2, h1), 3: (3, g), 4: (4, h2),
                   5: (5, g), 6: (6, h3), 7: (7, g)}
            m1 = monomial_poly(group, order, [lts[k] for k in (1, 2, 3, 4, 5, 6, 7)])
            m2 = monomial_poly(group, order, [lts[k] for k in (1, 3, 5, 7, 2, 4, 6)])
            s1.append(m1 + m2)
    for n in range(2, max_degree + 1):
        for degrees in itertools.combinations_with_replacement(sorted(group.elements()), n):
            if not source.admitted(degrees):
                continue
            for combo in _per_permutation_kernel_perm_vectors(beta, degrees):
                member = FreePoly(group, order, {})
                for perm, c in combo:
                    member = member + monomial_poly(
                        group, order, [(k + 1, degrees[k]) for k in perm], c)
                s1.append(member)
    assumptions = ["repeat bound %d per group element (imaginary commutation "
                   "value %s)" % (source.max_repeat, "present" if i_present else "absent")]
    return "pauli-families(max_degree=%d)" % max_degree, assumptions, s1, extras


def _poly_key(f):
    """Everything of a polynomial that its users read: its text, its order,
    and its terms in order."""
    return str(f), f.order, list(f.terms.items())


@pytest.mark.parametrize("n, max_degree", [(3, 3), (4, 3), (5, 3), (3, 4)])
def test_family_members_match_the_assembled_members(n, max_degree):
    """family_pauli, whose pair, triple, swap and alternating members are
    each one FreePoly construction, gives the members the assembled
    builders give, in the same order, with the same text, order and terms,
    and the same name and assumptions."""
    algebra = build_catalog("pauli", n=n)
    fam = family_pauli(algebra, max_degree)
    name, assumptions, s1, extras = _parent_family_pauli(algebra, max_degree)
    assert (fam.name, fam.assumptions) == (name, assumptions)
    assert [_poly_key(f) for f in fam.s1] == [_poly_key(f) for f in s1]
    assert [_poly_key(f) for f in fam.extras] == [_poly_key(f) for f in extras]


def test_member_builders_match_the_assembled_builders():
    """The three builders equal the assembled ones at every pair of degrees
    of pauli-3 to pauli-5, at the source's values and quadratic pairs (p = 0
    at i and -i on pauli-4 drops the middle term of the triple) and at a
    rational value with an order that is not the family's."""
    for n in (3, 4, 5):
        source = pitool._pauli_source(build_catalog("pauli", n=n))
        group, order = source.beta.group, source.beta.order
        for (g, h), val in source.values.items():
            for v in (val, Cyclo.rational(-2)):
                assert _poly_key(pitool._pair_member(group, 2, g, h, v)) == \
                    _poly_key(_parent_pair_member(group, 2, g, h, v))
            assert _poly_key(pitool._swap_member(group, order, g, h)) == \
                _poly_key(_parent_swap_member(group, order, g, h))
            pq = source.quadratic.get((g, h))
            if pq is not None:
                assert _poly_key(pitool._triple_member(group, 2, g, h, *pq)) == \
                    _poly_key(_parent_triple_member(group, 2, g, h, *pq))
                if pq[0].is_zero():
                    assert len(pitool._triple_member(group, order, g, h, *pq).terms) == 2


def _certificate_key(reduced, rounds):
    def use_key(use):
        member, prefix, blocks, suffix, coeff = use
        return _poly_key(member), prefix, blocks, suffix, coeff

    return _poly_key(reduced), [
        (r["degree"], r["alpha"], r["beta"], r["new"], _poly_key(r["result"]),
         [(m["coeff"], m["before"], _poly_key(m["after"]), [use_key(u) for u in m["uses"]])
          for m in r["monomials"]])
        for r in rounds]


def test_reduction_certificates_match_the_assembled_members(monkeypatch):
    """pauli_reduce gives the same reduced polynomial and certificate, every
    recorded member included, with the one-construction builders as with
    the assembled ones: on the README example and on random multilinear
    polynomials of pauli-3 and pauli-4, which between them use all three
    builders."""
    cases = [(3, "x1:x*x2:x*x3:y - x3:y*x2:x*x1:x")]
    rng = random.Random(17)
    for n_alg in (3, 4):
        elems = sorted(build_catalog("pauli", n=n_alg).group.elements())
        for _ in range(12):
            n = rng.randint(3, 6)
            degrees = [rng.choice(elems) for _ in range(n)]
            terms = {}
            for _ in range(rng.randint(1, 3)):
                perm = list(range(n))
                rng.shuffle(perm)
                terms[tuple((k + 1, degrees[k]) for k in perm)] = rng.randint(-3, 3)
            cases.append((n_alg, terms))
    # four letters of one degree split by blocks of value i: the swap detour
    shape = pitool._pauli_source(build_catalog("pauli", n=4)).long_shape
    cases.append((4, {tuple((k + 1, d) for k, d in enumerate(shape)): 1,
                      tuple((k + 1, shape[k]) for k in (1, 0, 2, 3, 5, 4, 6)): -2}))
    results = []
    for builders in ("one construction", "assembled"):
        used = set()
        if builders == "assembled":
            for name, parent in (("_pair_member", _parent_pair_member),
                                 ("_triple_member", _parent_triple_member),
                                 ("_swap_member", _parent_swap_member)):
                def counted(*args, name=name, parent=parent):
                    used.add(name)
                    return parent(*args)

                monkeypatch.setattr(pitool, name, counted)
        out = []
        for n_alg, poly in cases:
            alg = build_catalog("pauli", n=n_alg)
            f = (parse_poly(poly, alg.group, alg.order) if isinstance(poly, str)
                 else FreePoly(alg.group, alg.order, poly))
            try:
                red, rounds = pauli_reduce(alg, f)
            except PreconditionError as exc:
                out.append(str(exc))
                continue
            replay_certificate(FreePoly(alg.group, red.order, f.terms), red, rounds)
            out.append(_certificate_key(red, rounds))
        results.append(out)
    assert used == {"_pair_member", "_triple_member", "_swap_member"}
    assert results[0] == results[1]


def test_kernel_coefficients_once_per_value_pair(monkeypatch):
    """A Pauli source computes the kernel coefficients of each distinct
    (gamma_sigma, gamma_tau0) once, for all its degree tuples: 4 times for
    the family of a fresh pauli-3 and pauli-4 up to degree 3 (against 110
    and 650 tuple-by-tuple computations).  check_pauli_multidegree on the
    same algebra reads the family's source and computes none; on another
    algebra it computes its own."""
    calls = []
    compute = pitool._kernel_coefficients

    def counted(g_sig, g_tau):
        calls.append((g_sig, g_tau))
        return compute(g_sig, g_tau)

    monkeypatch.setattr(pitool, "_kernel_coefficients", counted)
    for n in (3, 4):
        del calls[:]
        alg = build_catalog("pauli", n=n)
        fam = family_pauli(alg, 3)
        assert len(calls) == len(set(calls)) == 4
        # the table is keyed by the exponents (e_sigma, e_tau0) of the values
        powers = fam.fast_source.beta.powers
        table = fam.fast_source._coefficients
        assert {(powers[e_sig], powers[e_tau]): coeffs
                for (e_sig, e_tau), coeffs in table.items()} == \
            {key: compute(*key) for key in calls}
        del calls[:]
        check_pauli_multidegree(alg, [(1, 0), (0, 1), (1, 1)])
        assert calls == []
        check_pauli_multidegree(build_catalog("pauli", n=n), [(1, 0), (0, 1), (1, 1)])
        assert calls and len(calls) == len(set(calls))


def test_complex_fastpath_matches_full_enumeration():
    """Identity/central spaces computed from one representative per (b, J b)
    pair agree with the full basis-tuple enumeration."""
    import copy

    p3 = build_catalog("pauli", n=3)
    full = copy.copy(p3)
    full._complex_checked = True
    full._complex = None  # force full substitution tuples
    for degrees in ([(1, 0), (0, 1)], [(1, 0), (1, 0), (2, 1)]):
        fast_i = multilinear_identity_space(p3, degrees)
        slow_i = multilinear_identity_space(full, degrees)
        assert fast_i.dim == slow_i.dim
        for v in fast_i.basis():
            assert slow_i.contains(v)
        fast_c = multilinear_central_space(p3, degrees)
        slow_c = multilinear_central_space(full, degrees)
        assert fast_c.dim == slow_c.dim


def test_evaluate_zero_substitution():
    from gradedpi.freealg import evaluate

    alg = build_catalog("m2-4")
    f = commutator_poly(alg.group, degrees=[(1, 0), (0, 1)])
    val = evaluate(f, {(1, (1, 0)): {}, (2, (0, 1)): {}}, alg)
    assert val == {}


def test_exact_matrix_kernel_entry():
    from gradedpi.scalars import kernel_over_real_subfield

    basis = kernel_over_real_subfield([[Cyclo.one(), -Cyclo.one()]])
    assert len(basis) == 1 and basis[0][0] == basis[0][1]


def test_commutative_cyclic_grading_completeness():
    alg = build_catalog("d-cyclic", m=3, eps=1)
    beta, witness = detect_regular(alg)
    assert witness is None and beta.radical() == alg.group.elements()
    rep_i = verify_basis(alg, family_regular(beta, "identities"), 3)
    rep_c = verify_basis(alg, family_regular(beta, "centrals"), 3)
    assert rep_i.ok and rep_c.ok


def test_coarsened_division_gradings_share_the_elementary_bases():
    """The order-two coarsenings of the quaternion and Sylvester gradings
    satisfy exactly the elementary-grading identities and centrals."""
    for name in ("h2", "m2-2"):
        alg = build_catalog(name)
        assert verify_basis(alg, dv_basis(alg.group), 3).ok
        assert verify_basis(alg, bp_basis(alg.group), 3).ok


def test_pauli3_family_members_vanish_on_explicit_matrices():
    """Independent oracle: emitted family members evaluate to zero on the
    actual 3x3 clock and shift matrices over Q(zeta_12), multiplying dense
    matrices rather than using the algebra's structure constants."""
    z3 = Cyclo.zeta(12, 4)
    i_s = Cyclo.zeta(12, 3)
    zero, one = Cyclo.zero(), Cyclo.one()

    def matmul(a, b):
        return tuple(tuple(sum((a[r][k] * b[k][c] for k in range(3)), zero)
                           for c in range(3)) for r in range(3))

    def matscale(s, a):
        return tuple(tuple(s * e for e in row) for row in a)

    def matadd(a, b):
        return tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))

    X = ((one, zero, zero), (zero, z3, zero), (zero, zero, z3 * z3))
    Y = ((zero, zero, one), (one, zero, zero), (zero, one, zero))
    I3 = ((one, zero, zero), (zero, one, zero), (zero, zero, one))

    def rep(degree, imag):
        s, t = degree
        m = I3
        for _ in range(s):
            m = matmul(m, X)
        for _ in range(t):
            m = matmul(m, Y)
        return matscale(i_s, m) if imag else m

    p3 = build_catalog("pauli", n=3)
    fam = family_pauli(p3, 3)
    zero_mat = tuple((zero,) * 3 for _ in range(3))
    random.seed(99)
    sample = random.sample(fam.s1, 40) + fam.extras[:5]
    for f in sample:
        letters = f.letters()
        # both the plain representatives and some i-twisted substitutions
        for imag_mask in (tuple(False for _ in letters),
                          tuple(k % 2 == 1 for k in range(len(letters)))):
            assign = {lt: rep(lt[1], imag_mask[k]) for k, lt in enumerate(letters)}
            total = zero_mat
            for mono, coeff in f.terms.items():
                m = I3
                for lt in mono:
                    m = matmul(m, assign[lt])
                total = matadd(total, matscale(coeff.lift(12), m))
            assert total == zero_mat, str(f)


def test_pauli_source_tables_match_the_bicharacter():
    """The i-partners, i_present, the imaginary pairs and the degree-seven
    record shape that _PauliSource derives once equal their definitions by
    the bicharacter on pauli-2 to pauli-5: h is an i-partner of g when
    beta(g, h) = i, and the shape is g h1 g h2 g h3 g at the first g with
    three partners h1, h2, h3."""
    for n in (2, 3, 4, 5):
        source = pitool._pauli_source(build_catalog("pauli", n=n))
        beta = source.beta
        elements = beta.group.elements()
        i_val = Cyclo.zeta(beta.order, beta.order // 4)
        partners = {g: [h for h in elements if beta.eval(g, h) == i_val] for g in elements}
        assert source.partners == partners
        assert source.i_present == any(beta.eval(g, h) * beta.eval(g, h) == -1
                                       for g in elements for h in elements)
        assert source.i_present == (n == 4)
        for g in elements:
            for h in elements:
                assert source.imaginary(g, h) == (beta.eval(g, h) * beta.eval(g, h) == -1)
        shape = next(((g, ps[0], g, ps[1], g, ps[2], g)
                      for g in elements for ps in [partners[g]] if len(ps) >= 3), None)
        assert source.long_shape == shape
        assert (shape is None) == (n != 4)
