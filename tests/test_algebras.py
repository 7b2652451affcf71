import copy
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from gradedpi import algebras, scalars
from gradedpi.algebras import (
    build_catalog,
    build_twisted_group_algebra,
    catalog_ids,
    center,
    center_echelon,
    check_graded_division,
    coarsen_by_quotient,
    complex_unit,
    detect_complex_bicharacter,
    detect_regular,
    invert,
    tensor,
)
from gradedpi.cli import algebra_spec_dict
from gradedpi.errors import PreconditionError, ResourceRefusal
from gradedpi.groups import Bicharacter, FiniteAbelianGroup, bichar_tensor
from gradedpi.scalars import Cyclo


def cy(x):
    return Cyclo.rational(x)


# -- oracle: explicit 2x2 matrices over Q(zeta_8) ------------------------------

def mat(a, b, c, d):
    return ((a, b), (c, d))


def mat_mul(x, y):
    return tuple(tuple(sum((x[i][k] * y[k][j] for k in range(2)), Cyclo.zero())
                       for j in range(2)) for i in range(2))


I2 = mat(cy(1), cy(0), cy(0), cy(1))
A2 = mat(cy(1), cy(0), cy(0), cy(-1))
B2 = mat(cy(0), cy(1), cy(1), cy(0))
C2M = mat(cy(0), cy(1), cy(-1), cy(0))


def test_m2_4_against_matrix_oracle():
    alg = build_catalog("m2-4")
    mats = {"I": I2, "A": A2, "B": B2, "C": C2M}
    idx = {lab: i for i, lab in enumerate(alg.labels)}
    for la, lb in itertools.product(mats, repeat=2):
        prod = alg.mul_basis(idx[la], idx[lb])
        oracle = mat_mul(mats[la], mats[lb])
        # expand prod into a matrix and compare
        acc = mat(cy(0), cy(0), cy(0), cy(0))
        for k, c in prod.items():
            m = mats[alg.labels[k]]
            acc = tuple(tuple(acc[i][j] + c * m[i][j] for j in range(2)) for i in range(2))
        assert acc == oracle, (la, lb)


def test_m2_4_shape():
    alg = build_catalog("m2-4")
    assert alg.dim == 4
    assert len(alg.support) == 4
    assert all(len(alg.component(g)) == 1 for g in alg.support)


def test_m2_8_components_and_oracle():
    alg = build_catalog("m2-8")
    assert alg.dim == 8
    assert alg.group.orders == (4, 2)
    omega = Cyclo.zeta(8)
    mats = {
        (0, 0): I2, (0, 1): C2M,
        (1, 0): tuple(tuple(omega * e for e in row) for row in A2),
        (1, 1): tuple(tuple(omega * e for e in row) for row in B2),
    }
    i_s = Cyclo.zeta(8, 2)
    full = {}
    for (s, t), m in mats.items():
        full[(s, t)] = m
        full[((s + 2) % 4, t)] = tuple(tuple(i_s * e for e in row) for row in m)
    idx = {alg.degrees[i]: i for i in range(alg.dim)}
    for d1, d2 in itertools.product(full, repeat=2):
        prod = alg.mul_basis(idx[d1], idx[d2])
        ((k, c),) = prod.items()
        d3 = alg.degrees[k]
        oracle = mat_mul(full[d1], full[d2])
        expected = tuple(tuple(c * e for e in row) for row in full[d3])
        assert oracle == expected, (d1, d2)


def test_pauli3_dimensions_and_center():
    alg = build_catalog("pauli", n=3)
    assert alg.dim == 18
    assert all(len(alg.component(g)) == 2 for g in alg.support)
    z = center(alg)
    assert len(z) == 2
    assert all(h.degree == alg.group.identity for h in z)


def test_pauli_requires_n_at_least_2():
    with pytest.raises(PreconditionError):
        build_catalog("pauli", n=0)


def test_tensor_m2_4_squared():
    a = build_catalog("m2-4")
    t = tensor(a, a)
    assert t.dim == 16
    assert t.group.orders == (2, 2, 2, 2)
    beta, witness = detect_regular(t)
    assert witness is None
    expected = bichar_tensor(detect_regular(a)[0], detect_regular(a)[0])
    for i in range(4):
        for j in range(4):
            g, h = t.group.generator(i), t.group.generator(j)
            assert beta.eval(g, h) == expected.eval(g, h)


def test_tensor_with_trivial_factor():
    a = build_catalog("m2-4")
    triv = build_catalog("m2r-triv")
    # 1-dim trivially graded field stand-in: use d-cyclic(2,1) quotient? simplest:
    # tensor with the trivial grading keeps identities of shape; here just check dims
    t = tensor(a, build_catalog("h-triv"))
    assert t.dim == 16
    assert t.group.orders == (2, 2)


def test_coarsen_m2c_z4():
    alg = build_catalog("m2c-z4")
    assert alg.group.orders == (4,)
    assert all(len(alg.component(g)) == 2 for g in alg.support)
    # coarsening by a^2 merges into the Z2-grading with components <I,C>_C, <A,B>_C
    further = coarsen_by_quotient(alg, (2,))
    assert further.group.orders == (2,)
    assert sorted(len(further.component(g)) for g in further.support) == [4, 4]


def test_coarsen_by_identity_is_equal_grading():
    alg = build_catalog("m2-4")
    same = coarsen_by_quotient(alg, (0, 0))
    assert sorted(len(same.component(g)) for g in same.support) == [1, 1, 1, 1]


def test_center_m2_4_and_h4():
    for name in ("m2-4", "h4"):
        alg = build_catalog(name)
        z = center(alg)
        assert len(z) == 1
        assert z[0].degree == alg.group.identity


def test_detect_regular_m2_4():
    alg = build_catalog("m2-4")
    beta, witness = detect_regular(alg)
    assert witness is None
    a, b = alg.group.generator(0), alg.group.generator(1)
    assert beta.eval(a, b) == cy(-1)
    assert beta.eval(a, a).is_one()


def test_detect_regular_h2_fails_with_witness():
    """Oracle: in H^(2), 1 and i share degree e but commute differently with j."""
    alg = build_catalog("h2")
    h4 = build_catalog("h4")
    idx = {lab: i for i, lab in enumerate(h4.labels)}
    ij = h4.mul_basis(idx["i"], idx["j"])
    ji = h4.mul_basis(idx["j"], idx["i"])
    one_j = h4.mul_basis(idx["1"], idx["j"])
    j_one = h4.mul_basis(idx["j"], idx["1"])
    assert one_j == j_one and ij != ji  # the four products, explicitly
    beta, witness = detect_regular(alg)
    assert beta is None
    assert witness is not None


def test_detect_regular_pauli4_nonreal_witness():
    alg = build_catalog("pauli", n=4)
    beta, witness = detect_regular(alg)
    assert beta is None
    assert "not real" in witness.reason


def test_detect_regular_pauli2_regular():
    alg = build_catalog("pauli", n=2)
    beta, witness = detect_regular(alg)
    assert witness is None
    x, y = alg.group.generator(0), alg.group.generator(1)
    assert beta.eval(x, y) == cy(-1)


def test_complex_bicharacter_pauli3():
    alg = build_catalog("pauli", n=3)
    beta, j_vec = detect_complex_bicharacter(alg)
    assert beta is not None
    x, y = alg.group.generator(0), alg.group.generator(1)
    val = beta.eval(x, y)
    z12 = Cyclo.zeta(12)
    assert val == Cyclo.zeta(3).lift(12)
    assert not val.is_real()


def test_complex_bicharacter_is_memoized():
    alg = build_catalog("pauli", n=3)
    assert detect_complex_bicharacter(alg)[0] is detect_complex_bicharacter(alg)[0]


def test_center_is_memoized(monkeypatch):
    """center() solves one commutator system for each component that has
    commutator rows, on its first call only, and center_echelon() spans the
    same elements."""
    alg = build_catalog("pauli", n=3)
    kernel = scalars.kernel_over_real_subfield
    calls = []
    monkeypatch.setattr(scalars, "kernel_over_real_subfield",
                        lambda rows: calls.append(rows) or kernel(rows))
    z = center(alg)
    noncentral = [g for g in alg.support
                  if any(alg.mul_basis(i, j) != alg.mul_basis(j, i)
                         for i in alg.component(g) for j in range(alg.dim))]
    assert len(noncentral) == 8  # every component but A_e = C
    assert len(calls) == len(noncentral)
    assert center(alg) is z
    assert center_echelon(alg) is center_echelon(alg)
    assert len(calls) == len(noncentral)
    assert center_echelon(alg).dim == len(center(alg)) == 2
    assert all(center_echelon(alg).contains(h.coords) for h in center(alg))


def test_complex_unit_pauli():
    alg = build_catalog("pauli", n=3)
    j = complex_unit(alg)
    assert j is not None
    minus_one = {k: -c for k, c in alg.unit.items()}
    assert alg.mul_vec(j, j) == minus_one


def test_invert():
    alg = build_catalog("m2-4")
    idx = {lab: i for i, lab in enumerate(alg.labels)}
    v = alg.basis_vector(idx["C"])
    y = invert(alg, v)
    assert y is not None
    assert alg.mul_vec(v, y) == dict(alg.unit)
    # E11 in the elementary grading is a zero divisor
    elem = build_catalog("m2-elem")
    e11 = alg2_vec = elem.basis_vector(0)
    assert invert(elem, e11) is None


def test_invert_takes_a_homogeneous_element():
    """A zero vector has no inverse; a vector with parts in two components
    is refused (exit 3), not solved."""
    alg = build_catalog("m2-4")
    assert invert(alg, {}) is None
    idx = {lab: i for i, lab in enumerate(alg.labels)}
    mixed = algebras.vec_add(alg.basis_vector(idx["I"]), alg.basis_vector(idx["A"]))
    with pytest.raises(PreconditionError, match="homogeneous"):
        invert(alg, mixed)


def test_check_graded_division_catalog():
    division_entries = [
        ("c2", {}), ("m2-4", {}), ("m2-2", {}), ("h4", {}), ("h2", {}),
        ("h-triv", {}), ("m2-8", {}), ("m2c-z4", {}),
        ("pauli", {"n": 2}), ("pauli", {"n": 3}),
        ("d-cyclic", {"m": 3, "eps": 1}), ("d-cyclic", {"m": 2, "eps": -1}),
        ("d-pair", {"k": 2, "l": 2, "mu": 1, "nu": 1}),
        ("d-pair", {"k": 4, "l": 2, "mu": -1, "nu": 1}),
        ("e-series", {"eps": -1, "n": 4}),
    ]
    for name, params in division_entries:
        alg = build_catalog(name, **params)
        ok, info = check_graded_division(alg)
        assert ok, (name, info)
    ok, info = check_graded_division(build_catalog("m2-elem"))
    assert not ok
    ok, info = check_graded_division(build_catalog("m2r-triv"))
    assert not ok


def test_e_series_identity_component_is_c():
    alg = build_catalog("e-series", eps=-1, n=4)
    ok, info = check_graded_division(alg)
    assert ok and info["e_class"] == "C"
    # (1 tensor C)^2 = -1, from the structure constants
    idx = alg.labels.index("v^0.u")
    u = alg.basis_vector(idx)
    assert alg.mul_vec(u, u) == {k: -c for k, c in alg.unit.items()}


def test_h_triv_identity_component_is_h():
    ok, info = check_graded_division(build_catalog("h-triv"))
    assert ok and info["e_class"] == "H"


def test_d_cyclic_2_minus1_is_c2():
    """D(2,-1) is weakly isomorphic to the Z2-grading on C."""
    alg = build_catalog("d-cyclic", m=2, eps=-1)
    c2 = build_catalog("c2")
    assert alg.dim == c2.dim == 2
    u = alg.basis_vector(1)
    assert alg.mul_vec(u, u) == {0: cy(-1)}


def test_d_pair_2_2_matches_m2_4_commutation():
    alg = build_catalog("d-pair", k=2, l=2, mu=1, nu=1)
    beta, witness = detect_regular(alg)
    assert witness is None
    g, h = alg.group.generator(0), alg.group.generator(1)
    assert beta.eval(g, h) == cy(-1)


def test_center_matches_radical_components_for_regular():
    """Z(R) = sum of components over the bicharacter radical (regular entries)."""
    cases = [
        build_catalog("m2-4"),
        build_catalog("h4"),
        build_catalog("m2-8"),
        tensor(build_catalog("c2"), build_catalog("m2-4")),
    ]
    for alg in cases:
        beta, witness = detect_regular(alg)
        assert witness is None, alg.name
        rad = set(beta.radical())
        z = center(alg)
        central_degrees = sorted({h.degree for h in z})
        assert central_degrees == sorted(rad), alg.name
        dim_z = len(z)
        dim_rad_components = sum(len(alg.component(g)) for g in rad)
        assert dim_z == dim_rad_components, alg.name


def test_m2_8_radical_contains_a_squared():
    """delta_1 pairs a^2 trivially with everything; the center is C*I."""
    alg = build_catalog("m2-8")
    beta, _ = detect_regular(alg)
    assert (2, 0) in beta.radical()
    assert len(beta.radical()) == 2


def test_catalog_unknown_id():
    with pytest.raises(PreconditionError):
        build_catalog("nope")
    assert "m2-4" in catalog_ids()


def test_tensor_expression():
    t = build_catalog("c2@m2-4")
    assert t.dim == 8
    assert t.group.orders == (2, 2, 2)
    beta, witness = detect_regular(t)
    assert witness is None
    assert beta.radical() == [(0, 0, 0), (1, 0, 0)]


# -- associativity: Light's test against the full triple scan --------------------

def _failing_triples(alg):
    """Every basis triple (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k)."""
    return [(i, j, k) for i, j, k in itertools.product(range(alg.dim), repeat=3)
            if alg.mul_vec(alg.mul_basis(i, j), alg.basis_vector(k))
            != alg.mul_vec(alg.basis_vector(i), alg.mul_basis(j, k))]


def _pauli2x2():
    """The twisted group algebra of the pauli-2 bicharacter tensored with itself."""
    beta2, _ = detect_regular(build_catalog("pauli", n=2))
    return build_twisted_group_algebra(bichar_tensor(beta2, beta2), name="pauli2x2")


def _build_case(name, params):
    return _pauli2x2() if name == "pauli2x2" else build_catalog(name, **params)


_ASSOCIATIVITY_CASES = [(name, {}) for name in catalog_ids()
                        if name not in ("pauli", "d-cyclic", "d-pair", "e-series")] + [
    ("pauli", {"n": 2}), ("pauli", {"n": 3}), ("pauli", {"n": 4}), ("pauli2x2", {}),
    ("e-series", {"eps": -1, "n": 4}), ("e-series", {"eps": 1, "n": 2}),
    ("d-pair", {"k": 2, "l": 2, "mu": -1, "nu": -1}),
    ("d-pair", {"k": 4, "l": 2, "mu": -1, "nu": 1}),
    ("d-cyclic", {"m": 3, "eps": 1}), ("d-cyclic", {"m": 2, "eps": -1}),
    ("c2@m2-4", {}),
]


def _perturbed(alg, rng):
    """(mult, failing): alg's table with one structure constant scaled by
    -1, 2 or 3, and the basis triples where it fails associativity, scanned
    on a copy of alg that holds the table without being constructed.  The
    scaled product avoids the unit's support, so the unit, degree and
    realness checks still pass and only associativity can fail."""
    pairs = sorted((i, j) for i, j in alg.mult
                   if i not in alg.unit and j not in alg.unit)
    i, j = rng.choice(pairs)
    k = rng.choice(sorted(alg.mult[(i, j)]))
    mult = {key: dict(row) for key, row in alg.mult.items()}
    mult[(i, j)][k] = mult[(i, j)][k] * cy(rng.choice((-1, 2, 3)))
    scan = copy.copy(alg)
    scan.mult = mult
    return mult, _failing_triples(scan)


@pytest.mark.parametrize("name, params", _ASSOCIATIVITY_CASES,
                         ids=["%s%s" % (n, "".join("-%s" % v for v in p.values()))
                              for n, p in _ASSOCIATIVITY_CASES])
def test_light_associativity_matches_triple_scan(name, params):
    """The constructor's validate() accepts exactly the tables the dim^3
    scan accepts, and a rejection names a basis triple that really fails.
    On pauli-3 and pauli-4 the generators are u[y] and u[x] alone, without
    J = i*u[e]."""
    alg = _build_case(name, params)
    assert _failing_triples(alg) == []
    rng = random.Random("%s%s" % (name, sorted(params.items())))
    for _ in range(4):
        mult, failing = _perturbed(alg, rng)
        try:
            algebras.GradedAlgebra(alg.group, alg.order, alg.labels, alg.degrees, mult,
                                   alg.unit, name=alg.name)
        except ValueError as exc:
            named = {"%s: associativity fails at (%s, %s, %s)" % (
                alg.name, *(alg.labels[t] for t in triple)) for triple in failing}
            assert str(exc) in named
        else:
            assert failing == []


def _generated_dim(alg, gens):
    """The dimension of the span of the unit and its products
    unit*a_1*...*a_k with basis indices a_i from gens, grown one round of
    products at a time until a round adds nothing."""
    span = scalars.Echelon(alg.dim)
    span.add(alg.unit)
    new = [alg.unit]
    while new:
        new = [wa for wa in (alg.mul_vec(w, alg.basis_vector(a)) for w in new for a in gens)
               if span.add(wa)]
    return span.dim


@pytest.mark.parametrize("name, params", _ASSOCIATIVITY_CASES,
                         ids=["%s%s" % (n, "".join("-%s" % v for v in p.values()))
                              for n, p in _ASSOCIATIVITY_CASES])
def test_generators_span_and_none_can_be_dropped(name, params):
    """Light's test runs on _generators(): their products span the algebra,
    and without any one of them they do not."""
    alg = _build_case(name, params)
    gens = alg._generators()
    assert _generated_dim(alg, gens) == alg.dim
    for a in gens:
        assert _generated_dim(alg, [g for g in gens if g != a]) < alg.dim, alg.labels[a]
    if name == "pauli":
        # u_x u_y = zeta_n u_y u_x, and zeta_n is real only for n = 2
        expected = ["i*u[e]", "u[y]", "u[x]"] if params["n"] == 2 else ["u[y]", "u[x]"]
        assert [alg.labels[a] for a in gens] == expected


def _mul_vec_reference(alg, u, v):
    """The product of coordinate dicts, summing every term and then dropping
    zero entries."""
    out = {}
    for (i, ci), (j, cj) in itertools.product(u.items(), v.items()):
        for k, ck in alg.mul_basis(i, j).items():
            out[k] = out.get(k, Cyclo.zero()) + ci * cj * ck
    return {k: c for k, c in out.items() if not c.is_zero()}


def test_mul_vec_never_returns_zero_entries():
    alg = build_catalog("m2-elem")
    e11, e22, e12, e21 = range(4)
    # an explicit zero coordinate whose product row is nonzero
    assert alg.mul_vec({e11: cy(0), e22: cy(1)}, {e12: cy(1), e21: cy(1)}) == {e21: cy(1)}
    assert alg.mul_vec({e12: cy(1)}, {e22: cy(0)}) == {}
    # products that cancel: e11 e12 - e12 e22 = 0
    assert alg.mul_vec({e11: cy(1), e12: cy(1)}, {e12: cy(1), e22: cy(-1)}) == {}
    rng = random.Random(13)
    for name, params in (("m2-elem", {}), ("pauli", {"n": 3}), ("h4", {})):
        alg = build_catalog(name, **params)
        for _ in range(40):
            u, v = ({k: cy(rng.choice((0, 0, 1, -1, 2))) for k in rng.sample(
                range(alg.dim), rng.randint(1, alg.dim))} for _ in range(2))
            got = alg.mul_vec(u, v)
            assert got == _mul_vec_reference(alg, u, v)
            assert all(not c.is_zero() for c in got.values())


# -- the merged commutation detector against the two walks it replaced ----------


def _reference_commutation_scalar(algebra, g, h):
    """The real detector's per-pair walk, kept as the reference."""
    lam = None
    witness_pair = None
    any_nonzero = False
    for i in algebra.component(g):
        for j in algebra.component(h):
            uv = algebra.mul_basis(i, j)
            vu = algebra.mul_basis(j, i)
            if not vu:
                if uv:
                    return None, algebras.RegularityWitness(
                        "uv != 0 but vu = 0", (g, h), (algebra.labels[i], algebra.labels[j]))
                continue
            any_nonzero = True
            k = next(iter(vu))
            cand = uv.get(k, Cyclo.zero()) / vu[k]
            if uv != algebras.vec_scale(vu, cand):
                return None, algebras.RegularityWitness(
                    "no scalar relates uv and vu", (g, h),
                    (algebra.labels[i], algebra.labels[j]))
            if lam is None:
                lam = cand
                witness_pair = (algebra.labels[i], algebra.labels[j])
            elif lam != cand:
                return None, algebras.RegularityWitness(
                    "commutation scalar differs between basis pairs", (g, h),
                    (witness_pair, (algebra.labels[i], algebra.labels[j])))
    if not any_nonzero:
        return None, algebras.RegularityWitness(
            "all products of the components vanish (P1)", (g, h))
    return lam, None


def _reference_bicharacter(group, n, values):
    table = [[values[(group.generator(i), group.generator(j))]
              for j in range(group.rank)] for i in range(group.rank)]
    beta = algebras.Bicharacter(group, n, table)
    assert all(beta.eval(g, h) == lam for (g, h), lam in values.items())
    return beta


def _reference_detect_regular(algebra):
    support = algebra.support
    group = algebra.group
    if set(support) != set(group.elements()):
        return None, algebras.RegularityWitness(
            "support is a proper subset of the grading group")
    values = {}
    for g in support:
        for h in support:
            lam, witness = _reference_commutation_scalar(algebra, g, h)
            if witness is not None:
                cbeta, _ = _reference_detect_complex(algebra)
                if cbeta is not None:
                    val = cbeta.eval(*witness.pair) if witness.pair else None
                    return None, algebras.RegularityWitness(
                        "commutation scalar is not real", witness.pair, scalar=val)
                return None, witness
            if not lam.is_real():
                return None, algebras.RegularityWitness(
                    "commutation scalar is not real", (g, h), scalar=lam)
            values[(g, h)] = lam
    return _reference_bicharacter(group, algebras._lcm(2, algebra.order), values), None


def _reference_detect_complex(algebra):
    j_vec = complex_unit(algebra)
    if j_vec is None:
        return None, algebras.RegularityWitness("no central square root of -1")
    n = algebras._lcm(algebra.order, 4)
    i_scalar = Cyclo.zeta(n, n // 4)
    support = algebra.support
    group = algebra.group
    if set(support) != set(group.elements()):
        return None, algebras.RegularityWitness(
            "support is a proper subset of the grading group")
    values = {}
    for g in support:
        for h in support:
            lam = None
            for i in algebra.component(g):
                for j in algebra.component(h):
                    uv = algebra.mul_basis(i, j)
                    vu = algebra.mul_basis(j, i)
                    if not vu:
                        if uv:
                            return None, algebras.RegularityWitness("uv != 0 but vu = 0", (g, h))
                        continue
                    jvu = algebra.mul_vec(j_vec, vu)
                    if lam is None:
                        rows = [[vu.get(k, Cyclo.zero()), jvu.get(k, Cyclo.zero()),
                                 -uv.get(k, Cyclo.zero())] for k in set(vu) | set(jvu) | set(uv)]
                        sols = [v for v in scalars.kernel_over_real_subfield(rows)
                                if not v[2].is_zero()]
                        if not sols:
                            return None, algebras.RegularityWitness(
                                "no complex commutation scalar", (g, h))
                        sol = sols[0]
                        lam = (sol[0] / sol[2], sol[1] / sol[2])
                    l1, l2 = lam
                    expect = algebras.vec_add(algebras.vec_scale(vu, l1),
                                              algebras.vec_scale(jvu, l2))
                    if uv != expect:
                        return None, algebras.RegularityWitness(
                            "complex commutation scalar differs between pairs", (g, h))
            if lam is None:
                return None, algebras.RegularityWitness("all products vanish (P1)", (g, h))
            values[(g, h)] = lam[0] + lam[1] * i_scalar
    return _reference_bicharacter(group, n, values), j_vec


_DETECTOR_CASES = (
    [(name, {}) for name in catalog_ids() if name not in ("pauli", "d-cyclic", "d-pair",
                                                          "e-series")]
    + [("pauli", {"n": n}) for n in (2, 3, 4)]
    + [("d-cyclic", {"m": m, "eps": eps}) for m in (2, 3, 4) for eps in (1, -1)]
    + [("d-pair", {"k": k, "l": l, "mu": mu, "nu": nu})
       for k, l in ((2, 2), (4, 2)) for mu in (1, -1) for nu in (1, -1)]
    + [("e-series", {"eps": eps, "n": n}) for n in (2, 4) for eps in (1, -1)]
    + [("c2@m2-4", {}), ("h4@m2-8", {}), ("m2-elem@m2-4", {}),
       # a central J whose complex walk fails: at vu = 0, and between basis pairs
       ("pauli@m2-elem", {"n": 2}), ("pauli@e-series", {"n": 2})])


@pytest.mark.parametrize("name, params", _DETECTOR_CASES,
                         ids=["%s%s" % (n, "".join("-%s%s" % kv for kv in p.items()))
                              for n, p in _DETECTOR_CASES])
def test_merged_detector_matches_the_two_walks(name, params):
    """The one commutation walk gives the generator tables of both former
    walks, or None where they gave None; detect_regular also keeps its
    witness (reason, pair and basis labels), which `build` prints, and the
    complex detector its failing pair of degrees (its reasons now take the
    shared wording)."""
    alg = build_catalog(name, **params)
    beta, witness = detect_regular(alg)
    ref_beta, ref_witness = _reference_detect_regular(alg)
    assert (beta is None) == (ref_beta is None)
    if beta is None:
        assert (witness.reason, witness.pair, witness.elements, witness.scalar) == \
            (ref_witness.reason, ref_witness.pair, ref_witness.elements, ref_witness.scalar)
    else:
        assert (beta.order, beta.table) == (ref_beta.order, ref_beta.table)
    cbeta, j_vec = detect_complex_bicharacter(alg)
    ref_cbeta, ref_j_vec = _reference_detect_complex(alg)
    assert (cbeta is None) == (ref_cbeta is None)
    if cbeta is None:
        assert j_vec.pair == ref_j_vec.pair
    else:
        assert (cbeta.order, cbeta.table, j_vec) == (ref_cbeta.order, ref_cbeta.table,
                                                     ref_j_vec)


def _table_extension(beta, g, h):
    """beta(g, h) as the product of generator-table entries raised to
    g_i h_j, as Bicharacter.eval computed it before it read exponents."""
    out = Cyclo.one()
    for i, gi in enumerate(g):
        if not gi:
            continue
        for j, hj in enumerate(h):
            if hj:
                out = out * beta.table[i][j] ** (gi * hj)
    return out


def _assert_eval_is_the_table_extension(beta):
    elements = beta.group.elements()
    for g in elements:
        for h in elements:
            value = beta.eval(g, h)
            assert value == _table_extension(beta, g, h), (g, h)
            assert value is beta.powers[beta.exponent(g, h)]


_EVAL_CASES = _DETECTOR_CASES + [("pauli", {"n": 5})]


@pytest.mark.parametrize("name, params", _EVAL_CASES,
                         ids=["%s%s" % (n, "".join("-%s%s" % kv for kv in p.items()))
                              for n, p in _EVAL_CASES])
def test_bicharacter_eval_matches_the_table_extension(name, params):
    """eval, read off the generator-table exponents, equals the Cyclo-power
    extension of the table on every pair, for every bicharacter the
    detectors find, real and complex."""
    alg = build_catalog(name, **params)
    found = [beta for beta, _ in (detect_regular(alg), detect_complex_bicharacter(alg))
             if beta is not None]
    for beta in found:
        _assert_eval_is_the_table_extension(beta)
    if name in ("m2-4", "pauli"):
        assert found


@pytest.mark.parametrize("name, params", _EVAL_CASES,
                         ids=["%s%s" % (n, "".join("-%s%s" % kv for kv in p.items()))
                              for n, p in _EVAL_CASES])
def test_center_rows_are_homogeneous(name, params):
    """The center's fully reduced rows, read one degree at a time, are each
    supported on the basis elements of their degree, and together they are
    the reduced basis of the center's echelon."""
    alg = build_catalog(name, **params)
    rows = []
    for g in alg.group.elements():
        for row in algebras.center_rows(alg, g):
            assert {alg.degrees[k] for k in row} == {g}, (g, row)
            rows.append(row)
    assert sorted(rows, key=min) == center_echelon(alg).sparse_basis()
    assert len(rows) == len(center(alg))


def test_tensor_and_trivial_eval_match_the_table_extension():
    m24 = detect_regular(build_catalog("m2-4"))[0]
    p3 = detect_complex_bicharacter(build_catalog("pauli", n=3))[0]
    c2 = detect_regular(build_catalog("c2"))[0]
    for beta_a, beta_b in ((m24, p3), (p3, c2), (c2, m24)):
        beta = bichar_tensor(beta_a, beta_b)
        _assert_eval_is_the_table_extension(beta)
        ka = beta_a.group.rank
        for g, h in itertools.product(beta.group.elements(), repeat=2):
            assert beta.eval(g, h) == (beta_a.eval(g[:ka], h[:ka])
                                       * beta_b.eval(g[ka:], h[ka:]))
    trivial = algebras.Bicharacter.trivial(p3.group)
    _assert_eval_is_the_table_extension(trivial)
    assert trivial.radical() == p3.group.elements()


# -- twisted group algebras read off the powers of zeta_n --------------------------

def _p4():
    """The twisted group algebra over Z_4 x Z_4 of tests/test_freealg.py."""
    g = FiniteAbelianGroup((4, 4), ("x", "y"))
    eps = Cyclo.zeta(4)
    beta = Bicharacter(g, 4, [[Cyclo.one(), eps], [eps.inv(), Cyclo.one()]])
    return build_twisted_group_algebra(beta, name="p4")


# SHA-256 of json.dumps(algebra_spec_dict(algebra), sort_keys=True), recorded
# from tables whose every entry was a Cyclo product split into its real and i
# parts: the table read off the powers of zeta_n must give the same bytes
_FROZEN_SPEC_DIGESTS = {
    "pauli-2": "10cc9567016388e947a65a81eaa1c0fda1e7f9ff3cd8aac0e9430c8e47c96c22",
    "pauli-3": "afa767b7ce7740f921a3548af2635e6ba53fa7c24c09016b1e4e1384ff7fb023",
    "pauli-4": "83a1ec79c2fa2724bc24234b2879ec1bf3e5aeff6ff59a11ff2b94e75f5ef047",
    "pauli-5": "d4797c9c73d69bd33974a9f4a3154f42e04c66ac21c95c72416a0645bfc9bcb5",
    "pauli-6": "4eb3d62b99ef99ea41b9b074124c135f3bcd5f8481bd34f22cdf9a9a79d3ccc2",
    "pauli2x2": "4d3ac42710f1a814b9dd856e681a0f799bba37f0be09d638b42f6ae46dbae1a9",
    "p4": "49dceaef200ee0c2f79bfc96e465ce843d77aa3b392f68c437bb9ff7a605bb7f",
}


@pytest.mark.parametrize("name", sorted(_FROZEN_SPEC_DIGESTS))
def test_twisted_group_algebra_specs_are_frozen(name):
    if name.startswith("pauli-"):
        alg = build_catalog("pauli", n=int(name[len("pauli-"):]))
    else:
        alg = {"pauli2x2": _pauli2x2, "p4": _p4}[name]()
    text = json.dumps(algebra_spec_dict(alg), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _FROZEN_SPEC_DIGESTS[name]


def test_twisted_group_algebra_refuses_an_order_without_its_roots():
    """beta of order 3 needs zeta_3 and i, so an order that 12 does not
    divide is refused (exit 3)."""
    g = FiniteAbelianGroup((3, 3), ("x", "y"))
    beta = Bicharacter(g, 3, [[Cyclo.one(), Cyclo.zeta(3)], [Cyclo.zeta(3, 2), Cyclo.one()]])
    for order in (3, 4, 6, 8, 18):
        with pytest.raises(PreconditionError, match="multiple of 12"):
            build_twisted_group_algebra(beta, order=order)
    for admitted in (None, 12, 24):
        alg = build_twisted_group_algebra(beta, order=admitted)
        assert alg.order == (admitted or 12) and alg.dim == 18


# -- the catalog's dimension bound -------------------------------------------------

@pytest.mark.parametrize("name, params", _DETECTOR_CASES,
                         ids=["%s%s" % (n, "".join("-%s%s" % kv for kv in p.items()))
                              for n, p in _DETECTOR_CASES])
def test_catalog_bound_reads_the_built_dimension(name, params, monkeypatch):
    """The dimension the bound is checked against, before building, is the
    dimension of the algebra built."""
    dim = build_catalog(name, **params).dim
    monkeypatch.setattr(algebras, "MAX_CATALOG_DIM", dim - 1)
    with pytest.raises(ResourceRefusal, match="has dimension %d, over the bound" % dim):
        build_catalog(name, **params)


def _refuse_to_construct(self, *args, **kwargs):
    raise AssertionError("an algebra was constructed")


def test_catalog_refuses_past_the_bound_before_building(monkeypatch):
    """The smallest pauli-n past the bound, and a tensor product past it, are
    refused before any algebra is constructed; the pauli-n below is not."""
    n = next(n for n in itertools.count(2) if 2 * n * n > algebras.MAX_CATALOG_DIM)
    assert n == 9
    monkeypatch.setattr(algebras.GradedAlgebra, "__init__", _refuse_to_construct)
    with pytest.raises(ResourceRefusal):
        build_catalog("pauli", n=n)
    with pytest.raises(ResourceRefusal):
        build_catalog("m2-8@m2-8@c2@c2")
    with pytest.raises(AssertionError, match="constructed"):
        build_catalog("pauli", n=n - 1)
    # a size the builder refuses is a precondition, whatever the product
    with pytest.raises(PreconditionError):
        build_catalog("pauli@d-pair", n=-20, k=-16, l=-16)


# -- structure solved inside one graded component, against the whole algebra ------

def _reference_center(algebra):
    """The center as one commutator system over all dim coordinates, split
    into homogeneous parts and pruned to an independent set."""
    rows = []
    dim = algebra.dim
    for j in range(dim):
        row_for_coord = {}
        for i in range(dim):
            left = algebra.mul_basis(i, j)
            right = algebra.mul_basis(j, i)
            for k in set(left) | set(right):
                c = left.get(k, Cyclo.zero()) - right.get(k, Cyclo.zero())
                if not c.is_zero():
                    row_for_coord.setdefault(k, [Cyclo.zero()] * dim)[i] = c
        rows.extend(row_for_coord.values())
    basis = scalars.kernel_over_real_subfield(rows) if rows else [
        [Cyclo.one() if t == s else Cyclo.zero() for t in range(dim)] for s in range(dim)]
    out = []
    for v in basis:
        by_degree = {}
        for idx, c in enumerate(v):
            if not c.is_zero():
                by_degree.setdefault(algebra.degrees[idx], {})[idx] = c
        for degree, coords in sorted(by_degree.items()):
            out.append(algebras.HomogeneousElement(algebra, degree, coords))
    ech = scalars.Echelon(dim)
    independent = [h for h in out if ech.add(h.coords)]
    rows_by_degree = {}
    for row in ech.sparse_basis():
        rows_by_degree.setdefault(algebra.degrees[min(row)], []).append(row)
    return independent, ech, rows_by_degree


def _reference_invert(algebra, v):
    """A two-sided inverse of v solved for over all dim coordinates."""
    dim = algebra.dim
    cols = [algebra.mul_vec(v, algebra.basis_vector(i)) for i in range(dim)]
    rows = []
    for k in range(dim):
        row = [cols[i].get(k, Cyclo.zero()) for i in range(dim)]
        row.append(-algebra.unit.get(k, Cyclo.zero()))
        rows.append(row)
    for sol in scalars.kernel_over_real_subfield(rows):
        if sol[dim].is_zero():
            continue
        t = sol[dim].inv()
        y = {i: sol[i] * t for i in range(dim) if not sol[i].is_zero()}
        if algebra.mul_vec(v, y) == dict(algebra.unit) and \
                algebra.mul_vec(y, v) == dict(algebra.unit):
            return y
    return None


def _reference_solve_in_span(algebra, span_vecs, target):
    rows = []
    for k in range(algebra.dim):
        row = [v.get(k, Cyclo.zero()) for v in span_vecs]
        row.append(-Cyclo.one() * target.get(k, Cyclo.zero()))
        rows.append(row)
    for sol in scalars.kernel_over_real_subfield(rows):
        if not sol[-1].is_zero():
            t = sol[-1].inv()
            return [c * t for c in sol[:-1]]
    return None


def _reference_classify_identity_component(algebra):
    """A_e classified with separate branches for dimensions 1, 2 and 4."""
    vec_add, vec_scale = algebras.vec_add, algebras.vec_scale
    comp = algebra.component(algebra.group.identity)
    d = len(comp)
    unit_vec = dict(algebra.unit)
    half = Cyclo.rational(Fraction(1, 2))

    def pure_part(v):
        coeffs = _reference_solve_in_span(algebra, [unit_vec, v], algebra.mul_vec(v, v))
        if coeffs is None:
            return None
        s, t = coeffs
        half_t = t * half
        return vec_add(v, vec_scale(unit_vec, -half_t)), s + half_t * half_t

    if d == 1:
        k = comp[0]
        if algebra.unit.get(k) is None or any(kk != k for kk in algebra.unit):
            return None, "one-dimensional identity component does not contain the unit"
        return "R", None
    if d == 2:
        i1, i2 = comp
        if algebra.mul_basis(i1, i2) != algebra.mul_basis(i2, i1):
            return None, "two-dimensional identity component is not commutative"
        ech = scalars.Echelon(algebra.dim)
        ech.add(unit_vec)
        w_idx = next(i for i in comp if not ech.contains(algebra.basis_vector(i)))
        res = pure_part(algebra.basis_vector(w_idx))
        if res is None:
            return None, "identity component element with square outside span{1, w}"
        if not res[1].is_real() or res[1].real_sign() >= 0:
            return None, "two-dimensional identity component is split (not C)"
        return "C", None
    if d == 4:
        ech = scalars.Echelon(algebra.dim)
        ech.add(unit_vec)
        pures = []
        for idx in comp:
            if ech.contains(algebra.basis_vector(idx)):
                continue
            res = pure_part(algebra.basis_vector(idx))
            if res is None:
                return None, "element with square outside span{1, w}"
            p, dval = res
            if not dval.is_real() or dval.real_sign() >= 0:
                return None, "pure element with nonnegative square (split algebra)"
            if pures:
                p1, d1 = pures[0]
                sym = vec_add(algebra.mul_vec(p1, p), algebra.mul_vec(p, p1))
                coeffs = _reference_solve_in_span(algebra, [unit_vec], sym)
                if coeffs is None:
                    return None, "symmetrized product is not scalar"
                p = vec_add(p, vec_scale(p1, -(coeffs[0] * half / d1)))
                if not p:
                    continue
                res2 = pure_part(p)
                if res2 is None:
                    return None, "orthogonalized element is not pure"
                p, dval = res2
                if not dval.is_real() or dval.real_sign() >= 0:
                    return None, "orthogonalized pure element with nonnegative square"
                if vec_add(algebra.mul_vec(p1, p), algebra.mul_vec(p, p1)):
                    return None, "orthogonalization failed to anticommute"
            pures.append((p, dval))
            ech.add(p)
            if len(pures) == 2:
                break
        if len(pures) < 2:
            return None, "identity component has no anticommuting pure pair"
        (p1, _), (p2, _) = pures
        span = scalars.Echelon(algebra.dim)
        for v in (unit_vec, p1, p2, algebra.mul_vec(p1, p2)):
            span.add(v)
        if span.dim != 4:
            return None, "1, i, j, ij do not span the identity component"
        return "H", None
    return None, "identity component dimension %d is not 1, 2 or 4" % d


def _reference_check_graded_division(algebra):
    """Each component tries every basis element and every pairwise sum, then
    checks that A_e u_g spans the component."""
    cls, reason = _reference_classify_identity_component(algebra)
    if cls is None:
        return False, {"reason": reason}
    units = {}
    for g in algebra.support:
        comp = algebra.component(g)
        candidates = [algebra.basis_vector(i) for i in comp]
        candidates += [algebras.vec_add(a, b) for a, b in itertools.combinations(candidates, 2)]
        u_g = next((cand for cand in candidates
                    if _reference_invert(algebra, cand) is not None), None)
        if u_g is None:
            return False, {"reason": "no invertible candidate", "degree": g}
        shifted = scalars.Echelon(algebra.dim)
        for i in algebra.component(algebra.group.identity):
            shifted.add(algebra.mul_vec(algebra.basis_vector(i), u_g))
        if shifted.dim != len(comp):
            return False, {"reason": "A_e u_g does not span", "degree": g}
        units[g] = u_g
    return True, {"e_class": cls, "units": units}


def _reversed_basis(alg):
    """alg with its basis listed in reverse order."""
    last = alg.dim - 1
    mult = {(last - i, last - j): {last - k: c for k, c in row.items()}
            for (i, j), row in alg.mult.items()}
    return algebras.GradedAlgebra(alg.group, alg.order, alg.labels[::-1], alg.degrees[::-1],
                                  mult, {last - k: c for k, c in alg.unit.items()},
                                  name="%s-reversed" % alg.name)


_STRUCTURE_CASES = [case for case in _DETECTOR_CASES if "@" not in case[0]] + [
    ("c2@c2", {}), ("pauli@pauli", {"n": 2}), ("c2@e-series", {"eps": -1, "n": 4}),
    ("m2-elem@c2", {}), ("m2r-triv@c2", {}), ("c2@h-triv", {}), ("h-triv@h4", {}),
    ("e-series@e-series", {"n": 2}), ("m2-8@c2", {}), ("h2@c2", {})]


@pytest.mark.parametrize("name, params", _STRUCTURE_CASES,
                         ids=["%s%s" % (n, "".join("-%s%s" % kv for kv in p.items()))
                              for n, p in _STRUCTURE_CASES])
def test_component_systems_match_the_whole_algebra(name, params):
    """The center, the inverses and the graded-division certificate, solved
    inside one graded component at a time, equal the whole-algebra solves:
    the center's elements in order, its rows by degree and its reduced
    basis, the inverse of every basis element, and the certificate's
    verdict, identity class and units.  Each case is also run with its basis
    listed in reverse, where the order of the center's elements is not the
    order of their degrees."""
    alg = build_catalog(name, **params)
    for alg in (alg, _reversed_basis(alg)):
        ref_elements, ref_echelon, ref_rows = _reference_center(alg)
        assert [(h.degree, h.coords) for h in center(alg)] == \
            [(h.degree, h.coords) for h in ref_elements]
        for g in alg.group.elements():
            assert algebras.center_rows(alg, g) == ref_rows.get(g, []), g
        assert center_echelon(alg).sparse_basis() == ref_echelon.sparse_basis()
        for i in range(alg.dim):
            b = alg.basis_vector(i)
            assert invert(alg, b) == _reference_invert(alg, b), alg.labels[i]
        ok, info = check_graded_division(alg)
        ref_ok, ref_info = _reference_check_graded_division(alg)
        assert ok == ref_ok
        assert (info.get("e_class"), info.get("units")) == \
            (ref_info.get("e_class"), ref_info.get("units"))


def test_certificate_refutes_a_nilpotent_component():
    """The dual numbers R[x]/(x^2), graded by Z2 with x odd: A_e = R is a
    division algebra, but x, the first (and only) basis element of its
    component, is not invertible, so the grading is refuted there."""
    group = FiniteAbelianGroup((2,), ("a",))
    alg = algebras.GradedAlgebra(group, 1, ["1", "x"], [(0,), (1,)],
                                 {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                                 {0: 1}, name="dual")
    ok, info = check_graded_division(alg)
    assert not ok and info["degree"] == (1,)
    assert not _reference_check_graded_division(alg)[0]
    assert invert(alg, alg.basis_vector(1)) is None
    assert _reference_invert(alg, alg.basis_vector(1)) is None


@pytest.mark.parametrize("name, params", _STRUCTURE_CASES,
                         ids=["%s%s" % (n, "".join("-%s%s" % kv for kv in p.items()))
                              for n, p in _STRUCTURE_CASES])
def test_structure_solves_are_fed_real_rows(name, params, monkeypatch):
    """Every row that center, invert, check_graded_division and
    detect_complex_bicharacter hand the solver is conj-fixed: validate()
    refuses non-real structure constants, and every vector the rows are
    read off is a product of basis vectors and solver output."""
    alg = build_catalog(name, **params)
    kernel = scalars.kernel_over_real_subfield
    seen = []

    def checked(rows):
        seen.append(all(c.is_real() for r in rows for c in r))
        return kernel(rows)

    monkeypatch.setattr(scalars, "kernel_over_real_subfield", checked)
    center(alg)
    for i in range(alg.dim):
        invert(alg, alg.basis_vector(i))
    for h in center(alg):
        invert(alg, h.coords)
    check_graded_division(alg)
    detect_complex_bicharacter(alg)
    assert seen and all(seen)


# -- the commutation walk over representatives against the all-pairs walk --------


def _all_pairs_commutation_scalar(uv, vu, jvu):
    """_commutation_scalar as it was: every system with a J solved by
    kernel_over_real_subfield, diagonal or not."""
    if jvu is None:
        k = next(iter(vu))
        lam = (uv.get(k, Cyclo.zero()) / vu[k], None)
    else:
        rows = [[vu.get(k, Cyclo.zero()), jvu.get(k, Cyclo.zero()), -uv.get(k, Cyclo.zero())]
                for k in set(vu) | set(jvu) | set(uv)]
        sols = [v for v in scalars.kernel_over_real_subfield(rows) if not v[2].is_zero()]
        if not sols:
            return None
        sol = sols[0]
        lam = (sol[0] / sol[2], sol[1] / sol[2])
    return lam if uv == algebras._commuted(vu, jvu, lam) else None


def _all_pairs_commutation_bicharacter(algebra, j_vec, order):
    """_commutation_bicharacter as it was: every basis pair of every pair of
    components walked, kept as the reference."""
    RegularityWitness = algebras.RegularityWitness
    support = algebra.support
    group = algebra.group
    if set(support) != set(group.elements()):
        return None, RegularityWitness("support is a proper subset of the grading group")
    i_scalar = None if j_vec is None else Cyclo.zeta(order, order // 4)
    values = {}
    for g in support:
        for h in support:
            lam = first = None
            for i in algebra.component(g):
                for j in algebra.component(h):
                    pair = (algebra.labels[i], algebra.labels[j])
                    uv = algebra.mul_basis(i, j)
                    vu = algebra.mul_basis(j, i)
                    if not vu:
                        if uv:
                            return None, RegularityWitness("uv != 0 but vu = 0", (g, h), pair)
                        continue
                    jvu = None if j_vec is None else algebra.mul_vec(j_vec, vu)
                    if lam is None:
                        lam, first = _all_pairs_commutation_scalar(uv, vu, jvu), pair
                        if lam is None:
                            return None, RegularityWitness(
                                "no scalar relates uv and vu", (g, h), pair)
                    elif uv != algebras._commuted(vu, jvu, lam):
                        if _all_pairs_commutation_scalar(uv, vu, jvu) is None:
                            return None, RegularityWitness(
                                "no scalar relates uv and vu", (g, h), pair)
                        return None, RegularityWitness(
                            "commutation scalar differs between basis pairs", (g, h),
                            (first, pair))
            if lam is None:
                return None, RegularityWitness("all products of the components vanish (P1)",
                                               (g, h))
            l1, l2 = lam
            values[(g, h)] = l1 if l2 is None else l1 + l2 * i_scalar
    return _reference_bicharacter(group, order, values), None


def _walk_result(result):
    beta, witness = result
    return ((beta.order, beta.table) if beta is not None else None,
            None if witness is None else
            (witness.reason, witness.pair, witness.elements, witness.scalar))


def _all_pairs_detect_regular(algebra):
    beta, witness = _all_pairs_commutation_bicharacter(algebra, None,
                                                      algebras._lcm(2, algebra.order))
    if witness is not None and witness.pair is not None:
        j_vec = complex_unit(algebra)
        if j_vec is not None:
            cbeta, _ = _all_pairs_commutation_bicharacter(
                algebra, j_vec, algebras._lcm(algebra.order, 4))
            if cbeta is not None:
                return None, algebras.RegularityWitness(
                    "commutation scalar is not real", witness.pair,
                    scalar=cbeta.eval(*witness.pair))
    return beta, witness


def _case_id(name, params):
    return "%s%s" % (name, "".join("-%s%s" % kv for kv in params.items()))


_WALK_CASES = list({_case_id(*case): case for case in (
    _DETECTOR_CASES + _STRUCTURE_CASES
    + [("pauli", {"n": 5}), ("pauli@m2-4", {"n": 2}), ("m2-4@c2", {})])}.values())


@pytest.mark.parametrize("name, params", _WALK_CASES,
                         ids=[_case_id(*case) for case in _WALK_CASES])
def test_representative_walk_matches_the_all_pairs_walk(name, params):
    """The walk over the representatives of substitution_reps, with the
    diagonal systems read off coordinate ratios, gives the all-pairs walk's
    result, with every system solved, for the real walk and (when there is
    a central J) the complex walk: the same generator table, or the same
    witness (reason, degree pair, basis labels and scalar).  detect_regular
    gives the same table or witness as well."""
    alg = build_catalog(name, **params)
    walks = [(None, algebras._lcm(2, alg.order))]
    j_vec = complex_unit(alg)
    if j_vec is not None:
        walks.append((j_vec, algebras._lcm(alg.order, 4)))
    for j, order in walks:
        assert _walk_result(algebras._commutation_bicharacter(alg, j, order)) == \
            _walk_result(_all_pairs_commutation_bicharacter(alg, j, order))
    assert _walk_result(detect_regular(alg)) == _walk_result(_all_pairs_detect_regular(alg))


def test_representative_walk_needs_validate():
    """On pauli-3, whose table the constructor's validate() has proved
    associative, the walk reads one basis pair per pair of components (its
    complex structure pairs every component's two basis elements), 2
    products each; the all-pairs reference reads all four, with the same
    bicharacter."""
    p3 = build_catalog("pauli", n=3)
    assert p3.complex_structure() is not None
    j_vec = complex_unit(p3)
    results = []
    for walk in (algebras._commutation_bicharacter, _all_pairs_commutation_bicharacter):
        calls = []

        def counted(i, j):
            calls.append((i, j))
            return type(p3).mul_basis(p3, i, j)

        p3.mul_basis = counted
        results.append(_walk_result(walk(p3, j_vec, 12)))
        del p3.mul_basis
        results.append(len(calls))
    assert results[0] == results[2] and results[0][0] is not None
    assert (results[1], results[3]) == (2 * 81, 2 * 324)


def test_diagonal_commutation_scalar_is_the_solved_one():
    """When vu and J vu have disjoint supports, the scalar read off
    coordinate ratios is the one the kernel solve gives, on every basis pair
    of pauli-3, pauli-4 and pauli@m2-4; a pair related by no real scalar,
    or by none at all, gets None both ways."""
    for name, params in (("pauli", {"n": 3}), ("pauli", {"n": 4}),
                         ("pauli@m2-4", {"n": 2})):
        alg = build_catalog(name, **params)
        j_vec = complex_unit(alg)
        diagonal = 0
        for i in range(alg.dim):
            for j in range(alg.dim):
                uv, vu = alg.mul_basis(i, j), alg.mul_basis(j, i)
                if not vu:
                    continue
                jvu = alg.mul_vec(j_vec, vu)
                diagonal += vu.keys().isdisjoint(jvu)
                assert algebras._commutation_scalar(uv, vu, jvu) == \
                    _all_pairs_commutation_scalar(uv, vu, jvu)
        assert diagonal
    one, z = Cyclo.one(), Cyclo.zeta(12)
    # uv = 2 vu + 3 J vu, real; uv = zeta12 vu has no real (l1, l2)
    assert algebras._commutation_scalar({0: Cyclo.rational(2), 1: Cyclo.rational(3)},
                                        {0: one}, {1: one}) == \
        (Cyclo.rational(2), Cyclo.rational(3))
    assert algebras._commutation_scalar({0: z}, {0: one}, {1: one}) is None
    assert _all_pairs_commutation_scalar({0: z}, {0: one}, {1: one}) is None
    assert algebras._commutation_scalar({2: one}, {0: one}, {1: one}) is None


# -- the real catalog entries built from their presentations ------------------------

# (id, params, SHA-256 of json.dumps(algebra_spec_dict(algebra), sort_keys=True)),
# recorded from the hand-written multiplication tables that the presentations
# replaced: a moved label, degree, structure constant, unit, order or name
# changes a digest
_CATALOG_SPEC_DIGESTS = [
    ("c2", {},
     "34d6c1cbc3d8e935ee5b478368567966ad3a538bfba35868f8f8767b160de13d"),
    ("m2-4", {},
     "0458b1dfed1dbcae8768625366142ebb69963e09b1f1d08ee5fde00eae0f4dcd"),
    ("m2-2", {},
     "1d9171be2fa929a7b633342fc406aee3ce3c40455c8e4862bd9b0da7845ce9d8"),
    ("h4", {},
     "6634ff6f035d68d6280cc08e7b889f3a914f51b26815f22f051c939c71358544"),
    ("h2", {},
     "81e0a2a833105059f72c77b4855b08eedfdc78b889f358a8501e13ec11ef3725"),
    ("h-triv", {},
     "d3fafc967b0a9892df5a7b94281a78e64fcff6319a9fa5e20b10574da435c03c"),
    ("m2r-triv", {},
     "53990508e34207c960069bf4727d0588bb41b6a1048fdec0774de7dad8b0e345"),
    ("m2-elem", {},
     "ee83c98619fe8b8cb5a7417dbf7839543b3f88e4c0288746581ef054604b8edb"),
    ("m2-8", {},
     "1636be1289d3cd13b4ffa15a93ba3e9decb26b92cb5bbff263f498c623bb2ef1"),
    ("m2c-z4", {},
     "448fffc43eef2889cee57c3210efdd75ff3173358f76e6b34c7bb92621b2ddb3"),
    ("pauli", {"n": 2},
     "10cc9567016388e947a65a81eaa1c0fda1e7f9ff3cd8aac0e9430c8e47c96c22"),
    ("pauli", {"n": 3},
     "afa767b7ce7740f921a3548af2635e6ba53fa7c24c09016b1e4e1384ff7fb023"),
    ("pauli", {"n": 4},
     "83a1ec79c2fa2724bc24234b2879ec1bf3e5aeff6ff59a11ff2b94e75f5ef047"),
    ("d-cyclic", {"eps": 1, "m": 2},
     "1767e174925fe1d445d8da4442f81805effbea136cf3a46b42b0615638f19173"),
    ("d-cyclic", {"eps": -1, "m": 2},
     "0661cdde1c734eaf9bcf72532179f89dea6aa6a3887d01e37269a97d39b95f2b"),
    ("d-cyclic", {"eps": 1, "m": 3},
     "552329ad8148fb633810cc7ef33a032e544210fecc5542ed7fe46e5997436b35"),
    ("d-cyclic", {"eps": -1, "m": 3},
     "878a574565e1a78e46eeba85977eb13b073e7a20658a0b26fe55e6ab8eaa6bdf"),
    ("d-cyclic", {"eps": 1, "m": 4},
     "1a10694eb989007890101203060e395dea7f461d8681865ece35ce839510e814"),
    ("d-cyclic", {"eps": -1, "m": 4},
     "6000f1b3cf16f85043c792d24f45d133ac76908b6a137f2f80e8eac6fd2def6a"),
    ("d-cyclic", {"eps": 1, "m": 5},
     "799cad645263688497afc81a6594415fede4a6454ef981b7b1d2e1c0af56c520"),
    ("d-cyclic", {"eps": -1, "m": 5},
     "de1d2a9d732db7322eca96f086d71f3973b5e55b87c2fcce714328bc7dcfa200"),
    ("d-pair", {"k": 2, "l": 2, "mu": 1, "nu": 1},
     "0d58233c43dc8aa87ce5c196725f187b15af5c9b7094864c60a2c1af5a5614b7"),
    ("d-pair", {"k": 2, "l": 2, "mu": 1, "nu": -1},
     "ac55e3504b73795b28883fc18ed99801807f8580141d00c42dba4e86835f4ebe"),
    ("d-pair", {"k": 2, "l": 2, "mu": -1, "nu": 1},
     "96aa12a0e6ae35c5926c35beaec2e00a3159c1cad35070a61f12ac6fad02abc8"),
    ("d-pair", {"k": 2, "l": 2, "mu": -1, "nu": -1},
     "e843a22a7bc41c6c26871e4b28ebda51d77b9705cefda04799abd6d48de96457"),
    ("d-pair", {"k": 2, "l": 4, "mu": 1, "nu": 1},
     "99f8378a5c7940c2b7b5de9e75e4fd0b30cb1583cc53c4f52c3d99c85d0c972b"),
    ("d-pair", {"k": 2, "l": 4, "mu": 1, "nu": -1},
     "833dedd5a2080f5857cd37e823eccdb1b04aac6944437480e2a29a7c47552df5"),
    ("d-pair", {"k": 2, "l": 4, "mu": -1, "nu": 1},
     "72700daee60e359175d8f54fbd2b67fd5f5941dd84988601003a3c7d2fac9a02"),
    ("d-pair", {"k": 2, "l": 4, "mu": -1, "nu": -1},
     "a78b8fcc8e18960181e95558b63a9e8d1cb81a471ef45c1cc7e5e2d8efc3fe38"),
    ("d-pair", {"k": 4, "l": 2, "mu": 1, "nu": 1},
     "78a907573316786aba2a20f51f70742208459dc0a608003e09f3842ad6a62797"),
    ("d-pair", {"k": 4, "l": 2, "mu": 1, "nu": -1},
     "ade4fbd1ec46ce2f2e397de91b35dc95c2ebd2f6e013000db5c9b9b254aaef66"),
    ("d-pair", {"k": 4, "l": 2, "mu": -1, "nu": 1},
     "8053ef6a42f518bb2e79e3c54e4f60993dfdf5924d83ea1f7abca2c4ea9d31b8"),
    ("d-pair", {"k": 4, "l": 2, "mu": -1, "nu": -1},
     "7a218495d14810105cfe753e4fe43f05748b71312344d4e4a7ff3dddcb357bf8"),
    ("d-pair", {"k": 4, "l": 4, "mu": 1, "nu": 1},
     "fe931d700b689421d850c610729a8c525c86b5bd82a30ec4fa997fd756b67928"),
    ("d-pair", {"k": 4, "l": 4, "mu": 1, "nu": -1},
     "40a99a99bba68ad9d8c9f24f841e0d8e7b3dc53f76bbf25c9bf1f45b3754403b"),
    ("d-pair", {"k": 4, "l": 4, "mu": -1, "nu": 1},
     "49730080d0acc799ce1ba81a1a91641a7c33fd519ed79890ee23fa3234e945f1"),
    ("d-pair", {"k": 4, "l": 4, "mu": -1, "nu": -1},
     "672101ae0864c32b60e1454552799c4bb80f8b4840198a0410ba412c83d68f93"),
    ("e-series", {"eps": 1, "n": 2},
     "b2792c824d592c4267b39a5c9fb8609630209fbfb50442aecb87ad3b9a20470d"),
    ("e-series", {"eps": 1, "n": 4},
     "f06eb86919a667042f9e882735aa507d15f0bb281f0c82ea9815458f64de434a"),
    ("e-series", {"eps": 1, "n": 8},
     "536e67be84929aa93cff1e9dddfc25d07c2ecb577bbcc1b73577d4bd976b345f"),
    ("e-series", {"eps": -1, "n": 2},
     "b3841154b24576bc0a3e7656842bc330296a61466614406ce149b7f3734a1957"),
    ("e-series", {"eps": -1, "n": 4},
     "b40dd56cc89c92fac027251d0f259dfa24ee7b0db0309831b2a91789ff7eb537"),
    ("e-series", {"eps": -1, "n": 8},
     "82c7946cdd1846334309780f6cd08cad3607b6dab16843312802bbfb613f1fd2"),
    ("c2@m2-4", {},
     "eb44ec5d68c61f81982841ca565c0ced344070fb9597629cc7318ac96077e7c8"),
    ("h4@m2-elem", {},
     "2f0dd7e34502369581226474aeb9841e58f6cdd8afdd8a43a2a720d4920d2a11"),
    ("m2-2@d-cyclic", {"eps": -1, "m": 3},
     "7b7634ae453843ef3a6d304e01dd13c34c7fb85df9046f59e3fcfc61a184bb6f"),
]


@pytest.mark.parametrize("name, params, digest", _CATALOG_SPEC_DIGESTS,
                         ids=["%s%s" % (n, "".join("-%s" % v for v in p.values()))
                              for n, p, _ in _CATALOG_SPEC_DIGESTS])
def test_catalog_specs_are_frozen(name, params, digest):
    text = json.dumps(algebra_spec_dict(build_catalog(name, **params)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# each presented entry: its generators as (basis label, n, eps) with u^n = eps,
# and the pairs of generator labels that anticommute (every other pair commutes)
_PRESENTATIONS = [
    ("c2", {}, [("i", 2, -1)], []),
    ("m2-4", {}, [("A", 2, 1), ("B", 2, 1)], [("B", "A")]),
    ("h4", {}, [("i", 2, -1), ("j", 2, -1)], [("j", "i")]),
    ("h-triv", {}, [("i", 2, -1), ("j", 2, -1)], [("j", "i")]),
    ("m2-8", {}, [("u[a]", 4, -1), ("u[b]", 2, -1)], [("u[b]", "u[a]")]),
] + [
    ("d-cyclic", {"m": m, "eps": eps}, [("u^1", m, eps)], [])
    for m in (2, 3, 4, 5) for eps in (1, -1)
] + [
    ("d-pair", {"k": k, "l": l, "mu": mu, "nu": nu},
     [("u^1.v^0", k, mu), ("u^0.v^1", l, nu)], [("u^0.v^1", "u^1.v^0")])
    for k, l, mu, nu in itertools.product((2, 4), (2, 4), (1, -1), (1, -1))
] + [
    ("e-series", {"eps": eps, "n": n}, [("v^1", n, 1), ("v^0.u", 2, -1)],
     [("v^0.u", "v^1")])
    for eps in (1, -1) for n in (2, 4, 8)
]


@pytest.mark.parametrize("name, params, gens, anticommuting", _PRESENTATIONS,
                         ids=["%s%s" % (n, "".join("-%s" % v for v in p.values()))
                              for n, p, _, _ in _PRESENTATIONS])
def test_presented_entries_satisfy_their_relations(name, params, gens, anticommuting):
    """u^n = eps * 1 for each generator u, uv = -vu for each anticommuting
    pair and uv = vu for every other, and the words u_1^a_1 ... u_r^a_r with
    0 <= a_i < n_i are the basis elements themselves, each once."""
    alg = build_catalog(name, **params)
    index = {lab: k for k, lab in enumerate(alg.labels)}
    u = [alg.basis_vector(index[lab]) for lab, _, _ in gens]
    for v, (lab, n, eps) in zip(u, gens):
        power = alg.unit
        for _ in range(n):
            power = alg.mul_vec(power, v)
        assert power == {k: cy(eps) * c for k, c in alg.unit.items()}, lab
    for (s, (ls, _, _)), (t, (lt, _, _)) in itertools.permutations(enumerate(gens), 2):
        sign = -1 if (ls, lt) in anticommuting or (lt, ls) in anticommuting else 1
        assert alg.mul_vec(u[s], u[t]) == \
            {k: cy(sign) * c for k, c in alg.mul_vec(u[t], u[s]).items()}, (ls, lt)
    words = []
    for exps in itertools.product(*(range(n) for _, n, _ in gens)):
        w = alg.unit
        for v, e in zip(u, exps):
            for _ in range(e):
                w = alg.mul_vec(w, v)
        ((k, c),) = w.items()
        assert c == Cyclo.one(), exps
        words.append(k)
    assert sorted(words) == list(range(alg.dim))


def _c2_args(**changes):
    """The constructor arguments of c2, with changes."""
    args = dict(group=FiniteAbelianGroup((2,), ("a0",)), order=1, labels=["1", "i"],
                degrees=[(0,), (1,)],
                mult={(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1}},
                unit={0: 1})
    args.update(changes)
    return args


def test_constructor_builds_c2_from_its_arguments():
    alg = algebras.GradedAlgebra(**_c2_args(name="c2"))
    assert algebra_spec_dict(alg) == algebra_spec_dict(build_catalog("c2"))


@pytest.mark.parametrize("order", [2.5, 0, -4, True],
                         ids=["fraction", "zero", "negative", "bool"])
def test_constructor_refuses_an_order_that_is_not_a_positive_integer(order):
    with pytest.raises(ValueError, match="cyclotomic order"):
        algebras.GradedAlgebra(**_c2_args(order=order))


@pytest.mark.parametrize("degrees", [[(0,), (1,), (1,)], [(0,)]], ids=["three", "one"])
def test_constructor_refuses_a_degree_count_other_than_the_dimension(degrees):
    with pytest.raises(ValueError, match="degrees for 2 basis labels"):
        algebras.GradedAlgebra(**_c2_args(degrees=degrees))


def test_commutation_bicharacter_is_found_once_per_algebra(monkeypatch):
    """detect_regular is memoized like the complex detection, and the
    commutation lookup reads the two memos, the real bicharacter first:
    once both are found, no support pair is walked again."""
    m28, p3 = build_catalog("m2-8"), build_catalog("pauli", n=3)
    regular, pauli = detect_regular(m28), detect_regular(p3)
    complex_pauli = algebras.detect_complex_bicharacter(p3)
    monkeypatch.setattr(algebras, "_commutation_bicharacter", None)
    assert detect_regular(m28) is regular and detect_regular(p3) is pauli
    assert algebras.commutation_bicharacter(m28) == (regular[0], None)
    assert algebras.commutation_bicharacter(p3) == complex_pauli
    assert regular[0] is not None and pauli[0] is None and complex_pauli[0] is not None


def test_constructor_refuses_duplicate_labels():
    """Two basis elements with one label would write a spec that cannot
    reload: one degree entry and one product key for four products."""
    with pytest.raises(ValueError, match="duplicate basis labels"):
        algebras.GradedAlgebra(**_c2_args(labels=["x", "x"]))


@pytest.mark.parametrize("changes", [
    {"mult": {(0, 0): {0: 1}, (0, 2): {1: 1}}},
    {"mult": {(0, 0): {0: 1}, (-1, 0): {1: 1}}},
    {"mult": {(0, 0): {0: 1}, (1, 1): {2: -1}}},
    {"unit": {2: 1}},
], ids=["key", "negative-key", "row-index", "unit-index"])
def test_constructor_refuses_an_index_outside_the_basis(changes):
    with pytest.raises(ValueError, match="outside range\\(2\\)"):
        algebras.GradedAlgebra(**_c2_args(**changes))


@pytest.mark.parametrize("name, params", [
    ("pauli", {"n": 2.5}), ("pauli", {"n": 3.9}), ("pauli", {"n": "3"}),
    ("pauli", {"n": True}), ("d-cyclic", {"m": 4, "eps": -1.5}),
], ids=["fraction", "fraction-up", "string", "bool", "d-cyclic-eps"])
def test_catalog_refuses_a_parameter_that_is_not_an_integer(name, params):
    with pytest.raises(TypeError, match="must be an integer"):
        build_catalog(name, **params)
