"""Acceptance suite.

Every check is exact (no numerical tolerance anywhere: all arithmetic is
rational-cyclotomic), and completeness checks are degree-truncated subspace
equalities per multidegree.  Each criterion prints one pass/fail line; run
with `pytest tests/test_acceptance.py -v -s` to see them.

The optional long-running degree-seven check is gated behind
GRADEDPI_LONG=1 (it is also reachable via the CLI flag --long-running).
"""

import itertools
import os
import random
from fractions import Fraction

import pytest

from gradedpi.algebras import (
    build_catalog,
    build_twisted_group_algebra,
    center,
    check_graded_division,
    coarsen_by_quotient,
    detect_complex_bicharacter,
    detect_regular,
    tensor,
)
from gradedpi.errors import VerificationFailure
from gradedpi.freealg import FreePoly, evaluate, monomial_values, transfer_phi
from gradedpi.groups import bichar_tensor
from gradedpi.pitool import (
    bp_basis,
    check_pauli_multidegree,
    s4_hall_basis,
    dv_basis,
    family_pauli,
    family_regular,
    is_central,
    is_identity,
    lift_basis,
    multilinear_identity_space,
    okhitin_basis,
    pauli_reduce,
    replay_certificate,
    transfer_basis,
    verify_basis,
)
from gradedpi.scalars import Cyclo


def report(criterion, ok, detail=""):
    line = "[%s] %s%s" % ("PASS" if ok else "FAIL", criterion,
                          (" - " + detail) if detail else "")
    print(line, flush=True)
    assert ok, line


# -- shared constructions (built once) ---------------------------------------------


@pytest.fixture(scope="module")
def algebras():
    p2 = build_catalog("pauli", n=2)
    beta2, _ = detect_regular(p2)
    out = {
        "elem": build_catalog("m2-elem"),
        "m2r": build_catalog("m2r-triv"),
        "h": build_catalog("h-triv"),
        "m2-4": build_catalog("m2-4"),
        "h4": build_catalog("h4"),
        "c2m24": build_catalog("c2@m2-4"),
        "m2-8": build_catalog("m2-8"),
        "m2c-z4": build_catalog("m2c-z4"),
        "pauli2": p2,
        "pauli2x2": build_twisted_group_algebra(
            bichar_tensor(beta2, beta2), name="pauli2x2"),
        "pauli3": build_catalog("pauli", n=3),
        "pauli4": build_catalog("pauli", n=4),
    }
    for k in (2, 4, 8):
        for eps in (1, -1):
            out["e%d_%d" % (eps, k)] = build_catalog("e-series", eps=eps, n=k)
    return out


@pytest.fixture(scope="module")
def pauli_families(algebras):
    return {
        "pauli3": family_pauli(algebras["pauli3"], 4),
        "pauli4": family_pauli(algebras["pauli4"], 3),
    }


def members_pass_identity(algebra, polys):
    for f in polys:
        ok, witness = is_identity(algebra, f)
        if not ok:
            return False, "%s fails on %s" % (f, witness)
    return True, ""


def members_pass_central(algebra, polys):
    for f in polys:
        verdict, witness = is_central(algebra, f)
        if verdict == "neither":
            return False, "%s is not central (%s)" % (f, witness)
    return True, ""


def corollary_sets(algebra, degree_element):
    quotient_alg = coarsen_by_quotient(algebra, degree_element)
    ids = lift_basis(algebra, degree_element, dv_basis(quotient_alg.group))
    cents = lift_basis(algebra, degree_element, bp_basis(quotient_alg.group))
    return ids, cents


# -- criterion 1: membership ---------------------------------------------------------


def test_criterion_1_membership(algebras, pauli_families):
    failures = []

    def check(ok, detail, label):
        if not ok:
            failures.append("%s: %s" % (label, detail))

    elem = algebras["elem"]
    check(*members_pass_identity(elem, dv_basis(elem.group).members),
          label="Lemma-4.6 on the elementary grading")
    check(*members_pass_central(elem, bp_basis(elem.group).members),
          label="Theorem-4.7 centrals on the elementary grading")
    for name in ("m2r", "h"):
        alg = algebras[name]
        check(*members_pass_identity(alg, s4_hall_basis().members),
              label="S4+Hall on %s" % alg.name)
        check(*members_pass_central(alg, okhitin_basis().members),
              label="degree-four centrals on %s" % alg.name)
    for name in ("m2-4", "h4", "c2m24", "m2-8", "pauli2", "pauli2x2"):
        alg = algebras[name]
        beta, witness = detect_regular(alg)
        check(beta is not None, str(witness), "regularity of %s" % alg.name)
        fam_i = family_regular(beta, "identities")
        check(*members_pass_identity(alg, fam_i.members),
              label="commutation binomials on %s" % alg.name)
        fam_c = family_regular(beta, "centrals")
        check(*members_pass_central(alg, fam_c.members),
              label="central family on %s" % alg.name)
    ids, cents = corollary_sets(algebras["m2c-z4"], (2,))
    check(*members_pass_identity(algebras["m2c-z4"], ids.members),
          label="corollary identities on m2c-z4")
    check(*members_pass_central(algebras["m2c-z4"], cents.members),
          label="corollary centrals on m2c-z4")
    for k in (2, 4, 8):
        for eps in (1, -1):
            alg = algebras["e%d_%d" % (eps, k)]
            gsq = (2 % k,)
            ids, cents = corollary_sets(alg, gsq)
            check(*members_pass_identity(alg, ids.members),
                  label="corollary identities on %s" % alg.name)
            check(*members_pass_central(alg, cents.members),
                  label="corollary centrals on %s" % alg.name)
    for key in ("pauli3", "pauli4"):
        fam = pauli_families[key]
        alg = algebras[key]
        check(*members_pass_identity(alg, fam.members + fam.extras),
              label="reordering families on %s" % alg.name)
    report("criterion 1 (membership suite)", not failures, "; ".join(failures[:3]))


# -- criterion 2: completeness at degree <= 4 ------------------------------------------


def run_complete(algebra, genset, max_degree=4):
    rep = verify_basis(algebra, genset, max_degree)
    bad = [r for r in rep.records if not r.equal]
    badm = [m for m in rep.membership if not m["ok"]]
    return rep.ok, "%d bad records, %d bad members (e.g. %s)" % (
        len(bad), len(badm), bad[0].as_dict() if bad else "")


def test_criterion_2a_elementary_vs_dv(algebras):
    elem = algebras["elem"]
    ok, detail = run_complete(elem, dv_basis(elem.group))
    report("criterion 2a (elementary grading vs commutator/reversal basis)", ok, detail)


@pytest.mark.parametrize("name", ["m2-4", "h4", "c2m24", "m2-8"])
def test_criterion_2b_regular_blocks(algebras, name):
    alg = algebras[name]
    beta, _ = detect_regular(alg)
    ok1, d1 = run_complete(alg, family_regular(beta, "identities"))
    ok2, d2 = run_complete(alg, family_regular(beta, "centrals"))
    report("criterion 2b (%s vs regular families, both modes)" % alg.name,
           ok1 and ok2, d1 if not ok1 else d2)


def test_criterion_2c_m2c_z4(algebras):
    alg = algebras["m2c-z4"]
    ids, cents = corollary_sets(alg, (2,))
    ok1, d1 = run_complete(alg, ids)
    ok2, d2 = run_complete(alg, cents)
    report("criterion 2c (m2c-z4 vs lifted corollary, both modes)",
           ok1 and ok2, d1 if not ok1 else d2)


def test_criterion_2d_e_series(algebras):
    alg = algebras["e-1_4"]
    ids, cents = corollary_sets(alg, (2,))
    ok1, d1 = run_complete(alg, ids)
    ok2, d2 = run_complete(alg, cents)
    report("criterion 2d (e-series(-1,4) vs lifted corollary, both modes)",
           ok1 and ok2, d1 if not ok1 else d2)


def test_criterion_2e_pauli3(algebras, pauli_families):
    ok, detail = run_complete(algebras["pauli3"], pauli_families["pauli3"])
    report("criterion 2e (pauli-3 vs reordering families)", ok, detail)


def test_criterion_2f_m2r(algebras):
    alg = algebras["m2r"]
    ok1, d1 = run_complete(alg, s4_hall_basis())
    ok2, d2 = run_complete(alg, okhitin_basis())
    report("criterion 2f (M2(R) vs S4+Hall and vs degree-four centrals)",
           ok1 and ok2, d1 if not ok1 else d2)


# -- criterion 3: transfer suite ---------------------------------------------------------


def test_criterion_3_transfer(algebras):
    elem, r = algebras["elem"], algebras["m2-4"]
    big = tensor(elem, r)
    ids = transfer_basis(dv_basis(elem.group), r)
    ok1, d1 = run_complete(big, ids, 3)
    cents = transfer_basis(bp_basis(elem.group), r)
    ok2, d2 = run_complete(big, cents, 3)

    # exact factorization phi_h(f)(a (x) r) = f(a) (x) r_1...r_n
    beta, _ = detect_regular(r)
    random.seed(20240915)
    helems = beta.group.elements()
    aelems = elem.group.elements()
    factor_ok = True
    for _ in range(100):
        n = random.randint(1, 3)
        degrees = [random.choice(aelems) for _ in range(n)]
        terms = {}
        for _ in range(random.randint(1, 4)):
            perm = list(range(n))
            random.shuffle(perm)
            terms[tuple((k + 1, degrees[k]) for k in perm)] = Fraction(
                random.randint(-3, 3))
        f = FreePoly(elem.group, 2, terms)
        if f.is_zero():
            continue
        letters = f.letters()
        h = [random.choice(helems) for _ in range(len(letters))]
        phi = transfer_phi(f, h, beta)
        pools_a = [elem.component(d) for _, d in letters]
        pools_r = [r.component(hh) for hh in h]
        for choice_a in itertools.product(*pools_a):
            for choice_r in itertools.product(*pools_r):
                subst = {}
                for k, (idx, d) in enumerate(letters):
                    fused = choice_a[k] * r.dim + choice_r[k]
                    subst[(idx, d + h[k])] = big.basis_vector(fused)
                lhs = evaluate(phi, subst, big)
                fa = evaluate(f, {lt: elem.basis_vector(choice_a[k])
                                  for k, lt in enumerate(letters)}, elem)
                rr = next(monomial_values([choice_r], {k: r.basis_vector(k) for k in choice_r},
                                          r))
                rhs = {}
                for k1, c1 in fa.items():
                    for k2, c2 in rr.items():
                        v = c1 * c2
                        if not v.is_zero():
                            rhs[k1 * r.dim + k2] = v
                if lhs != rhs:
                    factor_ok = False
    detail = ""
    if not ok1:
        detail = d1
    elif not ok2:
        detail = d2
    elif not factor_ok:
        detail = "factorization failed"
    report("criterion 3 (transfer suite: completeness at degree <= 3 and exact "
           "factorization on 100 random polynomials)",
           ok1 and ok2 and factor_ok, detail)


# -- criterion 4: bicharacter table reproduction ------------------------------------------


def test_criterion_4_bicharacter_table(algebras):
    ok = True
    details = []
    minus_one = Cyclo.rational(-1)

    def expect_table(algebra, pair_positions, label):
        nonlocal ok
        beta, witness = detect_regular(algebra)
        if beta is None:
            ok = False
            details.append("%s not regular: %s" % (label, witness))
            return None
        k = algebra.group.rank
        for i in range(k):
            for j in range(k):
                want = minus_one if (i, j) in pair_positions or (j, i) in pair_positions \
                    else Cyclo.one()
                got = beta.eval(algebra.group.generator(i), algebra.group.generator(j))
                if got != want:
                    ok = False
                    details.append("%s: generator pair (%d,%d) gives %s" % (
                        label, i, j, got))
        return beta

    m24 = algebras["m2-4"]
    expect_table(m24, {(0, 1)}, "beta_1")
    expect_table(tensor(m24, m24), {(0, 1), (2, 3)}, "beta_2")
    expect_table(tensor(algebras["h4"], m24), {(0, 1), (2, 3)}, "beta_2 (quaternion block)")
    gamma1 = expect_table(algebras["c2m24"], {(1, 2)}, "gamma_1")
    gamma2 = expect_table(tensor(algebras["c2m24"], m24), {(1, 2), (3, 4)}, "gamma_2")
    expect_table(algebras["m2-8"], {(0, 1)}, "delta_1")
    expect_table(tensor(algebras["m2-8"], m24), {(0, 1), (2, 3)}, "delta_2")
    for gamma, rank in ((gamma1, 3), (gamma2, 5)):
        if gamma is None:
            continue
        a0 = tuple(1 if t == 0 else 0 for t in range(rank))
        if sorted(gamma.radical()) != sorted([tuple([0] * rank), a0]):
            ok = False
            details.append("radical of gamma is not the order-two subgroup at a0")
    report("criterion 4 (bicharacter table reproduction)", ok, "; ".join(details[:3]))


# -- criterion 5: structural suite ----------------------------------------------------------


def test_criterion_5_structural(algebras):
    ok = True
    details = []
    division_entries = [
        algebras["m2-4"], build_catalog("m2-2"), algebras["h4"],
        build_catalog("h2"), algebras["h"], build_catalog("c2"),
        algebras["m2-8"], algebras["m2c-z4"],
        algebras["pauli2"], algebras["pauli3"], algebras["pauli4"],
        algebras["pauli2x2"],
        build_catalog("d-cyclic", m=3, eps=1), build_catalog("d-cyclic", m=2, eps=-1),
        build_catalog("d-pair", k=2, l=2, mu=1, nu=1),
        build_catalog("d-pair", k=4, l=2, mu=-1, nu=1),
        algebras["e-1_4"], algebras["e1_8"],
    ]
    for alg in division_entries:
        good, info = check_graded_division(alg)
        if not good:
            ok = False
            details.append("%s not certified: %s" % (alg.name, info))
        try:
            alg.validate()  # graded product, unit, associativity by Light's test
        except ValueError as exc:
            ok = False
            details.append(str(exc))
    good, _ = check_graded_division(algebras["elem"])
    if good:
        ok = False
        details.append("the elementary grading must fail the division certificate")
    # center = sum of radical components for the regular entries
    for alg in (algebras["m2-4"], algebras["h4"], algebras["m2-8"],
                algebras["c2m24"], algebras["pauli2"], algebras["pauli2x2"],
                build_catalog("c2"), build_catalog("d-cyclic", m=3, eps=1),
                build_catalog("d-pair", k=2, l=2, mu=1, nu=1),
                build_catalog("d-pair", k=4, l=2, mu=-1, nu=1)):
        beta, _ = detect_regular(alg)
        rad = set(beta.radical())
        z = center(alg)
        if sorted({h.degree for h in z}) != sorted(rad) or \
                len(z) != sum(len(alg.component(g)) for g in rad):
            ok = False
            details.append("center of %s is not the radical-component sum" % alg.name)
    report("criterion 5 (structural suite)", ok, "; ".join(details[:3]))


# -- criterion 6: reduction soundness --------------------------------------------------------


def test_criterion_6_reduction(algebras):
    random.seed(61803)
    ok = True
    detail = ""
    for key in ("pauli3", "pauli4"):
        alg = algebras[key]
        elems = alg.group.elements()
        done = 0
        while done < 100:
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
            try:
                replay_certificate(FreePoly(alg.group, red.order, f.terms), red, cert)
            except VerificationFailure as exc:
                ok = False
                detail = "certificate replay failed on %s: %s" % (f, exc)
                break
            lhs = is_identity(alg, f)[0]
            rhs = True if red.is_zero() else is_identity(alg, red)[0]
            if lhs != rhs:
                ok = False
                detail = "identity status changed under reduction of %s" % f
                break
            done += 1
        if not ok:
            break
    report("criterion 6 (200 random reductions, certificates replayed)", ok, detail)


# -- criterion 7: optional long-running check ------------------------------------------------


@pytest.mark.skipif(os.environ.get("GRADEDPI_LONG") != "1",
                    reason="set GRADEDPI_LONG=1 (or use the CLI --long-running flag)")
def test_criterion_7_long_running(algebras, pauli_families):
    p4 = algebras["pauli4"]
    beta, _ = detect_complex_bicharacter(p4)
    i_val = Cyclo.zeta(beta.order, beta.order // 4)
    g = (1, 0)
    partners = [h for h in beta.group.elements() if beta.eval(g, h) == i_val][:3]
    degrees = [g, partners[0], g, partners[1], g, partners[2], g]
    # membership of the degree-seven alternating member at this shape
    fam = pauli_families["pauli4"]
    deg7 = [f for f in fam.s1 if len(f.letters()) == 7
            and [d for _, d in f.letters()] == sorted(degrees)]
    ok_members, detail = members_pass_identity(p4, deg7 or
                                               [f for f in fam.s1 if len(f.letters()) == 7][:32])
    record = check_pauli_multidegree(p4, degrees)
    report("criterion 7 (degree-seven membership and single-multidegree "
           "completeness on pauli-4)", ok_members and record.equal,
           detail or (record.witness or ""))


# -- criterion 8: quaternions vs 2x2 matrices --------------------------------------------------


def test_criterion_8_h_vs_m2(algebras):
    ok = True
    details = []
    for n in range(1, 5):
        degrees = [()] * n
        d1 = multilinear_identity_space(algebras["h"], degrees).dim
        d2 = multilinear_identity_space(algebras["m2r"], degrees).dim
        if d1 != d2:
            ok = False
            details.append("degree %d: %d vs %d" % (n, d1, d2))
    # the same bases are complete for the quaternions as well
    ok1, d1 = run_complete(algebras["h"], s4_hall_basis())
    ok2, d2 = run_complete(algebras["h"], okhitin_basis())
    if not ok1:
        ok, details = False, details + [d1]
    if not ok2:
        ok, details = False, details + [d2]
    report("criterion 8 (quaternions and M2(R) share identity dimensions to "
           "degree 4; same bases verify on the quaternions)", ok, "; ".join(details))
