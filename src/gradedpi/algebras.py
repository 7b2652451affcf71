"""Finite-dimensional graded algebras by structure constants, and the catalog
of real graded division algebras this package studies.

An algebra is a basis with a degree map into a finite abelian group and a
sparse multiplication table with exact real cyclotomic entries.  Construction
always validates realness, graded multiplication, the unit and associativity,
so a GradedAlgebra in hand is a certified object.  Associativity is proved by
Light's test on a generating set none of whose members can be dropped:
(xa)y = x(ay) for every basis x, y and every generator a, which costs
(generators) * dim^2 products instead of dim^3.
Structural analysis (center, commutation bicharacters, graded-division
certificates) is exact linear algebra over the real subfield, with
scalars.kernel_over_real_subfield the one solver.  Each system spans only the
coordinates of the graded components it can touch: the center is solved as
Z cap A_g one component at a time, the inverse of a homogeneous element of
degree g over A_(g^-1), and the spans that classify A_e over A_e alone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import PreconditionError, ResourceRefusal
from .groups import Bicharacter, FiniteAbelianGroup, quotient_by
from . import scalars
from .scalars import Cyclo, Echelon, _lcm

__all__ = [
    "GradedAlgebra",
    "HomogeneousElement",
    "RegularityWitness",
    "build_catalog",
    "catalog_ids",
    "tensor",
    "coarsen_by_quotient",
    "center",
    "center_echelon",
    "center_rows",
    "detect_regular",
    "detect_complex_bicharacter",
    "commutation_bicharacter",
    "check_graded_division",
]


def vec_add(u, v):
    out = dict(u)
    for k, c in v.items():
        s = out.get(k)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def vec_scale(u, c):
    if c.is_zero():
        return {}
    return {k: c * x for k, x in u.items()}


class HomogeneousElement:
    """A coordinate vector supported on basis indices of a single degree."""

    def __init__(self, algebra, degree, coords):
        algebra.group.check(degree)
        coords = {k: (c if isinstance(c, Cyclo) else Cyclo.rational(c))
                  for k, c in coords.items() if not (isinstance(c, Cyclo) and c.is_zero())}
        for k in coords:
            if algebra.degrees[k] != degree:
                raise ValueError("coordinate %d has degree %s, expected %s" % (
                    k, algebra.degrees[k], degree))
        self.algebra = algebra
        self.degree = degree
        self.coords = coords

    def is_zero(self):
        return not self.coords

    def __repr__(self):
        body = " + ".join("%s*%s" % (c, self.algebra.labels[k])
                          for k, c in sorted(self.coords.items()))
        return "Homogeneous[%s: %s]" % (self.algebra.group.element_to_word(self.degree),
                                        body or "0")


class GradedAlgebra:
    def __init__(self, group, order, labels, degrees, mult, unit, name="algebra"):
        if type(order) is not int or order < 1:
            raise ValueError("%s: cyclotomic order must be a positive integer, got %r"
                             % (name, order))
        self.group = group
        self.order = order
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.degrees = [group.check(d) for d in degrees]
        if len(self.degrees) != self.dim:
            raise ValueError("%s: %d degrees for %d basis labels" % (
                name, len(self.degrees), self.dim))
        if len(set(self.labels)) != self.dim:
            raise ValueError("%s: duplicate basis labels in %r" % (name, self.labels))
        self.name = name
        basis = set(range(self.dim))
        self.mult = {}
        for (i, j), row in mult.items():
            if i not in basis or j not in basis or not basis.issuperset(row):
                raise ValueError("%s: product %r*%r -> %r names an index outside range(%d)"
                                 % (name, i, j, list(row), self.dim))
            row = {k: (c if isinstance(c, Cyclo) else Cyclo.rational(c)) for k, c in row.items()}
            row = {k: c for k, c in row.items() if not c.is_zero()}
            if row:
                self.mult[(i, j)] = row
        if not basis.issuperset(unit):
            raise ValueError("%s: unit %r names an index outside range(%d)" % (
                name, list(unit), self.dim))
        self.unit = {k: (c if isinstance(c, Cyclo) else Cyclo.rational(c))
                     for k, c in unit.items()}
        self._components = {}
        for idx, d in enumerate(self.degrees):
            self._components.setdefault(d, []).append(idx)
        self._complex = None
        self._complex_checked = False
        self._complex_bicharacter = None
        self._regular = None
        self._center = None
        self.validate()

    # -- structure ------------------------------------------------------------

    @property
    def support(self):
        return sorted(self._components)

    def component(self, g):
        return self._components.get(g, [])

    def basis_vector(self, idx):
        return {idx: Cyclo.one()}

    def mul_basis(self, i, j):
        return self.mult.get((i, j), {})

    def mul_vec(self, u, v):
        """The product of coordinate dicts u and v, without zero entries.

        Structure constants are nonzero and the scalars form a field, so a
        product term is zero only when an input coordinate is, and those are
        skipped; only a sum of terms can then cancel to zero.
        """
        mult = self.mult
        out = {}
        summed = False
        for i, ci in u.items():
            for j, cj in v.items():
                row = mult.get((i, j))
                if not row:
                    continue
                c = ci * cj
                if c.is_zero():
                    continue
                for k, ck in row.items():
                    s = out.get(k)
                    if s is None:
                        out[k] = c * ck
                    else:
                        out[k] = s + c * ck
                        summed = True
        if summed:
            return {k: c for k, c in out.items() if not c.is_zero()}
        return out

    def validate(self):
        g = self.group
        for (i, j), row in self.mult.items():
            target = g.op(self.degrees[i], self.degrees[j])
            for k, c in row.items():
                if self.degrees[k] != target:
                    raise ValueError(
                        "%s: product %s*%s leaves the graded component" % (
                            self.name, self.labels[i], self.labels[j]))
                # with real constants, a unit that passes the check below is real
                if not c.is_real():
                    raise ValueError("%s: product %s*%s has a non-real coefficient %s" % (
                        self.name, self.labels[i], self.labels[j], c))
        for i in range(self.dim):
            b = self.basis_vector(i)
            if self.mul_vec(self.unit, b) != b or self.mul_vec(b, self.unit) != b:
                raise ValueError("%s: unit fails at basis element %s" % (self.name, self.labels[i]))
        e = g.identity
        for k in self.unit:
            if self.degrees[k] != e:
                raise ValueError("%s: unit is not in the identity component" % self.name)
        # Light's test: the a with (xa)y = x(ay) for all basis x, y form a
        # subspace closed under products that holds the unit, so it is the
        # whole algebra once it holds generators whose products span it.
        for a in self._generators():
            right_of = [self.mul_basis(x, a) for x in range(self.dim)]
            left_of = [self.mul_basis(a, y) for y in range(self.dim)]
            for x in range(self.dim):
                bx = self.basis_vector(x)
                for y in range(self.dim):
                    if self.mul_vec(right_of[x], self.basis_vector(y)) != \
                            self.mul_vec(bx, left_of[y]):
                        raise ValueError(
                            "%s: associativity fails at (%s, %s, %s)" % (
                                self.name, self.labels[x], self.labels[a], self.labels[y]))

    def _generators(self):
        """Basis indices a_1, a_2, ... whose products unit*a_i*a_j*... span
        the algebra, none of which can be dropped.  Each basis index outside
        the span of the products of those taken before it is taken; then each
        one taken, in turn, is dropped when the others still span.  Once one
        is kept, no subset of the others spans, so none left can be dropped."""
        gens = []
        span = self._word_span(gens)
        for i in range(self.dim):
            if span.dim == self.dim:
                break
            if not span.contains(self.basis_vector(i)):
                gens.append(i)
                span = self._word_span(gens)
        for a in list(gens):
            rest = [g for g in gens if g != a]
            if self._word_span(rest).dim == self.dim:
                gens = rest
        return gens

    def _word_span(self, gens):
        """The span of the unit and its products unit*a_i*a_j*... with basis
        indices a_i from gens, as an Echelon.  The products are formed left
        to right, so the span is right for a table that is not associative."""
        span = Echelon(self.dim)
        span.add(self.unit)
        products = [self.unit]
        for w in products:  # also visits the products appended below
            for g in gens:
                wg = self.mul_vec(w, self.basis_vector(g))
                if span.add(wg):
                    products.append(wg)
        return span

    # -- complex structure (central square root of -1 permuting the basis) ----

    def complex_structure(self):
        """A central basis-permuting J with J^2 = -1, or None.

        When present, every component splits into pairs (b, J*b) and exact
        identity/centrality questions only need one substitution per pair,
        because J is central and invertible.
        """
        if self._complex_checked:
            return self._complex
        self._complex_checked = True
        candidate = None
        for idx in range(self.dim):
            v = self.basis_vector(idx)
            sq = self.mul_vec(v, v)
            if sq != vec_scale(self.unit, Cyclo.rational(-1)):
                continue
            if all(self.mul_vec(v, self.basis_vector(j)) == self.mul_vec(self.basis_vector(j), v)
                   for j in range(self.dim)):
                candidate = v
                break
        if candidate is None:
            return None
        # J must permute the basis up to scalars, pairing each component
        partner = {}
        for i in range(self.dim):
            w = self.mul_vec(candidate, self.basis_vector(i))
            if len(w) != 1:
                return None
            ((j, c),) = w.items()
            partner[i] = j
        reps = {}
        for g, idxs in self._components.items():
            chosen, covered = [], set()
            for i in idxs:
                if i in covered:
                    continue
                chosen.append(i)
                covered.add(i)
                covered.add(partner[i])
            if len(covered) != len(idxs) or 2 * len(chosen) != len(idxs):
                return None
            reps[g] = chosen
        self._complex = (candidate, reps)
        return self._complex

    def substitution_reps(self, g):
        """Basis indices enough to decide identities on the component of g."""
        cs = self.complex_structure()
        if cs is not None:
            return cs[1].get(g, [])
        return self.component(g)

    def __repr__(self):
        return "GradedAlgebra(%s, dim=%d, group=%r, N=%d)" % (
            self.name, self.dim, self.group, self.order)


# -- generic constructions -------------------------------------------------------


def tensor(a: GradedAlgebra, b: GradedAlgebra) -> GradedAlgebra:
    """Tensor product with the canonical product-group grading."""
    group = a.group.direct_product(b.group)
    order = _lcm(a.order, b.order)

    def fuse(i, p):
        return i * b.dim + p

    labels = ["%s@%s" % (la, lb) for la in a.labels for lb in b.labels]
    degrees = [a.degrees[i] + b.degrees[p] for i in range(a.dim) for p in range(b.dim)]
    mult = {}
    for (i, j), arow in a.mult.items():
        for (p, q), brow in b.mult.items():
            row = {}
            for k, ca in arow.items():
                for r, cb in brow.items():
                    row[fuse(k, r)] = ca * cb
            mult[(fuse(i, p), fuse(j, q))] = row
    unit = {}
    for k, ca in a.unit.items():
        for r, cb in b.unit.items():
            unit[fuse(k, r)] = ca * cb
    return GradedAlgebra(group, order, labels, degrees, mult, unit,
                         name="%s(x)%s" % (a.name, b.name))


def coarsen_by_quotient(algebra: GradedAlgebra, g) -> GradedAlgebra:
    """Same algebra, degrees pushed through the projection G -> G/<g>."""
    quotient, project = quotient_by(algebra.group, g)
    degrees = [project(d) for d in algebra.degrees]
    return GradedAlgebra(
        quotient, algebra.order, algebra.labels, degrees, algebra.mult, algebra.unit,
        name="%s/<%s>" % (algebra.name, algebra.group.element_to_word(g)))


def center(algebra: GradedAlgebra):
    """Basis of the center, as homogeneous elements.

    For abelian grading groups the homogeneous parts of central elements are
    central, so the center is the sum of its parts Z cap A_g, and each is
    solved over the coordinates of A_g alone (see _center).  The result is
    memoized on the algebra.
    """
    if algebra._center is None:
        algebra._center = _center(algebra)
    return algebra._center[0]


def center_echelon(algebra: GradedAlgebra) -> Echelon:
    """The span of center(algebra) as an Echelon, whose reduce gives each
    vector's remainder off the center: the one congruent vector with no
    entry in a pivot column, which depends only on the span.  The structure
    constants are real, so its vectors over Q(zeta_N) are exactly those that
    commute with every basis element."""
    center(algebra)
    return algebra._center[1]


def center_rows(algebra: GradedAlgebra, g):
    """The fully reduced rows of center_echelon(algebra) of degree g, as
    sparse {basis index: coefficient} dicts in pivot order: a basis of the
    graded part Z cap A_g of the center.

    The center's basis is homogeneous, and reducing a homogeneous vector
    only subtracts rows of its own degree (rows of other degrees have no
    entry in its columns), so every row of the echelon, forward or fully
    reduced, is homogeneous.  The remainder off the center of a vector v of
    A_g is therefore v less v[p] times the row of pivot p, over the rows of
    degree g alone."""
    center(algebra)
    return algebra._center[2].get(g, [])


def _center(algebra):
    """Z cap A_g solved once for each supported g, over the coordinates of
    A_g alone: for z in A_g and b_j of degree h, z b_j - b_j z lies in
    A_(gh) and reads only z's coordinates, so the whole-algebra commutator
    system is one block per component.  A component with no commutator
    rows is central.  Each kernel vector has a 1 in its free column, the
    last of its support, and the elements are listed in the order of those
    columns, as one kernel of the whole algebra lists them."""
    zero = Cyclo.zero()
    out = []
    for g in algebra.support:
        comp = algebra.component(g)
        rows = []
        for j in range(algebra.dim):
            row_for_coord = {}
            for t, i in enumerate(comp):
                left = algebra.mul_basis(i, j)
                right = algebra.mul_basis(j, i)
                for k in set(left) | set(right):
                    c = left.get(k, zero) - right.get(k, zero)
                    if not c.is_zero():
                        row_for_coord.setdefault(k, [zero] * len(comp))[t] = c
            rows.extend(row_for_coord.values())
        basis = scalars.kernel_over_real_subfield(rows) if rows else [
            [Cyclo.one() if t == s else zero for t in comp] for s in comp]
        out.extend(HomogeneousElement(algebra, g, dict(zip(comp, v))) for v in basis)
    out.sort(key=lambda h: max(h.coords))
    ech = Echelon(algebra.dim)
    for h in out:
        ech.add(h.coords)
    rows_by_degree = {}
    for row in ech.sparse_basis():
        rows_by_degree.setdefault(algebra.degrees[min(row)], []).append(row)
    return out, ech, rows_by_degree


class RegularityWitness:
    def __init__(self, reason, pair=None, elements=None, scalar=None):
        self.reason = reason
        self.pair = pair
        self.elements = elements
        self.scalar = scalar

    def __repr__(self):
        return "RegularityWitness(%s, pair=%s, elements=%s)" % (
            self.reason, self.pair, self.elements)


def _commutation_scalar(uv, vu, jvu):
    """(l1, l2) with uv = l1 vu + l2 J vu, or None when there is none.  jvu is
    J vu, or None when there is no J: then l2 is None and l1 is the ratio of
    one coordinate, real because the structure constants are.  When vu and
    J vu have disjoint supports (J permutes the basis, say) the system is
    diagonal: l1 and l2 are coordinate ratios, the one solution, and a real
    one exists only if they are real.  Otherwise the real solutions are
    solved for.  Either way the answer is checked against uv exactly."""
    zero = Cyclo.zero()
    if jvu is None:
        k = next(iter(vu))
        lam = (uv.get(k, zero) / vu[k], None)
    elif vu.keys().isdisjoint(jvu):
        k1, k2 = next(iter(vu)), next(iter(jvu))
        lam = (uv.get(k1, zero) / vu[k1], uv.get(k2, zero) / jvu[k2])
        if not (lam[0].is_real() and lam[1].is_real()):
            return None
    else:
        rows = [[vu.get(k, zero), jvu.get(k, zero), -uv.get(k, zero)]
                for k in set(vu) | set(jvu) | set(uv)]
        sols = [v for v in scalars.kernel_over_real_subfield(rows) if not v[2].is_zero()]
        if not sols:
            return None
        sol = sols[0]
        lam = (sol[0] / sol[2], sol[1] / sol[2])
    return lam if uv == _commuted(vu, jvu, lam) else None


def _commuted(vu, jvu, lam):
    """l1 vu + l2 J vu."""
    if jvu is None:
        return vec_scale(vu, lam[0])
    return vec_add(vec_scale(vu, lam[0]), vec_scale(jvu, lam[1]))


def _commutation_bicharacter(algebra, j_vec, order):
    """The commutation bicharacter over Q(zeta_order), or (None, witness).

    For each pair of degrees (g, h), the first basis pair u, v with vu != 0
    fixes a scalar solving uv = l1 vu + l2 J vu (no l2 term when j_vec, the
    central J, is None), and every basis pair must satisfy it; the scalar is
    l1 + l2 i.  The scalars must be multiplicative, and the bicharacter is
    read off the generators.

    The constructor's validate() has proved the table associative, so only
    the basis pairs of substitution_reps are walked: one b of each pair
    (b, J'b) of the algebra's complex structure J', a central
    basis-permuting J' with J'^2 = -1, so J'b is a nonzero multiple of a
    basis element.  For any u, v, (J'u)v = J'(uv), v(J'u) = J'(vu) and
    J (v (J'u)) = J'(J vu), so uv = l1 vu + l2 J vu holds exactly when it
    holds with J'u for u (J' is invertible), and likewise for v: all four
    pairs of b, J'b and c, J'c share the representative's vanishing
    products and scalar.  The representative is the least index of its
    pair, so the first failing basis pair of a walk over all pairs is a
    representative pair, and this walk gives that walk's bicharacter and
    witness.
    """
    support = algebra.support
    group = algebra.group
    if set(support) != set(group.elements()):
        return None, RegularityWitness("support is a proper subset of the grading group")
    i_scalar = None if j_vec is None else Cyclo.zeta(order, order // 4)
    values = {}
    for g in support:
        for h in support:
            lam = first = None
            for i in algebra.substitution_reps(g):
                for j in algebra.substitution_reps(h):
                    pair = (algebra.labels[i], algebra.labels[j])
                    uv = algebra.mul_basis(i, j)
                    vu = algebra.mul_basis(j, i)
                    if not vu:
                        if uv:
                            return None, RegularityWitness("uv != 0 but vu = 0", (g, h), pair)
                        continue
                    jvu = None if j_vec is None else algebra.mul_vec(j_vec, vu)
                    if lam is None:
                        lam, first = _commutation_scalar(uv, vu, jvu), pair
                        if lam is None:
                            return None, RegularityWitness(
                                "no scalar relates uv and vu", (g, h), pair)
                    elif uv != _commuted(vu, jvu, lam):
                        if _commutation_scalar(uv, vu, jvu) is None:
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
    table = [[values[(group.generator(i), group.generator(j))]
              for j in range(group.rank)] for i in range(group.rank)]
    beta = Bicharacter(group, order, table)
    for (g, h), lam in values.items():
        if beta.eval(g, h) != lam:
            raise AssertionError("commutation function is not multiplicative")
    return beta, None


def detect_regular(algebra: GradedAlgebra):
    """Detect a real regular grading: returns (Bicharacter, None) or (None, witness).

    Checks that a single real scalar per degree pair relates uv and vu for all
    homogeneous basis pairs, and that products of components never vanish.
    The result is memoized on the algebra.
    """
    if algebra._regular is None:
        algebra._regular = _detect_regular(algebra)
    return algebra._regular


def _detect_regular(algebra):
    beta, witness = _commutation_bicharacter(algebra, None, _lcm(2, algebra.order))
    if witness is not None and witness.pair is not None:
        # a complex scalar through a central J may still exist; if so, report
        # the sharper reason (regular over C but not over R)
        cbeta, _ = detect_complex_bicharacter(algebra)
        if cbeta is not None:
            return None, RegularityWitness("commutation scalar is not real", witness.pair,
                                           scalar=cbeta.eval(*witness.pair))
    return beta, witness


def complex_unit(algebra: GradedAlgebra):
    """A central homogeneous element J of the identity component with J^2 = -1."""
    cs = algebra.complex_structure()
    if cs is not None:
        j_vec = cs[0]
        if len(j_vec) == 1:
            idx = next(iter(j_vec))
            if algebra.degrees[idx] == algebra.group.identity:
                return j_vec
    minus_one = vec_scale(algebra.unit, Cyclo.rational(-1))
    for h in center(algebra):
        if h.degree != algebra.group.identity:
            continue
        v = h.coords
        if algebra.mul_vec(v, v) == minus_one:
            return v
    return None


def detect_complex_bicharacter(algebra: GradedAlgebra):
    """Commutation bicharacter allowing complex scalars through a central J.

    Returns (Bicharacter over Q(zeta_lcm(N,4)), J) or (None, witness).  The
    scalar for a pair (g, h) is lam1 + lam2*i, realized in the algebra as
    uv = lam1*(vu) + lam2*(J*vu).  The result is memoized on the algebra.
    """
    if algebra._complex_bicharacter is None:
        algebra._complex_bicharacter = _detect_complex_bicharacter(algebra)
    return algebra._complex_bicharacter


def commutation_bicharacter(algebra: GradedAlgebra):
    """(beta, J) when every pair of homogeneous basis elements u, v of
    degrees g, h commutes up to beta: uv = beta(g, h) vu, a scalar l1 + l2 i
    acting as l1 + l2 J.  The real bicharacter of a regular grading comes
    first, with J None; then the complex one through the central J.
    (None, None) when there is neither.  Both lookups are memoized on the
    algebra."""
    beta, _ = detect_regular(algebra)
    if beta is not None:
        return beta, None
    beta, j_vec = detect_complex_bicharacter(algebra)
    return (beta, j_vec) if beta is not None else (None, None)


def _detect_complex_bicharacter(algebra):
    j_vec = complex_unit(algebra)
    if j_vec is None:
        return None, RegularityWitness("no central square root of -1")
    beta, witness = _commutation_bicharacter(algebra, j_vec, _lcm(algebra.order, 4))
    return (None, witness) if beta is None else (beta, j_vec)


# -- graded division certificates --------------------------------------------------


def invert(algebra: GradedAlgebra, v):
    """Two-sided inverse of a homogeneous v with real coordinates, or None.

    A zero v has none; a v that is not homogeneous is refused
    (PreconditionError).  The inverse of a homogeneous v of degree g lies in
    A_(g^-1), and v y then lies in A_e, so y is solved for over the
    coordinates of A_(g^-1) against the unit's coordinates in A_e
    (_solve_in_span).  No check of v y = y v = 1 follows: validate() proves
    the grading, so v y = 1 holds on all of A once it holds on A_e, and it
    proves associativity, under which a one-sided inverse in a
    finite-dimensional algebra is two-sided.
    """
    if not v:
        return None
    degrees = {algebra.degrees[k] for k in v}
    if len(degrees) != 1:
        raise PreconditionError("invert needs a homogeneous element, got one of degrees %s" % (
            ", ".join(sorted(algebra.group.element_to_word(g) for g in degrees))))
    comp = algebra.component(algebra.group.inverse(degrees.pop()))
    coeffs = _solve_in_span(
        algebra, [algebra.mul_vec(v, algebra.basis_vector(i)) for i in comp], algebra.unit)
    if coeffs is None:
        return None
    return {i: c for i, c in zip(comp, coeffs) if not c.is_zero()}


def _solve_in_span(algebra, span_vecs, target):
    """Coefficients writing target in the span of span_vecs, or None.

    Every vector given lies in A_e, so the system reads only A_e's rows."""
    rows = [[v.get(k, Cyclo.zero()) for v in span_vecs] + [-target.get(k, Cyclo.zero())]
            for k in algebra.component(algebra.group.identity)]
    for sol in scalars.kernel_over_real_subfield(rows):
        if not sol[-1].is_zero():
            t = sol[-1].inv()
            return [c * t for c in sol[:-1]]
    return None


def _classify_identity_component(algebra: GradedAlgebra):
    """Classify A_e as R, C or H by exact normalization, else a failure reason.

    One loop serves every dimension d of A_e: it takes the basis elements
    outside the span of 1 and the pure elements found so far, makes each
    pure (p^2 a negative real multiple of 1), the second one anticommuting
    with the first, and stops after d // 2 of them.  R is the loop stopping
    at once (validate() puts the nonzero unit in A_e); C is the loop
    stopping after one pure element, whose span with 1 is A_e; H is the
    loop stopping after two, i and j, with 1, i, j, ij spanning A_e.  Every
    system it solves lies in A_e (_solve_in_span).  The classification is a
    validator for the shapes the catalog can produce, not a general
    real-division-algebra decision procedure.
    """
    comp = algebra.component(algebra.group.identity)
    d = len(comp)
    if d not in (1, 2, 4):
        return None, "identity component dimension %d is not 1, 2 or 4" % d
    unit_vec = dict(algebra.unit)

    def pure_part(v):
        # require v^2 in span{1, v}; return (p, dscalar) with p^2 = dscalar * 1
        sq = algebra.mul_vec(v, v)
        coeffs = _solve_in_span(algebra, [unit_vec, v], sq)
        if coeffs is None:
            return None
        s, t = coeffs
        half_t = t * Cyclo.rational(Fraction(1, 2))
        p = vec_add(v, vec_scale(unit_vec, -half_t))
        dval = s + half_t * half_t
        return p, dval

    span = Echelon(algebra.dim)
    span.add(unit_vec)
    pures = []
    for idx in comp:
        if len(pures) == d // 2:
            break
        if span.contains(algebra.basis_vector(idx)):
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
            coeffs = _solve_in_span(algebra, [unit_vec], sym)
            if coeffs is None:
                return None, "symmetrized product is not scalar"
            c = coeffs[0] * Cyclo.rational(Fraction(1, 2))
            p = vec_add(p, vec_scale(p1, -(c / d1)))
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
        span.add(p)
    if len(pures) < d // 2:
        return None, "identity component has no anticommuting pure pair"
    if d == 4:
        (p1, _), (p2, _) = pures
        span.add(algebra.mul_vec(p1, p2))
        if span.dim != 4:
            return None, "1, i, j, ij do not span the identity component"
    return "RCH"[d // 2], None


def check_graded_division(algebra: GradedAlgebra):
    """Certificate that the grading is a division grading, or a failure reason.

    validate() has proved the unit.  This classifies the identity component
    as R, C or H, a division algebra, and then tries the first basis element
    u_g of each supported component A_g, one inverse solved over A_(g^-1)
    (invert).  That one element decides the component: when u_g is
    invertible, every nonzero x in A_g is (x u_g^-1) u_g with x u_g^-1 a
    nonzero, hence invertible, element of A_e, so A_g = A_e u_g and every
    nonzero element of A_g is invertible; when it is not, the grading is
    not a division grading.
    """
    cls, reason = _classify_identity_component(algebra)
    if cls is None:
        return False, {"reason": reason}
    units = {}
    for g in algebra.support:
        u_g = algebra.basis_vector(algebra.component(g)[0])
        if invert(algebra, u_g) is None:
            return False, {"reason": "the first basis element of component %s is not "
                                     "invertible" % algebra.group.element_to_word(g),
                           "degree": g}
        units[g] = u_g
    return True, {"e_class": cls, "units": units}


# -- catalog ------------------------------------------------------------------------


def _presented_algebra(group, gens, anticommuting, labels, name, order=1):
    """The real algebra of generators u_1, ..., u_r with u_i^(n_i) = eps_i,
    each pair of which commutes or anticommutes, on the normal-form words
    u^a = u_1^(a_1) ... u_r^(a_r) with 0 <= a_i < n_i.

    gens lists each (n_i, eps_i, degree of u_i); anticommuting lists the pairs
    (i, j), i > j, with u_i u_j = -u_j u_i; labels maps each basis label, in
    basis order, to its exponent tuple a.  Moving the letters of u^b left
    past those of u^a and reducing the exponents gives
    u^a u^b = (-1)^k u^((a + b) mod n), where k counts a_i b_j over the
    anticommuting pairs plus one for each generator with eps_i = -1 whose
    exponents wrap (a_i + b_i >= n_i).  The constructor proves the table
    associative."""
    exponents = list(labels.values())
    index = {a: t for t, a in enumerate(exponents)}
    degrees = [group.product(d for (_, _, d), e in zip(gens, a) for _ in range(e))
               for a in exponents]
    one, minus_one = Cyclo.one(), Cyclo.rational(-1)
    mult = {}
    for s, a in enumerate(exponents):
        for t, b in enumerate(exponents):
            k = 0
            for i, j in anticommuting:
                k += a[i] * b[j]
            c = []
            for (n, eps, _), x, y in zip(gens, a, b):
                x += y
                if x >= n:
                    x -= n
                    if eps < 0:
                        k += 1
                c.append(x)
            mult[(s, t)] = {index[tuple(c)]: minus_one if k % 2 else one}
    return GradedAlgebra(group, order, list(labels), degrees, mult,
                         {index[(0,) * len(gens)]: one}, name=name)


def _matrix_units(group, degrees_by_label, name):
    """M_2(R) on its matrix units E_ij, in the order and with the degrees of
    degrees_by_label: E_ij E_jl = E_il."""
    labels = list(degrees_by_label)
    index = {lab: t for t, lab in enumerate(labels)}
    one = Cyclo.one()
    mult = {(index["E%d%d" % (i, j)], index["E%d%d" % (j, l)]): {index["E%d%d" % (i, l)]: one}
            for i, j, l in itertools.product((1, 2), repeat=3)}
    return GradedAlgebra(group, 1, labels, list(degrees_by_label.values()), mult,
                         {index["E11"]: one, index["E22"]: one}, name=name)


_QUATERNIONS = {"1": (0, 0), "i": (1, 0), "j": (0, 1), "k": (1, 1)}


def build_c2():
    """C graded by Z_2: i^2 = -1."""
    return _presented_algebra(FiniteAbelianGroup((2,), ("a0",)), [(2, -1, (1,))], [],
                              {"1": (0,), "i": (1,)}, "c2")


def build_m2_4():
    """M_2(R) graded by Z_2 x Z_2: A = diag(1, -1) and B = offdiag(1, 1) with
    A^2 = B^2 = 1 and BA = -AB, and C = AB = offdiag(1, -1)."""
    g = FiniteAbelianGroup((2, 2), ("a", "b"))
    return _presented_algebra(g, [(2, 1, (1, 0)), (2, 1, (0, 1))], [(1, 0)],
                              {"I": (0, 0), "A": (1, 0), "B": (0, 1), "C": (1, 1)}, "m2-4")


def build_h4():
    """The quaternions graded by Z_2 x Z_2: i^2 = j^2 = -1, ji = -ij, k = ij."""
    g = FiniteAbelianGroup((2, 2), ("a", "b"))
    return _presented_algebra(g, [(2, -1, (1, 0)), (2, -1, (0, 1))], [(1, 0)],
                              _QUATERNIONS, "h4")


def build_h_trivial():
    """h4's presentation over the trivial group."""
    return _presented_algebra(FiniteAbelianGroup(()), [(2, -1, ()), (2, -1, ())], [(1, 0)],
                              _QUATERNIONS, "h-triv")


def build_m2r_trivial():
    return _matrix_units(FiniteAbelianGroup(()),
                         {"E11": (), "E12": (), "E21": (), "E22": ()}, "m2r-triv")


def build_m2_elem():
    """M2(R) with the elementary Z2-grading: diagonal even, off-diagonal odd."""
    return _matrix_units(FiniteAbelianGroup((2,), ("a",)),
                         {"E11": (0,), "E22": (0,), "E12": (1,), "E21": (1,)}, "m2-elem")


def build_m2_8():
    """The Z4 x Z2 division grading on M2(C) by eighth roots of unity:
    u[a] = zeta_8 diag(1, -1) and u[b] = offdiag(1, -1), with
    u[a]^4 = u[b]^2 = -1 and u[b]u[a] = -u[a]u[b]; the basis element
    u[a^x.b^y] is u[a]^x u[b]^y."""
    g = FiniteAbelianGroup((4, 2), ("a", "b"))
    return _presented_algebra(g, [(4, -1, (1, 0)), (2, -1, (0, 1))], [(1, 0)],
                              {"u[%s]" % g.element_to_word(d): d for d in g.elements()},
                              "m2-8", order=8)


def build_twisted_group_algebra(beta: Bicharacter, name=None, order=None):
    """P(beta) over R: the complex twisted group algebra of a 2-cocycle
    realizing beta, viewed as a real algebra.

    The cocycle on normal forms g = prod gi^ai is
    sigma(g, h) = prod_{i>j} beta(g_i, g_j)^(a_i b_j), which satisfies the
    cocycle identity and has sigma(g,h)/sigma(h,g) = beta(g,h) whenever beta
    is alternating (beta(g,g) = 1).  Both are checked on the built algebra:
    its validation proves it associative, and associativity at the basis
    triple (u_g, u_h, u_k) reads sigma(g,h)*sigma(gh,k) = sigma(g,hk)*sigma(h,k);
    the commutation scalars are compared with beta below.

    Every scalar here is a power of zeta_n, n the algebra's order, which
    must be a multiple of N, the order of beta, and of 4 (else
    PreconditionError): the table entry (i^r1 u_g)(i^r2 u_h) is zeta_n^m u_gh
    with m = k*n/N + (r1 + r2)*n/4, where sigma(g, h) = zeta_N^k.  So the
    real and i parts of zeta_n^m are split once for each m < n, and the table
    and the check against beta read them off by exponent.
    """
    group = beta.group
    exps = beta.table_exponents
    if any(exps[i][i] for i in range(group.rank)):
        raise PreconditionError(
            "twisted group algebra needs an alternating bicharacter "
            "(beta(g,g) = 1 on generators)")
    need = _lcm(beta.order, 4)
    n = need if order is None else order
    if not isinstance(n, int) or n < 1 or n % need:
        raise PreconditionError(
            "twisted group algebra of a bicharacter of order %d needs a cyclotomic "
            "order that is a multiple of %d, got %r" % (beta.order, need, n))
    step, quarter = n // beta.order, n // 4
    # parts[m] = (real part, i part) of zeta_n^m
    parts = [(z.real_part(), z.imag_over_i())
             for z in (Cyclo.zeta(n, m) for m in range(n))]

    def sigma_exponent(g, h):
        return sum(g[i] * h[j] * exps[i][j] for i in range(group.rank) for j in range(i))

    elements = group.elements()
    labels = []
    degrees = []
    index = {}
    for d in elements:
        for r in (0, 1):
            index[(d, r)] = len(labels)
            labels.append(("i*" if r else "") + "u[%s]" % group.element_to_word(d))
            degrees.append(d)
    mult = {}
    for d1 in elements:
        for d2 in elements:
            m = sigma_exponent(d1, d2) * step
            d3 = group.op(d1, d2)
            for r1 in (0, 1):
                for r2 in (0, 1):
                    t_re, t_im = parts[(m + (r1 + r2) * quarter) % n]
                    row = {}
                    if not t_re.is_zero():
                        row[index[(d3, 0)]] = t_re
                    if not t_im.is_zero():
                        row[index[(d3, 1)]] = t_im
                    mult[(index[(d1, r1)], index[(d2, r2)])] = row
    unit = {index[(group.identity, 0)]: Cyclo.one()}
    algebra = GradedAlgebra(group, n, labels, degrees, mult, unit,
                            name=name or "p-beta")
    # sanity: the commutation scalars reproduce beta (uv = beta(g,h) * vu,
    # the i-part realized through the central element J = i*u_e)
    j_vec = {index[(group.identity, 1)]: Cyclo.one()}
    for g in elements:
        for h in elements:
            uv = algebra.mul_basis(index[(g, 0)], index[(h, 0)])
            vu = algebra.mul_basis(index[(h, 0)], index[(g, 0)])
            b_re, b_im = parts[beta.exponent(g, h) * step]
            expected = vec_add(vec_scale(vu, b_re),
                               vec_scale(algebra.mul_vec(j_vec, vu), b_im))
            if uv != expected:
                raise AssertionError("twisted group algebra does not realize beta")
    return algebra


def build_pauli(n: int):
    """Pauli division grading on M_n(C) as a real algebra, by Z_n x Z_n.

    Clock and shift matrices X, Y with XY = eps YX for a primitive n-th root
    eps; each component is the real span of a matrix unit and its i-multiple.
    """
    if n < 2:
        raise PreconditionError("pauli grading needs n >= 2")
    group = FiniteAbelianGroup((n, n), ("x", "y"))
    eps = Cyclo.zeta(n)
    beta_table = [[Cyclo.one(), eps], [eps.inv(), Cyclo.one()]]
    beta = Bicharacter(group, n, beta_table)
    algebra = build_twisted_group_algebra(beta, name="pauli-%d" % n, order=4 * n)
    return algebra


def build_d_cyclic(m: int, eps: int):
    """Commutative cyclic division grading: one generator u with u^m = eps."""
    if m <= 1:
        raise PreconditionError("d-cyclic needs m > 1")
    if eps not in (1, -1):
        raise PreconditionError("d-cyclic needs eps in {1, -1}")
    return _presented_algebra(FiniteAbelianGroup((m,), ("g",)), [(m, eps, (1,))], [],
                              {"u^%d" % a: (a,) for a in range(m)},
                              "d-cyclic(%d,%d)" % (m, eps))


def _is_two_power(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def build_d_pair(k: int, l: int, mu: int, nu: int):
    """Division grading on a k*l-dimensional algebra generated by u, v with
    u^k = mu, v^l = nu, uv = -vu; k, l powers of two (>= 2)."""
    if not (_is_two_power(k) and _is_two_power(l)) or k < 2 or l < 2:
        raise PreconditionError("d-pair needs k, l powers of two, >= 2")
    if mu not in (1, -1) or nu not in (1, -1):
        raise PreconditionError("d-pair needs mu, nu in {1, -1}")
    g = FiniteAbelianGroup((k, l), ("g", "h"))
    return _presented_algebra(g, [(k, mu, (1, 0)), (l, nu, (0, 1))], [(1, 0)],
                              {"u^%d.v^%d" % (a, b): (a, b) for a in range(k) for b in range(l)},
                              "d-pair(%d,%d;%d,%d)" % (k, l, mu, nu))


def build_e_series(eps: int, n: int):
    """Division grading by Z_n with identity component C and a noncentral C:
    generated by u (degree e, u^2 = -1) and v (degree g, v^n = 1, uv = -vu).

    For n a power of two the two sign choices generate the same subalgebra
    (-v generates whatever v does), so eps only tags the name.
    """
    if eps not in (1, -1):
        raise PreconditionError("e-series needs eps in {1, -1}")
    if not _is_two_power(n) or n < 2:
        raise PreconditionError("e-series needs n a power of two, >= 2")
    g = FiniteAbelianGroup((n,), ("g",))
    return _presented_algebra(g, [(n, 1, (1,)), (2, -1, (0,))], [(1, 0)],
                              {"v^%d%s" % (a, ".u" if r else ""): (a, r)
                               for a in range(n) for r in (0, 1)},
                              "e-series(%d,%d)" % (eps, n))


# Catalog algebras, tensor products included, may have at most this dimension.
# Construction cost grows with dim^2 (the table and Light's test); the bound
# admits pauli-8, of dimension 128, and refuses pauli-9, of dimension 162.
MAX_CATALOG_DIM = 128

# each entry: its builder, the parameters it takes (as keywords, with their
# defaults; None for a required one), and the dimension of what it builds from
# those parameters: 0 for a size below 2, which the builder refuses, so that a
# negative size is refused as a precondition and not by the dimension bound
_CATALOG = {
    "c2": (build_c2, {}, lambda: 2),
    "m2-4": (build_m2_4, {}, lambda: 4),
    "m2-2": (lambda: coarsen_by_quotient(build_m2_4(), (1, 1)), {}, lambda: 4),
    "h4": (build_h4, {}, lambda: 4),
    "h2": (lambda: coarsen_by_quotient(build_h4(), (1, 0)), {}, lambda: 4),
    "h-triv": (build_h_trivial, {}, lambda: 4),
    "m2r-triv": (build_m2r_trivial, {}, lambda: 4),
    "m2-elem": (build_m2_elem, {}, lambda: 4),
    "m2-8": (build_m2_8, {}, lambda: 8),
    "m2c-z4": (lambda: coarsen_by_quotient(build_m2_8(), (0, 1)), {}, lambda: 8),
    "pauli": (build_pauli, {"n": None}, lambda n: 2 * n * n if n >= 2 else 0),
    "d-cyclic": (build_d_cyclic, {"m": None, "eps": 1}, lambda m, eps: m if m >= 2 else 0),
    "d-pair": (build_d_pair, {"k": None, "l": None, "mu": 1, "nu": 1},
               lambda k, l, mu, nu: k * l if k >= 2 and l >= 2 else 0),
    "e-series": (build_e_series, {"eps": 1, "n": None},
                 lambda eps, n: 2 * n if n >= 2 else 0),
}


def catalog_ids():
    return sorted(_CATALOG)


def build_catalog(name: str, **params) -> GradedAlgebra:
    """Build a catalog algebra; tensor products via 'id1@id2@...'.

    Each factor gets the params it takes, and a param that no factor takes
    is refused (PreconditionError) rather than ignored.  A product whose
    dimension exceeds MAX_CATALOG_DIM is refused (ResourceRefusal) before any
    factor is built."""
    name = name.strip()
    parts = [p.strip() for p in name.split("@")]
    for part in parts:
        if part not in _CATALOG:
            raise PreconditionError("unknown catalog id %r (known: %s)" % (part, catalog_ids()))
    unused = set(params).difference(*(_CATALOG[part][1] for part in parts))
    if unused:
        raise PreconditionError("catalog entry %r takes no parameter %s" % (
            name, ", ".join(map(repr, sorted(unused)))))
    factors, dim = [], 1
    for part in parts:
        build, takes, dimension = _CATALOG[part]
        kwargs = {}
        for key, default in takes.items():
            value = params.get(key, default)
            if value is None:
                raise PreconditionError(
                    "catalog entry %r requires parameter %r" % (part, key))
            if type(value) is not int:
                raise TypeError("catalog entry %r parameter %r must be an integer, got %r"
                                % (part, key, value))
            kwargs[key] = value
        factors.append((build, kwargs))
        dim *= dimension(**kwargs)
    if dim > MAX_CATALOG_DIM:
        raise ResourceRefusal("catalog algebra %r has dimension %d, over the bound %d" % (
            name, dim, MAX_CATALOG_DIM))
    out = None
    for build, kwargs in factors:
        nxt = build(**kwargs)
        out = nxt if out is None else tensor(out, nxt)
    return out
