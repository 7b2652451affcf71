"""The identity engine: membership tests, multilinear identity and central
spaces, consequence spans of generator sets, the generator families for the
catalog algebras, basis transfer and lifting, the rewriting reducer for
division gradings with complex commutation scalars, and verification reports.

Conventions that the engine depends on:

* Substitutions replace each template variable by a monomial in the target
  variables; a variable of identity degree may also receive the empty
  monomial 1 (the free algebra is unital).  Without that convention the
  padded central generator sets would not generate the identity parts they
  are responsible for.
* Consequence spans are computed per multidegree.  A multidegree is the
  ordered tuple of degrees assigned to variables 1..n; permuting variables is
  a free-algebra automorphism, so verification work is done once per sorted
  orbit and recorded with the orbit size.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time

from .algebras import (
    GradedAlgebra,
    center,
    center_echelon,
    center_rows,
    detect_complex_bicharacter,
    detect_regular,
    invert,
)
from .errors import PreconditionError, ResourceRefusal, VerificationFailure
from .freealg import (
    FreePoly,
    lift_poly,
    linear_combination,
    monomial_poly,
    monomial_values,
    multilinearize,
    reorder_scalar,
    transfer_phi,
)
from .groups import Bicharacter, quotient_by
from .scalars import Cyclo, Echelon, _lcm

__all__ = [
    "GeneratorSet",
    "MultidegreeBasis",
    "Subspace",
    "Target",
    "VerificationReport",
    "is_identity",
    "is_central",
    "multilinear_identity_space",
    "multilinear_central_space",
    "tideal_consequences",
    "tspace_consequences",
    "family_regular",
    "family_pauli",
    "pauli_reduce",
    "replay_certificate",
    "transfer_basis",
    "lift_basis",
    "verify_basis",
]

DEFAULT_DEGREE_BOUND = 6


# -- multidegree bases --------------------------------------------------------------


class MultidegreeBasis:
    """The n! monomials multilinear in variables 1..n of fixed degrees."""

    def __init__(self, group, degrees):
        self.group = group
        self.degrees = tuple(group.check(tuple(d)) for d in degrees)
        self.letters = tuple((i + 1, d) for i, d in enumerate(self.degrees))
        self.monomials = [tuple(p) for p in itertools.permutations(self.letters)]
        self.index = {m: k for k, m in enumerate(self.monomials)}
        self.ncols = len(self.monomials)

    def from_vector(self, vec, order=1) -> FreePoly:
        """The polynomial of a sparse vector {column: coefficient}."""
        return FreePoly(self.group, order,
                        {self.monomials[k]: c for k, c in vec.items()})

    def words(self):
        return [self.group.element_to_word(d) for d in self.degrees]


class Subspace:
    """A consequence span in a multidegree component, held as an Echelon over
    the component's columns mirrored: column k is stored at ncols - 1 - k,
    so a row's pivot, its leftmost stored column, is its last column.  An
    instance mono - c * other leads with the walked monomial mono, which
    many earlier instances share, so under first-column pivots each of them
    would be reduced through the rows of those instances: on pauli-4 at
    (y, x^3, y, x^3y, y) that is 3,422 row subtractions, and none under
    last-column pivots.  Vectors (sparse dicts or coordinate lists) go in
    and come out in the component's own columns; the span, and so the
    reduced sparse_basis, does not depend on the mirror.
    """

    def __init__(self, pg: MultidegreeBasis):
        self.pg = pg
        self._last = pg.ncols - 1
        self._echelon = Echelon(pg.ncols)

    @property
    def dim(self):
        return self._echelon.dim

    def add(self, vec):
        """Insert vec if independent of the span; returns True if added."""
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        return self._echelon.add({self._last - k: c for k, c in items})

    def contains(self, vec):
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        return self._echelon.contains({self._last - k: c for k, c in items})

    def sparse_basis(self):
        return [{self._last - k: c for k, c in row.items()}
                for row in self._echelon.sparse_basis()]

    def basis(self):
        zero = Cyclo.zero()
        return [[row.get(k, zero) for k in range(self.pg.ncols)]
                for row in self.sparse_basis()]


# -- membership -----------------------------------------------------------------------


def _substitution_tuples(algebra, letters):
    """Tuples of basis indices, one per letter, whose substitutions suffice
    for identity questions.

    Components with a central basis-permuting square root of -1 contribute one
    representative per (b, J b) pair: substituting J b scales every value by
    the invertible central J, so it changes no vanishing or centrality verdict.
    """
    pools = []
    for _, d in letters:
        reps = algebra.substitution_reps(d)
        if not reps:
            return None  # empty component: everything vanishes
        pools.append(reps)
    return itertools.product(*pools)


def _letter_positions(monomials, letters):
    """The tuple of positions in letters of each monomial's letters.  Under a
    substitution choice (basis indices, one per letter) the basis-index word
    of a monomial is then its positions read off choice, and its value is the
    product of those basis elements."""
    index = {lt: k for k, lt in enumerate(letters)}
    return [tuple(map(index.__getitem__, mono)) for mono in monomials]


def _shape(poly):
    """The (positions, coefficient) pairs of poly's terms, positions as in
    _letter_positions over its sorted letters: the form of a template that
    _instance_terms substitutes blocks into."""
    return list(zip(_letter_positions(poly.terms, poly.letters()), poly.terms.values()))


def _polarized(poly):
    return [poly] if poly.is_multilinear() else multilinearize(poly)


def _substitution_values(algebra, poly):
    """(letters, choice, value) for every polarized piece of poly and every
    representative basis substitution of its letters.  Values are products
    of basis words, so one memo of word prefixes serves every piece and
    every substitution."""
    basis = [algebra.basis_vector(i) for i in range(algebra.dim)]
    memo = {}
    for lin in _polarized(poly):
        letters = lin.letters()
        for d in {d for _, d in letters}:
            algebra.group.check(d)
        tuples = _substitution_tuples(algebra, letters)
        if tuples is None:
            continue
        coeffs = list(lin.terms.values())
        positions = _letter_positions(lin.terms, letters)
        for choice in tuples:
            words = [tuple(map(choice.__getitem__, pos)) for pos in positions]
            yield letters, choice, linear_combination(
                coeffs, monomial_values(words, basis, algebra, memo))


def _witness(algebra, letters, choice):
    return {lt: algebra.labels[i] for lt, i in zip(letters, choice)}


def _core_slice(monomials):
    """The slice of each of the monomials, all of one length, that is left
    after the letters every one of them begins with and the letters every
    one ends with; None when nothing is left (a single monomial)."""
    first, rest = monomials[0], monomials[1:]
    a, b = 0, len(first)
    while a < b and all(m[a] == first[a] for m in rest):
        a += 1
    if a == b:
        return None
    while all(m[b - 1] == first[b - 1] for m in rest):
        b -= 1
    return slice(a, b)


def _core_degrees(poly, longest):
    """The sorted degrees of poly's core, for a poly whose monomials share
    their sorted degrees (see _member_degrees); None when it has no core or
    one of more than longest letters."""
    monomials = list(poly.terms)
    cut = _core_slice(monomials)
    if cut is None or cut.stop - cut.start > longest:
        return None
    return tuple(sorted(d for _, d in monomials[0][cut]))


def _by_degree(lt):
    return lt[1], lt[0]


def _renamed_vector(lin, pg):
    """The vector in pg of a multilinear polynomial of pg's degrees, its
    letters sorted by (degree, index) and renamed in that order onto pg's
    letters sorted the same way.

    A polynomial with more letters than pg is tried through its core g, of
    f = u g v with u and v the letters every monomial begins and ends with:
    the vector is then g's, and when it solves an identity space's
    equations g is an identity, and so is f, the identities being a
    two-sided ideal.  None when neither the polynomial's degrees nor its
    core's are pg's."""
    onto = sorted(pg.letters, key=_by_degree)
    degrees = [d for _, d in onto]
    terms = lin.terms
    letters = sorted(lin.letters(), key=_by_degree)
    if [d for _, d in letters] != degrees:
        if len(letters) <= len(onto):
            return None
        cut = _core_slice(list(terms))
        if cut is None:
            return None
        terms = {mono[cut]: c for mono, c in terms.items()}
        letters = sorted(next(iter(terms)), key=_by_degree)
        if [d for _, d in letters] != degrees:
            return None
    rename = dict(zip(letters, onto))
    return _sparse_vector(pg, ((tuple(map(rename.__getitem__, mono)), c)
                               for mono, c in terms.items()))


def _solves(poly, target):
    """Whether every polarized piece of poly, renamed onto target's letters
    (see _renamed_vector), solves the equations of target, which must be an
    identity space (PreconditionError otherwise)."""
    if target.central:
        raise PreconditionError("membership is decided on an identity-space "
                                "target, not a central one")
    for lin in _polarized(poly):
        vec = _renamed_vector(lin, target.pg)
        if vec is None or not target.contains(vec):
            return False
    return True


def is_identity(algebra: GradedAlgebra, poly: FreePoly, target=None):
    """Exact graded-identity test; returns (bool, witness substitution or None).

    Non-multilinear input is fully polarized first (characteristic zero), and
    vanishing is checked on all representative basis substitutions, which
    suffices by multilinearity.

    target, when given, is the identity space of algebra at one multidegree
    (a Target with central False).  A polynomial whose every polarized piece
    or its core, renamed onto the target's letters (see _renamed_vector),
    solves the target's equations is an identity without any evaluation:
    renaming variables is a free-algebra automorphism, those equations are
    the rows of the very evaluations below, and a piece is an identity when
    its core is.  Any other polynomial is evaluated as without a target, so
    a failing verdict carries the same witness.
    """
    if target is not None and _solves(poly, target):
        return True, None
    for letters, choice, value in _substitution_values(algebra, poly):
        if value:
            return False, _witness(algebra, letters, choice)
    return True, None


def _noncommuting_label(algebra, value):
    for j in range(algebra.dim):
        b = algebra.basis_vector(j)
        if algebra.mul_vec(value, b) != algebra.mul_vec(b, value):
            return algebra.labels[j]
    raise AssertionError("a value outside the center commutes with the basis")


def is_central(algebra: GradedAlgebra, poly: FreePoly, target=None):
    """Classify as "identity", "proper-central" or "neither" (with witness).

    target, when given, is an identity space as for is_identity: a
    polynomial that solves it there, itself or through the core of each
    polarized piece, is "identity" without any evaluation.  Any other
    polynomial is evaluated as without a target, with the same verdict and
    witness.
    """
    if target is not None and _solves(poly, target):
        return "identity", None
    all_zero = True
    for letters, choice, value in _substitution_values(algebra, poly):
        if not value:
            continue
        all_zero = False
        if not center_echelon(algebra).contains(value):
            return "neither", (_witness(algebra, letters, choice),
                               _noncommuting_label(algebra, value))
    return ("identity", None) if all_zero else ("proper-central", None)


# -- multilinear spaces -----------------------------------------------------------------


def _component_rows(algebra, pg, central: bool):
    """Coordinate rows of the values of the n! monomials, one row per basis
    coordinate that some value meets, for each representative substitution
    in turn; None when a letter's component is empty.

    When central, the rows are those of the values taken modulo the center
    (sum mu_t v_t is central iff sum mu_t reduce(v_t) = 0, as reduction by
    the center's echelon form is linear), built one component at a time.
    The center is graded and every value lies in A_g, g the product of pg's
    degrees, so only Z cap A_g matters (see center_rows):

    * A_g inside Z: every value is central, there are no rows, and nothing
      is evaluated;
    * Z cap A_g = 0: the values are already reduced;
    * otherwise reduce(v) = v - sum_p v[p] z_p over the degree-g center rows
      z_p of pivot p, so the row r_k of coordinate k takes r_k - z_p[k] r_p
      for every such row and r_p is dropped: a few row operations per
      substitution in place of one reduction per value.  A row that cancels
      stays as a zero row, which adds no equation.
    """
    tuples = _substitution_tuples(algebra, pg.letters)
    if tuples is None:
        return None
    reducers = []
    if central:
        g = pg.group.product(pg.degrees)
        reducers = [(min(z), z) for z in center_rows(algebra, g)]
        if len(reducers) == len(algebra.component(g)):
            return []
    basis = [algebra.basis_vector(i) for i in range(algebra.dim)]
    memo = {}
    rows = []
    zero = Cyclo.zero()
    positions = _letter_positions(pg.monomials, pg.letters)
    for choice in tuples:
        words = [tuple(map(choice.__getitem__, pos)) for pos in positions]
        values = list(monomial_values(words, basis, algebra, memo))
        by_coord = {k: [v.get(k, zero) for v in values]
                    for k in sorted({k for v in values for k in v})}
        for p, z in reducers:
            rp = by_coord.pop(p, None)
            if rp is None:
                continue
            for k, c in z.items():
                if k != p:
                    rk = by_coord.get(k)
                    by_coord[k] = [-(c * b) for b in rp] if rk is None else \
                        [a - c * b for a, b in zip(rk, rp)]
        rows.extend(by_coord[k] for k in sorted(by_coord))
    return rows


class Target:
    """The target space at one multidegree: the polynomials whose every
    admissible value vanishes, or, when central, lies in the center.

    It is held as its defining equations, the echelonized real rows of the
    evaluation map: the dimension is n! less their rank, and membership is a
    dot product with each of the few equations.  The equations are read in
    their fully reduced form, the sparsest the echelon gives, taken once
    when the target is built.  A spanning basis is built from their kernel
    only when asked for, as for the witness of a failing record; its
    reduced echelon form is unique, so it does not depend on how it is
    built.

    A central target reads the center one graded component at a time (see
    _component_rows): when the component of the degree product lies in the
    center there are no equations and nothing is evaluated, and otherwise
    the equations are those of the values reduced modulo the center, which
    only the center's rows of that component reduce.
    """

    def __init__(self, algebra, pg: MultidegreeBasis, central: bool):
        self.pg = pg
        self.central = central
        self.equations = Echelon(pg.ncols)
        # no rows (None for a degree outside the support): the whole component
        # validate() admits only real structure constants, so every row is
        # already real: fixed by conj, with no skew half to split off
        for row in _component_rows(algebra, pg, central) or ():
            self.equations.add(row)
        self._rows = self.equations.sparse_basis()
        self._span = None

    @property
    def dim(self):
        return self.pg.ncols - self.equations.dim

    def contains(self, vec):
        """Whether vec, a sparse dict or a coordinate list, solves every equation."""
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        items = [(k, c) for k, c in items if not c.is_zero()]
        zero = Cyclo.zero()
        return all(sum((c * row[k] for k, c in items if k in row), zero).is_zero()
                   for row in self._rows)

    def span(self) -> Echelon:
        """The spanning basis as an echelon, built on first use; its
        sparse_basis is the unique reduced form.  The kernel vector of each
        free column f, in increasing order, is e_f less row[f] e_p for every
        reduced equation row of pivot p, built sparse from those rows."""
        if self._span is None:
            kernel = {}  # column f: the pivot entries of its kernel vector
            pivots = set()
            for row in self._rows:
                p = min(row)
                pivots.add(p)
                for j, c in row.items():
                    if j != p:
                        kernel.setdefault(j, {})[p] = -c
            one = Cyclo.one()
            self._span = Echelon(self.pg.ncols)
            for f in range(self.pg.ncols):
                if f not in pivots:
                    vec = kernel.get(f, {})
                    vec[f] = one
                    self._span.add(vec)
        return self._span

    def basis(self):
        return self.span().basis()

    def basis_polys(self, order=1):
        return [self.pg.from_vector(v, order) for v in self.span().sparse_basis()]


def _component(group, degrees, bound=DEFAULT_DEGREE_BOUND):
    """The component at degrees, refused (exit 3) when empty and (exit 4)
    past bound letters, before its n! monomials are enumerated."""
    degrees = list(degrees)
    n = len(degrees)
    if not n:
        raise PreconditionError("multidegree needs at least one variable")
    if n > bound:
        raise ResourceRefusal(
            "multidegree of length %d exceeds bound %d (component dimension %d)" % (
                n, bound, math.factorial(n)))
    return MultidegreeBasis(group, degrees)


def _space(algebra, degrees, central):
    return Target(algebra, _component(algebra.group, degrees), central)


def multilinear_identity_space(algebra, degrees) -> Target:
    """Exact kernel of the evaluation map on the multilinear component."""
    return _space(algebra, degrees, central=False)


def multilinear_central_space(algebra, degrees) -> Target:
    """Polynomials whose every admissible value lies in the center."""
    return _space(algebra, degrees, central=True)


# -- generator sets ----------------------------------------------------------------------


class GeneratorSet:
    """A named family of polynomials with identity/central bookkeeping.

    For mode "centrals" the set is partitioned: s1 generates the graded
    identities as a T-space (padded shapes), s2 holds the proper central
    generators.  extras are polynomials that belong to the story but not to
    the basis (checked for membership, and optionally as consequences).
    """

    def __init__(self, name, mode, group, order, s1=(), s2=(), extras=(),
                 assumptions=(), fast_source=None):
        if mode not in ("identities", "centrals"):
            raise ValueError("mode must be 'identities' or 'centrals'")
        self.name = name
        self.mode = mode
        self.group = group
        self.order = order
        self.s1 = list(s1)
        self.s2 = list(s2)
        self.extras = list(extras)
        self.assumptions = list(assumptions)
        self.fast_source = fast_source
        self._multilinear = None
        self._templates = None

    @property
    def members(self):
        return self.s1 + self.s2

    def multilinear_members(self):
        """Members, fully polarized, with the (s1, s2) split preserved."""
        if self._multilinear is None:
            m1, m2 = [], []
            for f in self.s1:
                m1.extend(multilinearize(f))
            for f in self.s2:
                m2.extend(multilinearize(f))
            self._multilinear = (m1, m2)
        return self._multilinear

    def templates(self):
        """The template table of the multilinear members of s1 then s2 (see
        _template_table), computed once per set: rows by letter count, ties
        in member order, grouped by degree product, each with its killer
        letters.  _generic_instances moves the rows whose key is a record's
        to the front, so every record reads one table."""
        if self._templates is None:
            m1, m2 = self.multilinear_members()
            self._templates = _template_table(m1 + m2)
        return self._templates

    def __repr__(self):
        return "GeneratorSet(%s, %s, |s1|=%d, |s2|=%d)" % (
            self.name, self.mode, len(self.s1), len(self.s2))


# -- consequence instances ------------------------------------------------------------------


def _subset_degrees(pg):
    """deg[mask]: the product degree of the letters of pg whose bits are set
    in mask (letter k is bit 1 << k); each entry is one group operation past
    the entry without its highest letter, so the table costs 2^n - 1."""
    op = pg.group.op
    deg = [pg.group.identity]
    for k, (_, d) in enumerate(pg.letters):
        deg.extend([op(e, d) for e in deg[:1 << k]])
    return deg


def _block_assignments(targets, degrees, tideal, identity, deg=None, killers=0):
    """Assignments of target letters to consecutive blocks.

    Yields (blocks, prefix, suffix): blocks[j] is an ordered tuple of target
    letters whose product degree is degrees[j] (any nonempty block when
    degrees[j] is None); a block may be empty only at the identity degree.
    For T-ideal instances the leftovers split into an ordered prefix and
    suffix, for T-space instances there are no leftovers.  Blocks are
    ordered permutations of the remaining letters, tried in the order of
    itertools.permutations; a candidate's degree is read off deg, the
    targets' subset-degree table (see _subset_degrees), which only a call
    whose degrees are all None may leave out.

    killers is a bit mask over the blocks (block j is bit 1 << j), the
    killer letters of the template the blocks are substituted into (see
    _killers).  An assignment that leaves a killer's block empty substitutes
    into the zero polynomial, so its instance is zero: the search never
    leaves such a block empty, and so never enumerates that subtree, prefix
    and suffix included.  Every other assignment is yielded in the order
    above.
    """
    bits = [1 << k for k in range(len(targets))]
    letter = dict(zip(bits, targets))
    # nonempty[j]: how many of the blocks j.. must be nonempty
    nonempty = [0] * (len(degrees) + 1)
    for j in range(len(degrees) - 1, -1, -1):
        nonempty[j] = nonempty[j + 1] + (degrees[j] != identity)

    def spell(block):
        return tuple(map(letter.__getitem__, block))

    def rec(j, remaining, blocks):
        if j == len(degrees):
            if tideal:
                blocks = [spell(b) for b in blocks]
                for perm in itertools.permutations(spell(remaining)):
                    for cut in range(len(perm) + 1):
                        yield blocks, perm[:cut], perm[cut:]
            elif not remaining:
                yield [spell(b) for b in blocks], (), ()
            return
        dj = degrees[j]
        if dj == identity and not killers >> j & 1:
            yield from rec(j + 1, remaining, blocks + [()])
        for size in range(1, len(remaining) - nonempty[j + 1] + 1):
            for combo in itertools.permutations(remaining, size):
                mask = sum(combo)
                if dj is None or deg[mask] == dj:
                    left = tuple(x for x in remaining if not x & mask)
                    yield from rec(j + 1, left, blocks + [combo])

    yield from rec(0, tuple(bits), [])


def _sparse_vector(pg, terms):
    """The instance vector {column: coefficient} of the sum of c * mono over
    the (mono, c) in terms, with zero entries dropped ({} when it is zero)."""
    vec = {}
    for mono, c in terms:
        k = pg.index[mono]
        vec[k] = vec[k] + c if k in vec else c
    return {k: c for k, c in vec.items() if not c.is_zero()}


def _instance_terms(shape, blocks, prefix, suffix):
    """The (monomial, coefficient) terms of one substitution instance of a
    template shape (see _shape): the template's letter k, the k-th of its
    sorted letters, is replaced by the block blocks[k], and every monomial is
    put between prefix and suffix."""
    for positions, c in shape:
        yield prefix + tuple(x for k in positions for x in blocks[k]) + suffix, c


class _Template:
    """One row of a template table: a multilinear template and the facts of
    it that _generic_instances reads (see _template_table)."""
    __slots__ = ("poly", "degrees", "key", "needed", "product", "shape", "killers")

    def __init__(self, poly, degrees, key, needed, product, shape, killers):
        self.poly, self.degrees, self.key = poly, degrees, key
        self.needed, self.product, self.shape = needed, product, shape
        self.killers = killers


def _killers(shape, degrees, identity):
    """The killer letters of a multilinear template, given by its _shape and
    its sorted letters' degrees: a bit mask (letter k is bit 1 << k) of the
    letters of identity degree whose setting to 1 makes the template the
    zero polynomial.

    Vanishing is monotone: setting more letters to 1 substitutes into that
    zero polynomial, so every instance that puts 1 in a killer's place is
    zero, whatever the other letters get.  Sets of two or more letters that
    vanish together, with no killer among them, are not looked for: no
    template of the catalog's generator sets has one, and their instances
    are dropped as zero vectors anyway."""
    killers = 0
    for k, d in enumerate(degrees):
        if d == identity:
            restricted = {}
            for positions, c in shape:
                mono = tuple(x for x in positions if x != k)
                restricted[mono] = restricted[mono] + c if mono in restricted else c
            if all(c.is_zero() for c in restricted.values()):
                killers |= 1 << k
    return killers


class _TemplateTable:
    """The rows of a template table in table order, and the same rows
    grouped by degree product, table order kept within each group."""

    def __init__(self, rows):
        self.rows = rows
        self.by_product = {}
        for row in rows:
            self.by_product.setdefault(row.product, []).append(row)


def _template_table(polys):
    """The facts _generic_instances reads of each multilinear template, one
    _Template per poly: its sorted letters' degrees, its key (letter count,
    sorted degrees), its count of non-identity letters, its degree product,
    its _shape and its killer letters (see _killers).  Rows
    are ordered by letter count, ties in polys' order, and grouped by
    degree product (see _TemplateTable)."""
    rows = []
    for poly in polys:
        group = poly.group
        degrees = [d for _, d in poly.letters()]
        shape = _shape(poly)
        rows.append(_Template(
            poly, degrees, (len(degrees), tuple(sorted(degrees))),
            sum(1 for d in degrees if d != group.identity), group.product(degrees),
            shape, _killers(shape, degrees, group.identity)))
    rows.sort(key=lambda row: row.key[0])
    return _TemplateTable(rows)


def _generic_instances(templates, pg, tideal):
    """Instances of every row of a template table (see _template_table), as
    (vec, (template, blocks, prefix, suffix)): the rows whose key is the
    target's (the direct relabelings) first, then the others, each in table
    order, so by letter count with ties in member order.

    A row is skipped before its assignments are enumerated when it needs more
    non-identity letters than the target has, or, for T-space instances,
    whose blocks partition the target letters, when its degree product
    differs from the target's (the group is abelian): a T-space record reads
    only the table's group of its own product.  One subset-degree table of
    the target letters (see _subset_degrees), 2^n - 1 group operations,
    gives the target's product and every block degree of the record, so no
    block degree is multiplied out.  The assignments that leave one of a
    row's killer letters empty, whose instances are zero, are never
    enumerated (see _block_assignments); zero vectors are not yielded
    either way.
    """
    n = len(pg.letters)
    deg = _subset_degrees(pg)
    key = (n, tuple(sorted(pg.degrees)))
    identity = pg.group.identity
    rows = templates.rows if tideal else templates.by_product.get(deg[-1], ())
    fits = [row for row in rows if row.needed <= n]
    for row in sorted(fits, key=lambda row: row.key != key):
        for blocks, prefix, suffix in _block_assignments(pg.letters, row.degrees, tideal,
                                                         identity, deg, row.killers):
            vec = _sparse_vector(pg, _instance_terms(row.shape, blocks, prefix, suffix))
            if vec:
                yield vec, (row.poly, blocks, prefix, suffix)


def tideal_consequences(generators, degrees, group=None) -> Subspace:
    """Span at one multidegree of all T-ideal substitution instances.

    generators: a GeneratorSet (members used) or list of polynomials; non-
    multilinear members are polarized first.
    """
    return _consequence_space(generators, degrees, group, tideal=True)


def tspace_consequences(generators, degrees, group=None) -> Subspace:
    """Span of substitution instances only (no outer multiplication)."""
    return _consequence_space(generators, degrees, group, tideal=False)


def _consequence_space(generators, degrees, group, tideal):
    """The span of every instance stage of the generators taken as a set of
    the asked mode: a set of that mode keeps its fast source, and a raw list
    or a set of the other mode gets the generic substitution instances only."""
    mode = "identities" if tideal else "centrals"
    if not isinstance(generators, GeneratorSet):
        if group is None:
            raise ValueError("group required when passing a raw polynomial list")
        # the order only prints witnesses, and a span has none
        generators = GeneratorSet("generators", mode, group, 1, s1=generators)
    elif generators.mode != mode:
        generators = GeneratorSet(generators.name, mode, generators.group,
                                  generators.order, s1=generators.s1, s2=generators.s2)
    pg = _component(generators.group, degrees)
    sub = Subspace(pg)
    for vec in itertools.chain.from_iterable(_instance_stages(generators, pg)):
        sub.add(vec)
    return sub


# -- regular families -------------------------------------------------------------------------


def _block_degrees(mono, group):
    """deg[a][b]: the product degree of the block mono[a:b], for a < b; each
    entry is one group operation past deg[a][b - 1]."""
    op, n = group.op, len(mono)
    out = []
    for a in range(n):
        row = [None] * (n + 1)
        acc = group.identity
        for b in range(a, n):
            acc = row[b + 1] = op(acc, mono[b][1])
        out.append(row)
    return out


def _adjacent_cuts(mono, group, deg=None):
    """Cuts u|B1|B2|v of a monomial with B1 and B2 nonempty, as
    (d1, d2, u B2 B1 v) with di the product degree of Bi.  deg is the
    monomial's _block_degrees table, built when not given."""
    n = len(mono)
    if deg is None:
        deg = _block_degrees(mono, group)
    for a in range(n):
        for b in range(a + 1, n + 1):
            d1 = deg[a][b]
            for c in range(b + 1, n + 1):
                yield d1, deg[b][c], mono[:a] + mono[b:c] + mono[a:b] + mono[c:]


def _separated_cuts(mono, group, deg=None):
    """Cuts u|B1|W|B2|v of a monomial with B1 and B2 nonempty of one product
    degree g and W possibly empty, as (u, B1, W, B2, v, g).  deg is the
    monomial's _block_degrees table, built when not given."""
    n = len(mono)
    if deg is None:
        deg = _block_degrees(mono, group)
    for a in range(n):
        for b in range(a + 1, n + 1):
            g = deg[a][b]
            for c in range(b, n):
                row = deg[c]
                for d in range(c + 1, n + 1):
                    if row[d] == g:
                        yield mono[:a], mono[a:b], mono[b:c], mono[c:d], mono[d:], g


def _binomial(pg, mono, other, c):
    """The instance vector of mono - c * other."""
    return _sparse_vector(pg, ((mono, Cyclo.one()), (other, -c)))


class _RegularSource:
    """Exact fast instance streams for the regular-grading families, in two
    stages.

    The T-ideal instances of the commutation binomials at a multidegree are
    precisely the block relations u(B1 B2 - beta(d1,d2) B2 B1)v over all ways
    of cutting each monomial into four (possibly empty) consecutive parts with
    B1, B2 nonempty; the central family adds every full monomial whose product
    degree lies in the radical.  The second stage streams all of them, so the
    source is exact.

    The first stage streams the central family's monomials, then for each
    monomial but the first the single-letter swap u(ab - beta(a,b) ba)v at
    its first descent ab.  The swapped monomial is lexicographically
    smaller, so under a Subspace's last-column pivots each swap brings in
    its monomial's column as a new pivot: the n! - 1 swaps are independent
    and close an identities record without the second stage.
    """

    exact = True  # the streamed instances span exactly the generic span

    def __init__(self, beta: Bicharacter, mode: str):
        self.beta = beta
        self.mode = mode
        self.radical = set(beta.radical())

    def _descents(self, pg: MultidegreeBasis):
        """The first stage: the radical monomials, then the descent swaps."""
        group = self.beta.group
        if self.mode == "centrals":
            total = group.product(pg.degrees)
            if total in self.radical:
                for k in range(pg.ncols):
                    yield {k: Cyclo.one()}
        for mono in pg.monomials[1:]:
            i = next(i for i in range(len(mono) - 1) if mono[i] > mono[i + 1])
            a, b = mono[i], mono[i + 1]
            yield _binomial(pg, mono, mono[:i] + (b, a) + mono[i + 2:],
                            self.beta.eval(a[1], b[1]))

    def _all_cuts(self, pg: MultidegreeBasis):
        """The second stage: the block relation of every cut."""
        group = self.beta.group
        for mono in pg.monomials:
            for d1, d2, swapped in _adjacent_cuts(mono, group):
                vec = _binomial(pg, mono, swapped, self.beta.eval(d1, d2))
                if vec:
                    yield vec

    def stages(self, pg):
        yield self._descents(pg)
        yield self._all_cuts(pg)


def family_regular(beta: Bicharacter, mode: str) -> GeneratorSet:
    """The commutation-binomial identity family, or the central family
    (radical variables plus padded binomials), for a regular grading."""
    group = beta.group
    order = _lcm(beta.order, 2)
    elements = group.elements()
    values = {(g, h): beta.eval(g, h) for g in elements for h in elements}
    one = Cyclo.one()
    identities = []
    for g in elements:
        for h in elements:
            identities.append(FreePoly(group, order, {
                ((1, g), (2, h)): one,
                ((2, h), (1, g)): -values[(g, h)],
            }))
    if mode == "identities":
        return GeneratorSet("regular-identities", "identities", group, order,
                            s1=identities, fast_source=_RegularSource(beta, mode))
    if mode != "centrals":
        raise ValueError("mode must be 'identities' or 'centrals'")
    s2 = [monomial_poly(group, order, [(1, h)]) for h in beta.radical()]
    s1 = []
    for h1 in elements:
        for h2 in elements:
            for h3 in elements:
                lam = values[(h2, h3)]
                for h4 in elements:
                    s1.append(FreePoly(group, order, {
                        ((1, h1), (2, h2), (3, h3), (4, h4)): one,
                        ((1, h1), (3, h3), (2, h2), (4, h4)): -lam,
                    }))
    return GeneratorSet("regular-centrals", "centrals", group, order, s1=s1, s2=s2,
                        fast_source=_RegularSource(beta, mode))


# -- Pauli families -----------------------------------------------------------------------------


def _inversion_exponents(column, order):
    """The sum mod order of column[v][u] over the inverted pairs u < v of
    each permutation of range(n), listed in itertools.permutations order.

    A permutation that places v before the variables rest of a sorted set
    inverts (u, v) for every u < v in rest, so the sums over the
    permutations of each subset, in lexicographic order, are those over its
    subsets one smaller, shifted by that pair sum; the subsets are walked
    smallest first, each once.
    """
    n = len(column)
    walks = {(): [0]}
    for size in range(1, n + 1):
        for rest in itertools.combinations(range(n), size):
            out = walks[rest] = []
            for k, v in enumerate(rest):
                col = column[v]
                inc = 0
                for u in rest[:k]:
                    inc += col[u]
                tail = walks[rest[:k] + rest[k + 1:]]
                out += map(inc.__add__, tail) if inc else tail
    return [e % order for e in walks[tuple(range(n))]]


def _gamma_values(beta, degrees):
    """The exponent e_sigma of each permutation's reordering scalar
    gamma_sigma = zeta_N^e_sigma (see freealg.reorder_scalar), listed in
    itertools.permutations order, which is the column order of the
    MultidegreeBasis at the tuple: the k-th exponent is that of the
    permutation of column rank k.

    The exponents are walked off one n x n matrix of beta's pair exponents
    (_inversion_exponents).  The reversal, which inverts every pair, is
    checked against reorder_scalar, and a mismatch raises AssertionError.
    """
    n = len(degrees)
    exponent = beta.exponent
    # column[v][u]: the exponent of beta(d_u, d_v)
    exps = _inversion_exponents([[exponent(du, dv) for du in degrees] for dv in degrees],
                                beta.order)
    if beta.powers[exps[-1]] != reorder_scalar(tuple(range(n - 1, -1, -1)), degrees, beta):
        raise AssertionError("reordering exponent walk disagrees with reorder_scalar "
                             "at the reversal of %r" % (tuple(degrees),))
    return exps


def _quadratic_pair(val):
    """(p, q) = (-(val + conj val), val * conj val), so that x^2 + p x + q
    has the roots val and conj val."""
    return -(val + val.conj()), val * val.conj()


def _pair_member(group, order, g, h, val):
    """x1:g x2:h - val x2:h x1:g."""
    x1, x2 = (1, g), (2, h)
    return FreePoly(group, _lcm(order, val.order), (((x1, x2), Cyclo.one()), ((x2, x1), -val)))


def _triple_member(group, order, g, h, p, q):
    """x1:g x2:g x3:h + p x1:g x3:h x2:g + q x3:h x1:g x2:g; a zero p (at
    the values i and -i) leaves out its term."""
    x1, x2, x3 = (1, g), (2, g), (3, h)
    return FreePoly(group, _lcm(_lcm(order, p.order), q.order),
                    (((x1, x2, x3), Cyclo.one()), ((x1, x3, x2), p), ((x3, x1, x2), q)))


def _swap_member(group, order, g, h):
    """x1:g x2:h x3:g - x3:g x2:h x1:g."""
    x1, x2, x3 = (1, g), (2, h), (3, g)
    return FreePoly(group, order, (((x1, x2, x3), Cyclo.one()),
                                   ((x3, x2, x1), -Cyclo.one())))


def _kernel_perm_vectors(beta, degrees, realness, coefficients):
    """Literal (I)/(II)-shaped identities spanning the kernel at one tuple,
    with the column ranks of their permutations.

    With gamma_sigma the reordering scalars, the real solutions of
    sum mu_sigma gamma_sigma^(-1) = 0 are spanned by binomials with real
    ratios and trinomials with the exact real pair (p, q).  Each identity is
    a list of (permutation, coefficient); every one is a literal family shape
    and together they span all linear identities at the tuple.  The second
    value is one flat tuple of the itertools.permutations ranks of every
    identity's permutations, identity after identity: at a MultidegreeBasis
    of the tuple's own degrees, the rank is the permutation's column.

    The scalars are roots of unity zeta_N^e with few distinct exponents e
    (at most 4 among the 120 of a pauli-4 tuple of length 5), read off
    _gamma_values, and an identity's coefficients depend only on its
    e_sigma and the tuple's e_tau0, so each exponent's realness and each
    pair's coefficients are computed, and the coefficients checked real and
    an identity, once.  realness (e -> whether zeta_N^e is real) and
    coefficients ((e_sigma, e_tau0) -> _kernel_coefficients) are the
    caller's tables they are kept in, filled as exponents are met;
    _PauliSource shares its own between all the tuples of its bicharacter.
    """
    powers = beta.powers
    exps = _gamma_values(beta, degrees)
    perms = list(itertools.permutations(range(len(degrees))))
    identity_perm = perms[0]
    one = Cyclo.one()
    real_ranks, nonreal_ranks = [], []
    for rank, e in enumerate(exps):
        real = realness.get(e)
        if real is None:
            real = realness[e] = powers[e].is_real()
        if not real:
            nonreal_ranks.append(rank)
        elif rank:
            real_ranks.append(rank)
    out, ranks = [], []
    for r in real_ranks:
        out.append([(identity_perm, one), (perms[r], -powers[exps[r]])])
        ranks.extend((0, r))
    if nonreal_ranks:
        t = nonreal_ranks[0]
        tau0, e_tau = perms[t], exps[t]
        for r in nonreal_ranks[1:]:
            key = (exps[r], e_tau)
            coeffs = coefficients.get(key)
            if coeffs is None:
                coeffs = coefficients[key] = _kernel_coefficients(powers[exps[r]],
                                                                  powers[e_tau])
            if len(coeffs) == 1:
                out.append([(perms[r], one), (tau0, -coeffs[0])])
                ranks.extend((r, t))
            else:
                out.append([(identity_perm, one), (perms[r], coeffs[0]), (tau0, coeffs[1])])
                ranks.extend((0, r, t))
    return out, tuple(ranks)


def _kernel_coefficients(g_sig, g_tau):
    """(ratio,) of the binomial sigma - ratio tau0 when g_tau / g_sig is real,
    else (p, q) of the trinomial id + p sigma + q tau0; each checked exactly
    (AssertionError otherwise)."""
    one = Cyclo.one()
    a = g_sig.inv()
    b = g_tau.inv()
    det = a * b.conj() - b * a.conj()
    if det.is_zero():
        # gamma ratios real: binomial with the real ratio
        ratio = g_tau / g_sig
        if not ratio.is_real():
            raise AssertionError("kernel binomial ratio is not real")
        return (ratio,)
    pp = (b - b.conj()) / det
    qq = (a.conj() - a) / det
    if not (pp.is_real() and qq.is_real()):
        raise AssertionError("kernel trinomial coefficients are not real")
    if not (pp * a + qq * b + one).is_zero():
        raise AssertionError("kernel trinomial is not an identity")
    return pp, qq


def _kernel_vectors(pg, combos, blocks, prefix=(), suffix=()):
    """Instance vectors of kernel identities with variable t replaced by
    blocks[t], between a fixed prefix and suffix; each identity's
    (permutation, coefficient) list is its template shape."""
    for combo in combos:
        vec = _sparse_vector(pg, _instance_terms(combo, blocks, prefix, suffix))
        if vec:
            yield vec


class _PauliSource:
    """Fast exact instance streams for the non-regular Pauli families.

    Stage one: block relations from the pair, triple and (when the imaginary
    unit is a commutation value) swap and alternating families, plus the
    kernel identities directly at the multidegree when its repeat pattern is
    within the applicable repeat bound.  Stage two: kernel identities
    instantiated on every ordered block partition whose merged degree tuple
    is admitted (the constructive content of the reduction lemmas).  Every
    vector yielded is a genuine instance of a family member.

    This is the one place that derives the grading's Pauli facts, each once
    per source: at construction, the commutation value of every pair of
    degrees, the quadratic pair (p, q) of every distinct nonreal value,
    shared by the pairs that take it, and the i-partners of every degree g
    (the h with beta(g, h) = i) with the degree-seven record shape they
    give; on first use, the kernel shapes of each degree tuple
    (``kernel_shapes``), with the permutation ranks of their terms.  The
    shapes of every tuple read two tables of the source, keyed by the
    integer exponents e of the reordering scalars zeta_N^e and filled as
    exponents are met: the realness of each scalar and the kernel
    coefficients of each pair (e_sigma, e_tau0), so each is computed once
    per source however many tuples share it (4 pairs on pauli-3 and pauli-4
    up to degree 3).  The family, every instance stage, the reducer and the
    degree-seven record read the shapes; the direct kernel stage reads the
    ranks, which are its columns.  Nothing is shared between sources.
    """

    exact = False  # stages are sound but may undershoot; callers fall back

    def __init__(self, beta):
        self.beta = beta
        order = beta.order  # a multiple of 4, since J squares to -1
        elements = beta.group.elements()
        self.values = {}
        # the pairs with a nonreal value zeta_N^k (2k != 0 mod N), to their
        # (p, q), computed once per value (i and -i on pauli-4's 96 such
        # pairs); the i-partners are the pairs with k = N/4
        self.quadratic = {}
        self.partners = {g: [] for g in elements}
        pairs = {}
        for g in elements:
            for h in elements:
                k = beta.exponent(g, h)
                v = self.values[(g, h)] = beta.powers[k]
                if 2 * k % order:
                    pq = pairs.get(k)
                    if pq is None:
                        pq = pairs[k] = _quadratic_pair(v)
                    self.quadratic[(g, h)] = pq
                    if 4 * k == order:
                        self.partners[g].append(h)
        # beta(g, h^-1) = 1 / beta(g, h), so -i is a value exactly when i is
        self.i_present = any(self.partners.values())
        self.max_repeat = 3 if self.i_present else 1
        # the multidegree of the degree-seven record: g h1 g h2 g h3 g at the
        # first degree with three i-partners
        self.long_shape = next(((g, ps[0], g, ps[1], g, ps[2], g)
                                for g, ps in self.partners.items() if len(ps) >= 3), None)
        self._shapes = {}
        self._realness = {}
        self._coefficients = {}

    def imaginary(self, g, h):
        """Whether beta(g, h) is i or -i: the nonreal roots of unity whose
        quadratic pair has p = -2 Re beta(g, h) = 0."""
        pq = self.quadratic.get((g, h))
        return pq is not None and pq[0].is_zero()

    def admitted(self, degs):
        counts = {}
        for d in degs:
            counts[d] = counts.get(d, 0) + 1
        return all(v <= self.max_repeat for v in counts.values())

    def _kernel(self, degrees):
        """(shapes, ranks) of _kernel_perm_vectors at a degree tuple, built
        on first use from the source's realness and coefficient tables,
        keyed by exponent, and kept."""
        key = tuple(degrees)
        kernel = self._shapes.get(key)
        if kernel is None:
            kernel = self._shapes[key] = _kernel_perm_vectors(
                self.beta, key, self._realness, self._coefficients)
        return kernel

    def kernel_shapes(self, degrees):
        """The kernel identities of _kernel_perm_vectors at a degree tuple,
        each a list of (permutation, coefficient), built once (see _kernel);
        every caller gets the same list, which none may change."""
        return self._kernel(degrees)[0]

    def _pair_relations(self, pg):
        group = self.beta.group
        one = Cyclo.one()
        values, quadratic = self.values, self.quadratic
        for mono in pg.monomials:
            deg = _block_degrees(mono, group)
            for d1, d2, swapped in _adjacent_cuts(mono, group, deg):
                if (d1, d2) not in quadratic:
                    # pair family: u(B1 B2 - val B2 B1)v
                    vec = _binomial(pg, mono, swapped, values[(d1, d2)])
                    if vec:
                        yield vec
            # one walk over the separated cuts: the triple instances as they
            # come, the swap instances after all of them
            swaps = []
            for u, b1, w, b2, v, g in _separated_cuts(mono, group, deg):
                if self.i_present:
                    swaps.append(u + b2 + w + b1 + v)
                if not w:
                    continue
                b = len(u) + len(b1)  # W is mono[b:b + len(w)]
                pq = quadratic.get((g, deg[b][b + len(w)]))
                if pq is not None:
                    # triple family: u(B1 B2 W + p B1 W B2 + q W B1 B2)v
                    vec = _sparse_vector(pg, ((u + b1 + b2 + w + v, one), (mono, pq[0]),
                                              (u + w + b1 + b2 + v, pq[1])))
                    if vec:
                        yield vec
            for other in swaps:
                # swap family: u(B1 W B2 - B2 W B1)v
                vec = _binomial(pg, mono, other, one)
                if vec:
                    yield vec

    def _alternating_relations(self, pg):
        """Degree-seven alternating family: u x W1 x W2 x W3 x v + u x x x x
        W1 W2 W3 v, with the four x the only letters of one degree g and
        beta(g, deg Wj) = i for the three nonempty blocks Wj."""
        if not self.i_present or len(pg.letters) < 7:
            return
        group = self.beta.group
        one = Cyclo.one()
        for mono in pg.monomials:
            by_degree = {}
            for t, (_, d) in enumerate(mono):
                by_degree.setdefault(d, []).append(t)
            for g, positions in by_degree.items():
                if len(positions) != 4:
                    continue
                p1, p2, p3, p4 = positions
                blocks = [mono[p1 + 1:p2], mono[p2 + 1:p3], mono[p3 + 1:p4]]
                partners = self.partners[g]
                if all(blk and group.product([d for _, d in blk]) in partners
                       for blk in blocks):
                    other = (mono[:p1] + tuple(mono[p] for p in positions)
                             + blocks[0] + blocks[1] + blocks[2] + mono[p4 + 1:])
                    yield _sparse_vector(pg, ((mono, one), (other, one)))

    def _direct_kernel(self, pg):
        """The kernel identities at the multidegree itself, each letter its
        own block: _kernel_vectors(pg, shapes, [(lt,) for lt in pg.letters]),
        read straight off the shapes' permutation ranks, which are pg's
        columns, with no monomial built or hashed.  The terms of one
        identity have distinct permutations, so no two share a column, and
        no coefficient is zero, so no entry is dropped: each is 1, minus a
        root of unity, minus a ratio of two of them, or the p or q of
        _kernel_coefficients, which vanish only when gamma_tau0 or
        gamma_sigma is real, and both are nonreal there."""
        if not self.admitted(pg.degrees):
            return
        shapes, ranks = self._kernel(pg.degrees)
        ranks = iter(ranks)
        for shape in shapes:
            yield {next(ranks): c for _, c in shape}

    def _partition_kernels(self, pg):
        """Kernel identities on merged blocks: for each ordered partition of
        the target letters into prefix, k blocks and suffix with the merged
        degree tuple admitted, the block-level kernel identities instantiate
        into this multidegree."""
        group = self.beta.group
        n = len(pg.letters)
        for k in range(2, n):
            for blocks, prefix, suffix in _block_assignments(pg.letters, [None] * k,
                                                             True, group.identity):
                degs = [group.product([d for _, d in blk]) for blk in blocks]
                if self.admitted(degs):
                    yield from _kernel_vectors(pg, self.kernel_shapes(degs), blocks,
                                               prefix, suffix)

    def stages(self, pg):
        yield itertools.chain(self._direct_kernel(pg), self._pair_relations(pg),
                              self._alternating_relations(pg))
        yield self._partition_kernels(pg)


def _pauli_source(algebra):
    """The Pauli instance streams of a grading with complex commutation
    structure, refused otherwise."""
    beta, j_vec = detect_complex_bicharacter(algebra)
    if beta is None:
        raise PreconditionError("no complex commutation structure: %r" % (j_vec,))
    return _PauliSource(beta)


def family_pauli(algebra: GradedAlgebra, max_degree: int) -> GeneratorSet:
    """The identity basis families for a non-regular Pauli-type division
    grading, emitted up to max_degree.

    Pair binomials at real commutation values, trinomials with the exact real
    quadratic coefficients at nonreal values, the degree-three swap family and
    the degree-seven alternating family when the imaginary unit occurs as a
    commutation value, and the general reordering identities at degree tuples
    obeying the applicable repeat bound (pairwise distinct when no commutation
    value is the imaginary unit; at most three repeats otherwise).

    The members are read off the tables of the set's fast source (its
    commutation values, quadratic pairs, i-partners and kernel shapes), so
    verifying the set reuses every kernel shape built here.
    """
    real_beta, _ = detect_regular(algebra)
    if real_beta is not None:
        raise PreconditionError(
            "the grading is regular over the reals; use family_regular")
    source = _pauli_source(algebra)
    beta, i_present = source.beta, source.i_present
    group = beta.group
    order = beta.order
    elements = group.elements()
    one = Cyclo.one()
    s1 = []
    extras = []
    for (g, h), val in sorted(source.values.items()):
        if (g, h) in source.quadratic:
            s1.append(_triple_member(group, order, g, h, *source.quadratic[(g, h)]))
        else:
            s1.append(_pair_member(group, order, g, h, val))
        swap = _swap_member(group, order, g, h)
        if i_present:
            s1.append(swap)
        else:
            extras.append(swap)
    # degree-seven alternating family at triples with value i
    for g, partners in source.partners.items():
        for h1, h2, h3 in itertools.product(partners, repeat=3):
            lts = {1: (1, g), 2: (2, h1), 3: (3, g), 4: (4, h2),
                   5: (5, g), 6: (6, h3), 7: (7, g)}
            s1.append(FreePoly(group, order, (
                (tuple(lts[k] for k in (1, 2, 3, 4, 5, 6, 7)), one),
                (tuple(lts[k] for k in (1, 3, 5, 7, 2, 4, 6)), one))))
    for n in range(2, max_degree + 1):
        for degrees in itertools.combinations_with_replacement(sorted(elements), n):
            if not source.admitted(degrees):
                continue
            blocks = [((k + 1, d),) for k, d in enumerate(degrees)]
            for combo in source.kernel_shapes(degrees):
                s1.append(FreePoly(group, order, _instance_terms(combo, blocks, (), ())))
    name = "pauli-families(max_degree=%d)" % max_degree
    assumptions = ["repeat bound %d per group element (imaginary commutation "
                   "value %s)" % (source.max_repeat, "present" if i_present else "absent")]
    return GeneratorSet(name, "identities", group, order, s1=s1, extras=extras,
                        assumptions=assumptions, fast_source=source)


# -- transfer and lifting -------------------------------------------------------------------


def _validate_minimal_center(r_algebra, beta):
    """Check Z(R) = sum of the radical components (the transfer hypothesis)."""
    rad = set(beta.radical())
    z = center(r_algebra)
    central_degrees = {}
    for h in z:
        central_degrees[h.degree] = central_degrees.get(h.degree, 0) + 1
    expected = {g: len(r_algebra.component(g)) for g in rad}
    if central_degrees != expected:
        raise PreconditionError(
            "the regular factor does not have minimal center: Z(R) spans "
            "degrees %s but the radical components are %s" % (
                sorted(central_degrees), sorted(expected)))


def transfer_basis(genset: GeneratorSet, r_algebra: GradedAlgebra) -> GeneratorSet:
    """Transport a basis for A along tensoring with a regular R.

    Identities: all twisted relabelings of the members over tuples from the
    regular group.  Centrals: the identity-generating part over all tuples,
    the proper part only over tuples whose product lies in the radical; this
    needs R to have minimal center, which is validated (and refused
    otherwise rather than guessed).
    """
    beta, witness = detect_regular(r_algebra)
    if beta is None:
        raise PreconditionError("transfer needs a regular factor: %r" % witness)
    h_group = beta.group
    elements = h_group.elements()
    m1, m2 = genset.multilinear_members()
    if genset.mode == "centrals":
        if not genset.s1 or not genset.s2:
            raise PreconditionError(
                "central transfer needs the (s1, s2) partition of the basis")
        _validate_minimal_center(r_algebra, beta)
        radical = set(beta.radical())
    out_s1, out_s2 = [], []
    for f in m1:
        k = len(f.letters())
        for h in itertools.product(elements, repeat=k):
            out_s1.append(transfer_phi(f, list(h), beta))
    for f in m2:
        k = len(f.letters())
        for h in itertools.product(elements, repeat=k):
            if h_group.product(h) in radical:
                out_s2.append(transfer_phi(f, list(h), beta))
    group = genset.group.direct_product(h_group)
    order = _lcm(genset.order, beta.order)
    name = "%s(x)%s" % (genset.name, r_algebra.name)
    return GeneratorSet(name, genset.mode, group, order, s1=out_s1, s2=out_s2,
                        assumptions=list(genset.assumptions))


def lift_basis(algebra: GradedAlgebra, g, quotient_genset: GeneratorSet,
               name=None) -> GeneratorSet:
    """Lift a basis through the quotient by a central invertible homogeneous
    element of degree g: all consistent preimage relabelings of each member.

    The full preimage set of the quotient construction is infinite; the
    consistent relabelings are the finite part that generates, which is what
    the section homomorphisms in the construction use.  The central element
    is sought among the homogeneous elements of center(algebra), as invert
    requires.
    """
    algebra.group.check(g)
    central_ok = False
    for h in center(algebra):
        if h.degree == g and invert(algebra, h.coords) is not None:
            central_ok = True
            break
    if not central_ok:
        raise PreconditionError(
            "no invertible central homogeneous element of degree %s"
            % algebra.group.element_to_word(g))
    quotient, project = quotient_by(algebra.group, g)
    if quotient.orders != quotient_genset.group.orders:
        raise PreconditionError(
            "generator set lives on %r but the quotient is %r" % (
                quotient_genset.group, quotient))
    fibers = {}
    for x in algebra.group.elements():
        fibers.setdefault(project(x), []).append(x)

    def lifts(polys):
        out = []
        for f in polys:
            for lin in multilinearize(f):
                letters = lin.letters()
                pools = [fibers[d] for _, d in letters]
                for choice in itertools.product(*pools):
                    mapping = {lt: choice[k] for k, lt in enumerate(letters)}
                    out.append(lift_poly(lin, algebra.group, mapping))
        seen, unique = set(), []
        for f in out:
            if f not in seen:
                seen.add(f)
                unique.append(f)
        return unique

    out = GeneratorSet(name or ("lift(%s)" % quotient_genset.name),
                       quotient_genset.mode, algebra.group,
                       _lcm(quotient_genset.order, algebra.order),
                       s1=lifts(quotient_genset.s1), s2=lifts(quotient_genset.s2),
                       assumptions=list(quotient_genset.assumptions))
    return out


# -- verification ------------------------------------------------------------------------------


class VerificationRecord:
    def __init__(self, degrees_words, orbit, dim_target, dim_consequence, equal,
                 witness=None):
        self.degrees = degrees_words
        self.orbit = orbit
        self.dim_target = dim_target
        self.dim_consequence = dim_consequence
        self.equal = equal
        self.witness = witness

    def as_dict(self):
        return {
            "degrees": list(self.degrees),
            "orbit": self.orbit,
            "dim_target": self.dim_target,
            "dim_consequence": self.dim_consequence,
            "equal": self.equal,
            "witness": self.witness,
        }


class VerificationReport:
    def __init__(self, algebra_name, genset_name, mode, max_degree, membership,
                 records, assumptions, elapsed):
        self.algebra = algebra_name
        self.genset = genset_name
        self.mode = mode
        self.max_degree = max_degree
        self.membership = membership
        self.records = records
        self.assumptions = assumptions
        self.elapsed = elapsed

    @property
    def ok(self):
        return (all(entry["ok"] for entry in self.membership)
                and all(r.equal for r in self.records))

    def as_dict(self):
        return {
            "format": "gradedpi-report",
            "version": 1,
            "algebra": self.algebra,
            "generator_set": self.genset,
            "mode": self.mode,
            "max_degree": self.max_degree,
            "ok": self.ok,
            "elapsed_seconds": round(self.elapsed, 3),
            "assumptions": list(self.assumptions),
            "membership": self.membership,
            "records": [r.as_dict() for r in self.records],
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)

    def to_tsv(self):
        return records_tsv(r.as_dict() for r in self.records)

    def summary(self):
        bad = [r for r in self.records if not r.equal]
        mem_bad = [m for m in self.membership if not m["ok"]]
        return ("%s vs %s [%s, degree <= %d]: %s (%d orbit records, %d membership "
                "checks, %.1fs)" % (
                    self.algebra, self.genset, self.mode, self.max_degree,
                    "PASS" if self.ok else "FAIL (%d bad records, %d bad members)" % (
                        len(bad), len(mem_bad)),
                    len(self.records), len(self.membership), self.elapsed))


def records_tsv(records):
    """The TSV table, with no final newline, of records in their JSON form."""
    lines = ["degrees\torbit\tdim_target\tdim_consequence\tequal\twitness"]
    for r in records:
        lines.append("%s\t%d\t%d\t%d\t%s\t%s" % (
            ".".join(r["degrees"]) if r["degrees"] else "e", r["orbit"],
            r["dim_target"], r["dim_consequence"], "yes" if r["equal"] else "NO",
            r.get("witness") or ""))
    return "\n".join(lines)


def _orbit_size(degrees):
    counts = {}
    for d in degrees:
        counts[d] = counts.get(d, 0) + 1
    total = math.factorial(len(degrees))
    for v in counts.values():
        total //= math.factorial(v)
    return total


def _membership_entry(algebra, mode, part, f, target=None):
    """The membership entry of one member; target is an identity space that
    may decide it without evaluation (see is_identity and is_central)."""
    if mode == "identities" or part == "extra":
        ok, witness = is_identity(algebra, f, target)
        verdict = "identity" if ok else "not-an-identity"
        wtxt = None if ok else _witness_text(witness)
    else:
        verdict, w = is_central(algebra, f, target)
        ok = verdict in ("identity", "proper-central")
        wtxt = None if ok else _witness_text(w[0]) + (" vs %s" % w[1])
    return {"part": part, "poly": str(f), "verdict": verdict, "ok": ok, "witness": wtxt}


def _member_degrees(poly):
    """The sorted degrees shared by every monomial of poly, which are those
    of each of its polarized pieces; None when the monomials differ."""
    keys = {tuple(sorted(d for _, d in mono)) for mono in poly.terms}
    return keys.pop() if len(keys) == 1 else None


def _witness_text(witness):
    return "; ".join("x%d -> %s" % (lt[0], val)
                     for lt, val in sorted(witness.items()))


def _instance_stages(genset, pg):
    """Iterator of instance-vector stages; later stages are only consumed when
    earlier ones do not already close the span.  The generic template
    enumeration always comes last as the exhaustive fallback (it is skipped
    entirely for fast sources that are exact)."""
    source = genset.fast_source
    if source is not None:
        yield from source.stages(pg)
    if source is None or not source.exact:
        yield (vec for vec, _ in _generic_instances(
            genset.templates(), pg, genset.mode == "identities"))


def _close_span(target, stages, order):
    """Eliminate instance vectors into a Subspace, stage by stage, until
    their span reaches the target's dimension; no stage after the one that
    closes it is consumed.  Returns (span, its dimension, witness naming an
    instance off the target); the span is None with a witness.

    An instance is checked against the target only when it enters the span.
    Every instance checked before it lies in the target, so their span does,
    and an instance that adds nothing lies in that span: the first instance
    off the target always enters it.  So the verdict, the dimension and the
    witness are those of checking every instance, and a passing record makes
    one check per kept row.  The failing instance has entered the span when
    it is checked, so the dimension given with its witness is one less.
    """
    pg, dim = target.pg, target.dim
    cons = Subspace(pg)
    for stage in stages:
        for vec in stage:
            if not cons.add(vec):
                continue
            if not target.contains(vec):
                return None, cons.dim - 1, "instance outside the target space: %s" % (
                    pg.from_vector(vec, order))
            if cons.dim == dim:
                return cons, dim, None
        if cons.dim == dim:
            break
    return cons, cons.dim, None


def _record(target, stages, order):
    """The record of a target against instance stages.  A span that falls
    short is named by the first vector of the target's basis it misses; that
    basis is built only then."""
    pg = target.pg
    cons, dim, witness = _close_span(target, stages, order)
    equal = witness is None and dim == target.dim
    if witness is None and not equal:
        missing = next(v for v in target.span().sparse_basis() if not cons.contains(v))
        witness = "missing from consequences: %s" % pg.from_vector(missing, order)
    return VerificationRecord(pg.words(), _orbit_size(pg.degrees), target.dim,
                              dim, equal, witness)


def _check_multidegree(algebra, genset, degrees, members=()):
    """The record at one multidegree, and the membership entries of members,
    (part, poly) pairs each decided on the identity space at degrees (see
    _membership_entry).  In identities mode that space is the record's own
    target; in centrals mode it is built only when there are members."""
    mode = genset.mode
    space = None
    if members or mode == "identities":
        space = multilinear_identity_space(algebra, degrees)
    entries = [_membership_entry(algebra, mode, part, f, space) for part, f in members]
    target = space if mode == "identities" else multilinear_central_space(algebra, degrees)
    record = _record(target, _instance_stages(genset, target.pg), genset.order)
    return record, entries


def verify_basis(algebra: GradedAlgebra, genset: GeneratorSet, max_degree: int,
                 jobs: int = 1, progress=None) -> VerificationReport:
    """Membership of every member and completeness at every multidegree.

    For every multidegree over the support of total degree <= max_degree the
    consequence span of the generator set is compared exactly with the
    identity (resp. central) space.  Work is done once per sorted orbit; the
    record carries the orbit size.

    Each record is one task (_check_multidegree), which also decides the
    members routed to it on the identity space at its degrees.  In
    identities mode a member goes to the record at its own sorted degrees
    when there is one; otherwise, in either mode, it goes to the record at
    the degrees of its core (the member with the letters that every
    monomial begins and ends with stripped, see is_identity).  Every other
    member is evaluated directly, before the records.  The membership
    entries keep the order of the members.

    With jobs > 1 the tasks run in a fork pool whose workers inherit the
    task, so only multidegrees and their results cross the pool.  Records
    come back in order at every job count, and progress, when given, is
    called with each as it arrives.
    """
    t0 = time.time()
    if max_degree < 1:
        raise PreconditionError("max degree must be at least 1, got %d" % max_degree)
    if max_degree > DEFAULT_DEGREE_BOUND:
        raise ResourceRefusal(
            "max degree %d exceeds the dense-engine bound %d (component "
            "dimension %d); the large-multidegree path handles single "
            "multidegrees beyond it" % (max_degree, DEFAULT_DEGREE_BOUND,
                                        math.factorial(max_degree)))
    if jobs < 1:
        raise PreconditionError("jobs must be at least 1, got %d" % jobs)
    if jobs > os.cpu_count():
        raise ResourceRefusal("jobs %d exceeds the %d CPUs of this machine" % (
            jobs, os.cpu_count()))
    support = sorted(algebra.support)
    reps = []
    for n in range(1, max_degree + 1):
        reps.extend(itertools.combinations_with_replacement(support, n))
    # the members each record decides, as positions in membership
    positions = {degrees: [] for degrees in reps}
    polys = [("s1", f) for f in genset.s1] + [("s2", f) for f in genset.s2] + \
            [("extra", f) for f in genset.extras]
    membership = [None] * len(polys)
    identities = genset.mode == "identities"
    for k, (part, f) in enumerate(polys):
        degrees = _member_degrees(f)
        if degrees is not None and not (identities and degrees in positions):
            degrees = _core_degrees(f, max_degree)
        if degrees in positions:
            positions[degrees].append(k)
        else:
            membership[k] = _membership_entry(algebra, genset.mode, part, f)

    def task(degrees):
        return _check_multidegree(algebra, genset, degrees,
                                  [polys[k] for k in positions[degrees]])

    records = []
    for degrees, (record, entries) in zip(reps, _task_results(task, reps, jobs)):
        records.append(record)
        for k, entry in zip(positions[degrees], entries):
            membership[k] = entry
        if progress is not None:
            progress(record)
    assumptions = list(genset.assumptions)
    if set(algebra.support) != set(algebra.group.elements()):
        assumptions.append("off-support degrees are trivially complete "
                           "(variables there are themselves identities)")
    return VerificationReport(algebra.name, genset.name, genset.mode, max_degree,
                              membership, records, assumptions, time.time() - t0)


def _task_results(task, args, jobs):
    """task(a) for each a of args, in order; with jobs > 1, in a fork pool
    whose workers inherit task (nothing of it is pickled)."""
    if jobs > 1:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        with context.Pool(jobs, _inherit_task, (task,)) as pool:
            yield from pool.imap(_run_inherited_task, args, 8)
    else:
        yield from map(task, args)


_inherited_task = None  # set in each pool worker only, by _inherit_task


def _inherit_task(task):
    global _inherited_task
    _inherited_task = task


def _run_inherited_task(arg):
    return _inherited_task(arg)


# -- rewriting reducer for Pauli-type gradings ------------------------------------------------


def instance_poly(member: FreePoly, prefix, blocks, suffix, group, order) -> FreePoly:
    """Substitution instance of a member: blocks align with its sorted letters."""
    return FreePoly(group, order, _instance_terms(_shape(member), blocks, prefix, suffix))


def _rewrite_term(source, group, order, coeff, mono, alpha, beta_lt):
    """One elementary rewrite moving alpha and beta_lt together, reading the
    commutation values and quadratic pairs off the Pauli source.

    Returns (new_terms, uses): the exact claim is
    coeff*mono - new_terms == sum of the use instances.
    """
    values, quadratic = source.values, source.quadratic
    g = alpha[1]
    pa = mono.index(alpha)
    pb = mono.index(beta_lt)
    lo, hi = min(pa, pb), max(pa, pb)
    first, second = mono[lo], mono[hi]
    between = mono[lo + 1:hi]
    if not between:
        if (first, second) == (alpha, beta_lt):
            return [(coeff, mono)], []
        if not values[(g, g)].is_one():
            raise AssertionError("same-component elements must commute")
        member = _pair_member(group, order, g, g, values[(g, g)])
        swapped = mono[:lo] + (alpha, beta_lt) + mono[hi + 1:]
        use = (member, mono[:lo], ((beta_lt,), (alpha,)), mono[hi + 1:], coeff)
        return [(coeff, swapped)], [use]
    h = group.product([d for _, d in between])
    if (g, h) not in quadratic:
        val = values[(g, h)]
        member = _pair_member(group, order, g, h, val)
        moved = mono[:lo] + between + (first, second) + mono[hi + 1:]
        use = (member, mono[:lo], ((first,), between), (second,) + mono[hi + 1:], coeff)
        return [(coeff * val, moved)], [use]
    if not source.imaginary(g, h):
        p, q = quadratic[(g, h)]
        member = _triple_member(group, order, g, h, p, q)
        front = mono[:lo] + (first, second) + between + mono[hi + 1:]
        back = mono[:lo] + between + (first, second) + mono[hi + 1:]
        pinv = p.inv()
        use = (member, mono[:lo], ((first,), (second,), between), mono[hi + 1:],
               coeff * pinv)
        return [(-coeff * pinv, front), (-coeff * q * pinv, back)], [use]
    # imaginary commutation value: detour through other same-degree letters
    gpos = [t for t, lt in enumerate(mono) if lt[1] == g]
    if len(gpos) < 4:
        raise PreconditionError(
            "cannot merge across an imaginary commutation value with fewer "
            "than four occurrences of the degree")
    slots = None
    for j in range(len(gpos) - 1):
        seg = mono[gpos[j] + 1: gpos[j + 1]]
        if not source.imaginary(g, group.product([d for _, d in seg])):
            slots = (gpos[j], gpos[j + 1])
            break
    if slots is None:
        slots = (gpos[0], gpos[2])
        seg = mono[slots[0] + 1: slots[1]]
        if (g, group.product([d for _, d in seg])) in quadratic:
            raise AssertionError("composite block must be real-valued")
    # bring alpha and beta_lt onto the slots with swap-family instances
    targets = {alpha, beta_lt}
    for s in slots:
        if mono[s] in targets:
            continue
        mover = alpha if alpha not in (mono[slots[0]], mono[slots[1]]) else beta_lt
        pm = mono.index(mover)
        s0, s1 = min(s, pm), max(s, pm)
        seg = mono[s0 + 1:s1]
        new = list(mono)
        new[s0], new[s1] = mono[s1], mono[s0]
        new = tuple(new)
        if seg:
            segdeg = group.product([d for _, d in seg])
            member = _swap_member(group, order, g, segdeg)
            use = (member, mono[:s0], ((mono[s0],), seg, (mono[s1],)), mono[s1 + 1:],
                   coeff)
        else:
            member = _pair_member(group, order, g, g, Cyclo.one())
            use = (member, mono[:s0], ((mono[s0],), (mono[s1],)), mono[s1 + 1:], coeff)
        return [(coeff, new)], [use]
    # alpha and beta already occupy the slots; their between-block is then
    # real-valued by slot choice, so an earlier branch must have applied
    raise AssertionError("unreachable: mergeable slot pair not merged")


def pauli_reduce(algebra: GradedAlgebra, poly: FreePoly):
    """Merge repeated-degree variables until the applicable repeat bound holds.

    Returns (reduced polynomial, certificate).  Every rewriting step is an
    exact T-ideal instance of an emitted family member, recorded so the whole
    chain replays as polynomial identities; membership in the graded
    identities is preserved in both directions.
    """
    if not poly.is_multilinear():
        raise PreconditionError("pauli_reduce needs a multilinear polynomial")
    source = _pauli_source(algebra)
    threshold = source.max_repeat + 1
    order = _lcm(poly.order, source.beta.order)
    current = FreePoly(poly.group, order, poly.terms)
    rounds = []
    while True:
        letters = current.letters()
        counts = {}
        for lt in letters:
            counts.setdefault(lt[1], []).append(lt)
        g = next((d for d in sorted(counts) if len(counts[d]) >= threshold), None)
        if g is None:
            break
        pair = sorted(counts[g])[-2:]
        alpha, beta_lt = pair[0], pair[1]
        new_letter = (alpha[0], poly.group.op(g, g))
        mono_records = []
        collapsed_terms = []
        for mono, coeff in sorted(current.terms.items()):
            uses_all = []
            worklist = [(coeff, mono)]
            done_terms = []
            guard = 0
            while worklist:
                guard += 1
                if guard >= 1000:
                    raise AssertionError("rewriting did not terminate")
                c, m = worklist.pop()
                pa, pb = m.index(alpha), m.index(beta_lt)
                if pb == pa + 1:
                    done_terms.append((m, c))
                    continue
                new_terms, uses = _rewrite_term(source, poly.group, order, c, m, alpha,
                                                beta_lt)
                uses_all.extend(uses)
                worklist.extend(new_terms)
            after = FreePoly(poly.group, order, done_terms)
            # exactness of this monomial's chain is replayable
            mono_records.append({
                "coeff": coeff, "before": mono, "after": after, "uses": uses_all})
            for m, c in after.terms.items():
                pa = m.index(alpha)
                if m[pa + 1] != beta_lt:
                    raise AssertionError("rewritten monomial does not join the pair")
                collapsed_terms.append((m[:pa] + (new_letter,) + m[pa + 2:], c))
        result = FreePoly(poly.group, order, collapsed_terms)
        rounds.append({
            "degree": g, "alpha": alpha, "beta": beta_lt, "new": new_letter,
            "monomials": mono_records, "result": result,
        })
        current = result
    return current, rounds


def replay_certificate(original: FreePoly, reduced: FreePoly, rounds) -> bool:
    """Re-verify a reduction certificate as exact polynomial identities.

    For each recorded monomial, before - after must equal the recorded
    combination of family-member instances, and each round's collapsed result
    must assemble from the rewritten monomials; the final result must be the
    reduced polynomial.  Raises VerificationFailure on any mismatch and
    returns True otherwise.
    """
    group, order = original.group, original.order
    current = original
    for rnd in rounds:
        alpha, beta_lt, new_letter = rnd["alpha"], rnd["beta"], rnd["new"]
        before_terms, collapsed_terms = [], []
        for rec in rnd["monomials"]:
            before_terms.append((rec["before"], rec["coeff"]))
            claimed = FreePoly(group, order, {rec["before"]: rec["coeff"]}) - rec["after"]
            built = FreePoly(group, order, {})
            for member, prefix, blocks, suffix, coeff in rec["uses"]:
                built = built + instance_poly(member, prefix, blocks, suffix,
                                              group, order).scale(coeff)
            if claimed != built:
                raise VerificationFailure("certificate step does not replay")
            for m, c in rec["after"].terms.items():
                pa = m.index(alpha) if alpha in m else None
                if pa is None or m[pa + 1:pa + 2] != (beta_lt,):
                    raise VerificationFailure(
                        "rewritten monomial does not join the pair")
                collapsed_terms.append((m[:pa] + (new_letter,) + m[pa + 2:], c))
        if FreePoly(group, order, before_terms) != current:
            raise VerificationFailure("round input does not match")
        if FreePoly(group, order, collapsed_terms) != rnd["result"]:
            raise VerificationFailure("round result does not assemble")
        current = rnd["result"]
    if current != reduced:
        raise VerificationFailure("final result does not match")
    return True


# -- named generator sets --------------------------------------------------------------


def dv_basis(group, order=2) -> GeneratorSet:
    """Commutator at even degrees, reversal of a degree-three odd word."""
    if tuple(group.orders) != (2,):
        raise PreconditionError("this basis lives over a two-element group")
    e, a = (0,), (1,)
    x = lambda i, d: monomial_poly(group, order, [(i, d)])
    f1 = x(1, e) * x(2, e) - x(2, e) * x(1, e)
    f2 = x(1, a) * x(2, a) * x(3, a) - x(3, a) * x(2, a) * x(1, a)
    return GeneratorSet("dv-lemma", "identities", group, order, s1=[f1, f2])


def bp_basis(group, order=2) -> GeneratorSet:
    """Central generators for the elementary grading, multilinear form."""
    if tuple(group.orders) != (2,):
        raise PreconditionError("this basis lives over a two-element group")
    e, a = (0,), (1,)
    x = lambda i, d: monomial_poly(group, order, [(i, d)])
    s2 = [x(1, a) * x(2, a) + x(2, a) * x(1, a)]
    s1 = []
    for g in (e, a):
        for g2 in (e, a):
            comm = x(2, e) * x(3, e) - x(3, e) * x(2, e)
            s1.append(x(1, g) * comm * x(4, g2))
            triple = (x(2, a) * x(3, a) * x(4, a)) - (x(4, a) * x(3, a) * x(2, a))
            s1.append(x(1, g) * triple * x(5, g2))
    return GeneratorSet(
        "bp-centrals", "centrals", group, order, s1=s1, s2=s2,
        assumptions=[
            "the squared odd generator is used in its multilinear form",
            "a misprinted variable in the degree-five family is read as the "
            "variable introduced in the same polynomial",
            "the two padding degrees range independently (the single-letter "
            "display is the compact form, as in the padded commutator family "
            "for regular gradings)",
        ])


def s4_hall_basis() -> GeneratorSet:
    from .freealg import hall_poly, standard_poly
    from .groups import FiniteAbelianGroup

    group = FiniteAbelianGroup(())
    return GeneratorSet("s4-hall", "identities", group, 1,
                        s1=[standard_poly(4, group), hall_poly(group)])


def okhitin_basis() -> GeneratorSet:
    from .freealg import okhitin_central_poly, padded_standard_poly
    from .groups import FiniteAbelianGroup

    group = FiniteAbelianGroup(())
    return GeneratorSet("okhitin", "centrals", group, 1,
                        s1=[padded_standard_poly(4, group)],
                        s2=[okhitin_central_poly(group)])


# -- the flag-gated degree-seven Pauli check -------------------------------------------------


def check_pauli_multidegree(algebra: GradedAlgebra, degrees) -> VerificationRecord:
    """Completeness of the Pauli family at one multidegree of a Pauli-type
    grading, of length at most seven, the degree of the alternating family,
    one past the dense engine's degree bound.

    The record is verification's: the same target, held as its defining
    equations, and the family's fast instance stages, with no generic
    fallback and no membership.  A kernel basis is built only to name the
    polynomial a failing record misses.
    """
    pg = _component(algebra.group, degrees, bound=7)
    source = _pauli_source(algebra)
    return _record(Target(algebra, pg, central=False), source.stages(pg),
                   source.beta.order)


def long_running_degrees(genset: GeneratorSet):
    """The multidegree of the degree-seven record of ``verify --long-running``,
    read off the set's Pauli source.  Refused (exit 3) when the set is not
    the built-in Pauli family, whose stages the record streams, and when its
    grading has no degree with three commutation partners of value i."""
    source = genset.fast_source
    if not isinstance(source, _PauliSource):
        raise PreconditionError(
            "the degree-seven record streams the pauli family's stages; basis %s "
            "is not that family" % genset.name)
    if source.long_shape is None:
        raise PreconditionError(
            "no degree-seven record: no degree has three commutation partners of "
            "value i")
    return source.long_shape
