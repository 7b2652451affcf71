"""The free graded associative algebra: graded monomials and polynomials.

A letter is a pair (index, degree): distinct indices are distinct free
generators even at the same degree, and the same index at two degrees is two
different letters.  Monomials are tuples of letters, polynomials are sparse
coefficient maps with exact cyclotomic coefficients in canonical form (no
zero coefficients are ever stored, so equality is literal).
"""

from __future__ import annotations

import itertools

from .errors import SpecParseError
from .groups import Bicharacter, FiniteAbelianGroup
from .scalars import Cyclo, parse_cyclo, _lcm

__all__ = [
    "FreePoly",
    "letter",
    "monomial_poly",
    "standard_poly",
    "commutator_poly",
    "hall_poly",
    "okhitin_central_poly",
    "padded_standard_poly",
    "named_poly",
    "evaluate",
    "multilinearize",
    "reorder_scalar",
    "transfer_phi",
    "project_poly",
    "lift_poly",
    "parse_poly",
]


def letter(index: int, degree) -> tuple:
    return (int(index), tuple(degree))


class FreePoly:
    """Element of the free G-graded algebra with cyclotomic coefficients.

    terms is a dict {monomial: coefficient} or an iterable of (monomial,
    coefficient) pairs, and the constructor is where like terms meet: the
    coefficients of a repeated monomial are summed, zero coefficients are
    skipped, and a monomial whose sum cancels is dropped.  Monomials keep
    the order in which they first occur.

    Each letter is made (int index, tuple degree) and its degree checked in
    the group (ValueError otherwise) once per construction: the distinct
    letters met are kept with their canonical forms, and a letter that
    cannot be kept (a list degree, say) is canonicalised and checked where
    it occurs.
    """

    def __init__(self, group: FiniteAbelianGroup, order: int, terms=()):
        self.group = group
        self.order = int(order)
        clean = {}
        letters = {}  # each distinct letter met, to its canonical form
        for mono, coeff in (terms.items() if isinstance(terms, dict) else terms):
            if not isinstance(coeff, Cyclo):
                coeff = Cyclo.rational(coeff)
            if coeff.is_zero():
                continue
            mono = tuple(mono)
            try:
                mono = tuple([letters[lt] for lt in mono])
            except (KeyError, TypeError):
                mono = _canonical_monomial(group, mono, letters)
            prev = clean.get(mono)
            clean[mono] = coeff if prev is None else prev + coeff
        self.terms = {mono: c for mono, c in clean.items() if not c.is_zero()}
        self._letters = None  # sorted letters, computed on first use

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def letters(self):
        """The sorted letters of the polynomial, as a new list on each call."""
        if self._letters is None:
            out = set()
            for mono in self.terms:
                out.update(mono)
            self._letters = tuple(sorted(out))
        return list(self._letters)

    def variable_indices(self):
        return sorted({i for mono in self.terms for i, _ in mono})

    def is_multilinear(self) -> bool:
        """Each monomial uses every variable of a common letter set exactly once."""
        if not self.terms:
            return True
        ref = None
        for mono in self.terms:
            seen = set()
            for lt in mono:
                if lt in seen:
                    return False
                seen.add(lt)
            if len({i for i, _ in seen}) != len(seen):
                return False
            if ref is None:
                ref = seen
            elif seen != ref:
                return False
        return True

    # -- arithmetic -----------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, FreePoly):
            return other
        raise TypeError("expected FreePoly, got %r" % type(other))

    def __add__(self, other):
        other = self._coerced(other)
        return FreePoly(self.group, _lcm(self.order, other.order),
                        itertools.chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        return self + (-self._coerced(other))

    def __neg__(self):
        return FreePoly(self.group, self.order, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "FreePoly":
        if not isinstance(c, Cyclo):
            c = Cyclo.rational(c)
        return FreePoly(self.group, _lcm(self.order, c.order),
                        {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        other = self._coerced(other)
        return FreePoly(self.group, _lcm(self.order, other.order),
                        ((m1 + m2, c1 * c2) for m1, c1 in self.terms.items()
                         for m2, c2 in other.terms.items()))

    def with_group(self, group, degree_map) -> "FreePoly":
        return FreePoly(group, self.order,
                        ((tuple((i, tuple(degree_map(d))) for i, d in mono), c)
                         for mono, c in self.terms.items()))

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FreePoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        words = self.group.words
        for mono, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
            word = "*".join("x%d:%s" % (i, words[d]) for i, d in mono)
            if not word:
                word = "1"
            if c.is_one():
                bits.append(word)
            elif (-c).is_one():
                bits.append("-" + word)
            else:
                cstr = str(c)
                if ("+" in cstr or cstr.count("-") > (1 if cstr.startswith("-") else 0)
                        or "*" in cstr):
                    cstr = "(%s)" % cstr
                bits.append("%s*%s" % (cstr, word))
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out

    def __repr__(self):
        return "FreePoly[%s]" % self


def _canonical_monomial(group, mono, letters):
    """The monomial with each letter (int index, tuple degree), the degree
    of each letter not in letters checked in the group; letters maps each
    letter met to its canonical form and gains the new ones that can be
    keys (a letter with a list degree cannot, and is checked each time)."""
    out = []
    for lt in mono:
        try:
            canonical = letters.get(lt)
        except TypeError:
            i, d = lt
            canonical = (int(i), group.check(tuple(d)))
        else:
            if canonical is None:
                i, d = lt
                canonical = letters[lt] = (int(i), group.check(tuple(d)))
        out.append(canonical)
    return tuple(out)


def monomial_poly(group, order, letters, coeff=1) -> FreePoly:
    return FreePoly(group, order, {tuple(letters): coeff})


# -- named polynomials -----------------------------------------------------------


def _default_group():
    return FiniteAbelianGroup(())


def standard_poly(n: int, group=None, degrees=None) -> FreePoly:
    """The alternating sum over all orderings of n variables."""
    if n < 1:
        raise ValueError("standard polynomial needs n >= 1")
    group = group or _default_group()
    degrees = degrees or [group.identity] * n
    terms = {}
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        mono = tuple((k + 1, tuple(degrees[k])) for k in perm)
        terms[mono] = Cyclo.rational(sign)
    return FreePoly(group, 1, terms)


def _perm_sign(perm) -> int:
    sign = 1
    for u in range(len(perm)):
        for v in range(u + 1, len(perm)):
            if perm[u] > perm[v]:
                sign = -sign
    return sign


def commutator_poly(group=None, degrees=None, indices=(1, 2)) -> FreePoly:
    group = group or _default_group()
    degrees = degrees or [group.identity] * 2
    i, j = indices
    x = monomial_poly(group, 1, [(i, degrees[0])])
    y = monomial_poly(group, 1, [(j, degrees[1])])
    return x * y - y * x


def hall_poly(group=None) -> FreePoly:
    """[[x1, x2]^2, x3]."""
    group = group or _default_group()
    c = commutator_poly(group)
    c2 = c * c
    x3 = monomial_poly(group, 1, [(3, group.identity)])
    return c2 * x3 - x3 * c2


def okhitin_central_poly(group=None) -> FreePoly:
    """[x1,x2][x3,x4] + [x3,x4][x1,x2]."""
    group = group or _default_group()
    c12 = commutator_poly(group, indices=(1, 2))
    c34 = commutator_poly(group, indices=(3, 4))
    return c12 * c34 + c34 * c12


def padded_standard_poly(n: int, group=None) -> FreePoly:
    """x_(n+1) * S_n, the padded standard polynomial."""
    group = group or _default_group()
    pad = monomial_poly(group, 1, [(n + 1, group.identity)])
    return pad * standard_poly(n, group)


def named_poly(kind: str, **kw) -> FreePoly:
    kind = kind.replace("-", "_")
    if kind.startswith("standard_"):
        return standard_poly(int(kind.split("_")[1]), **kw)
    table = {
        "commutator": commutator_poly,
        "hall": hall_poly,
        "okhitin_central": okhitin_central_poly,
    }
    if kind in table:
        return table[kind](**kw)
    if kind.startswith("padded_standard_"):
        return padded_standard_poly(int(kind.split("_")[2]), **kw)
    raise ValueError("unknown named polynomial %r" % kind)


# -- evaluation --------------------------------------------------------------------


def evaluate(poly: FreePoly, substitution, algebra):
    """Exact value of poly in the algebra; substitution maps letters to
    homogeneous elements (HomogeneousElement or raw coordinate dicts).

    Every letter of the polynomial must be assigned, and assigned elements
    must match the letter's declared degree.
    """
    assignments = {}
    for lt, val in substitution.items():
        lt = (int(lt[0]), tuple(lt[1]))
        coords = getattr(val, "coords", val)
        degree = getattr(val, "degree", None)
        if degree is not None and tuple(degree) != lt[1]:
            raise ValueError("substitution for x%d:%s has degree %s (inadmissible)" % (
                lt[0], algebra.group.element_to_word(lt[1]),
                algebra.group.element_to_word(degree)))
        for k in coords:
            if algebra.degrees[k] != lt[1]:
                raise ValueError("substitution for x%d:%s is not homogeneous of "
                                 "that degree" % (lt[0], algebra.group.element_to_word(lt[1])))
        assignments[lt] = dict(coords)
    for lt in poly.letters():
        if lt not in assignments:
            raise ValueError("unassigned variable x%d:%s" % (
                lt[0], algebra.group.element_to_word(lt[1])))
    return poly_value(poly, assignments, algebra)


def poly_value(poly: FreePoly, assign, algebra):
    """The value of poly when each letter takes the coordinate dict assign[letter].

    Nothing is validated; evaluate is the checked entry point.
    """
    return linear_combination(poly.terms.values(),
                              monomial_values(poly.terms, assign, algebra))


def linear_combination(coeffs, values):
    """sum c * v over paired coefficients and coordinate dicts, without zeros."""
    out = {}
    for coeff, value in zip(coeffs, values):
        for k, c in value.items():
            prev = out.get(k)
            out[k] = coeff * c if prev is None else prev + coeff * c
    return {k: c for k, c in out.items() if not c.is_zero()}


def monomial_values(words, assign, algebra, memo=None):
    """Yield the value of each word, the product of assign[t] over its tokens t,
    reusing the products of prefixes already in memo.

    memo maps token words to their products and is filled as words are
    evaluated.  A caller may share one memo between calls whose tokens stand
    for the same elements (basis indices, say), so that a prefix met under
    one substitution is not multiplied out again under the next; without
    one, prefixes are shared only within this call.  Nothing is validated.
    """
    if memo is None:
        memo = {}
    if () not in memo:
        memo[()] = dict(algebra.unit)
    for word in words:
        value = memo.get(word)
        if value is None:
            cut = len(word) - 1
            while word[:cut] not in memo:
                cut -= 1
            value = memo[word[:cut]]
            for k in range(cut, len(word)):
                value = algebra.mul_vec(value, assign[word[k]])
                memo[word[: k + 1]] = value
        yield value


# -- multilinearization --------------------------------------------------------------


def multilinearize(poly: FreePoly):
    """Full characteristic-zero polarization into multilinear polynomials.

    Splits into multihomogeneous components (by letter multiset), then
    replaces each repeated letter by distinct fresh letters of the same
    degree, keeping the part using each exactly once.  No factorial division
    is applied; scalar multiples are immaterial for T-ideal generation.
    """
    # distinct letters sharing a variable index are distinct free generators;
    # rename them apart so the index-based multilinearity convention applies
    letters = poly.letters()
    by_index = {}
    for lt in letters:
        by_index.setdefault(lt[0], []).append(lt)
    if any(len(v) > 1 for v in by_index.values()):
        top = max(by_index)
        renames = {}
        for idx, lts in sorted(by_index.items()):
            for extra in lts[1:]:
                top += 1
                renames[extra] = (top, extra[1])
        poly = FreePoly(poly.group, poly.order, {
            tuple(renames.get(lt, lt) for lt in mono): c
            for mono, c in poly.terms.items()})
    components = {}
    for mono, coeff in poly.terms.items():
        sig = tuple(sorted((lt, mono.count(lt)) for lt in set(mono)))
        components.setdefault(sig, {})[mono] = coeff
    out = []
    for sig, terms in sorted(components.items()):
        piece = FreePoly(poly.group, poly.order, terms)
        for lin in _linearize(piece):
            if not lin.is_zero() and lin not in out:
                out.append(lin)
    return out


def _linearize(piece: FreePoly):
    if piece.is_zero():
        return []
    mono0 = next(iter(piece.terms))
    repeated = None
    for lt in mono0:
        if mono0.count(lt) >= 2:
            repeated = lt
            break
    if repeated is None:
        return [piece]
    count = mono0.count(repeated)
    top = max(piece.variable_indices())
    fresh = [repeated] + [(top + k, repeated[1]) for k in range(1, count)]
    new_terms = []
    for mono, coeff in piece.terms.items():
        positions = [p for p, lt in enumerate(mono) if lt == repeated]
        for assignment in itertools.permutations(fresh):
            new = list(mono)
            for p, nl in zip(positions, assignment):
                new[p] = nl
            new_terms.append((tuple(new), coeff))
    return _linearize(FreePoly(piece.group, piece.order, new_terms))


# -- reordering scalars and the transfer map ------------------------------------------


def reorder_scalar(perm, degrees, beta: Bicharacter) -> Cyclo:
    """The scalar lam with r_1...r_n = lam * r_perm(1)...r_perm(n) whenever the
    r_i commute by beta: the product of beta(d_u, d_v) over inverted pairs,
    which is zeta_N to the sum of their exponents, one of beta's shared
    powers.

    perm is 0-indexed: perm[k] is the variable placed at position k.
    """
    n = len(perm)
    if sorted(perm) != list(range(n)) or len(degrees) != n:
        raise ValueError("perm must be a permutation of range(n) matching degrees")
    pos = [0] * n
    for k, v in enumerate(perm):
        pos[v] = k
    degrees = [tuple(d) for d in degrees]
    total = 0
    for u in range(n):
        for v in range(u + 1, n):
            if pos[u] > pos[v]:
                total += beta.exponent(degrees[u], degrees[v])
    return beta.powers[total % beta.order]


def transfer_phi(poly: FreePoly, h_tuple, beta_r: Bicharacter) -> FreePoly:
    """The sign-twisted relabeling map P_g -> P_(g x h).

    Each monomial's variable ordering tau picks up the reordering scalar of
    beta_r at (h_tau-inversions); variable i gets degree (g_i, h_i).  The
    factorization phi_h(f)(a (x) r) = f(a) (x) r_1...r_n holds exactly.
    """
    if not poly.is_multilinear():
        raise ValueError("transfer map needs a multilinear polynomial")
    letters = poly.letters()
    n = len(letters)
    if len(h_tuple) != n:
        raise ValueError("h tuple length %d does not match %d variables" % (len(h_tuple), n))
    h_tuple = [beta_r.group.check(tuple(h)) for h in h_tuple]
    pos_of = {lt: k for k, lt in enumerate(letters)}
    product_group = poly.group.direct_product(beta_r.group)
    out = []
    for mono, coeff in poly.terms.items():
        perm = tuple(pos_of[lt] for lt in mono)
        lam = reorder_scalar(perm, h_tuple, beta_r)
        new = tuple((i, tuple(d) + tuple(h_tuple[pos_of[(i, d)]])) for i, d in mono)
        out.append((new, coeff * lam))
    return FreePoly(product_group, _lcm(poly.order, beta_r.order), out)


# -- quotient maps on polynomials -------------------------------------------------------


def project_poly(poly: FreePoly, quotient_group, project) -> FreePoly:
    """Relabel degrees through the canonical projection onto the quotient."""
    return poly.with_group(quotient_group, lambda d: project(d))


def lift_poly(poly: FreePoly, group, degree_choice) -> FreePoly:
    """Relabel degrees through a chosen section of the projection.

    degree_choice maps each letter (index, quotient degree) to its chosen
    preimage degree in the bigger group.
    """
    letters = poly.letters()
    missing = [lt for lt in letters if lt not in degree_choice]
    if missing:
        raise ValueError("no preimage degree chosen for %s" % (missing,))
    return FreePoly(group, poly.order,
                    ((tuple((i, degree_choice[(i, d)]) for i, d in mono), c)
                     for mono, c in poly.terms.items()))


# -- literal syntax --------------------------------------------------------------------


def _split_top(s: str, seps: str):
    parts = []
    depth = 0
    buf = ""
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SpecParseError("unbalanced ')' in %r" % s)
        if depth == 0 and ch in seps and buf:
            parts.append(buf)
            buf = ch if ch in "+-" else ""
        else:
            buf += ch
    if depth != 0:
        raise SpecParseError("unbalanced '(' in %r" % s)
    if buf:
        parts.append(buf)
    return parts


def parse_poly(text: str, group: FiniteAbelianGroup, order: int) -> FreePoly:
    """Parse a polynomial literal such as "2*x1:a*x2:b - x2:b*x1:a".

    Degrees are generator words ("a", "a^2.b", "e") or residue tuples
    "(1,0)"; coefficients are rationals, z-powers, or parenthesized
    cyclotomic literals with z the primitive root of the declared order.
    """
    text = text.replace("−", "-").strip()
    if not text:
        raise SpecParseError("empty polynomial literal")
    terms = _split_top(text, "+-")
    total = FreePoly(group, order, {})
    for raw in terms:
        term = raw.strip()
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:].strip()
        if not term:
            raise SpecParseError("dangling sign in %r" % text)
        coeff = Cyclo.rational(sign)
        letters = []
        for factor in _split_top(term, "*"):
            factor = factor.strip().lstrip("*").strip()
            if not factor:
                continue
            if factor.startswith("x") and ":" in factor:
                head, word = factor.split(":", 1)
                try:
                    idx = int(head[1:])
                except ValueError:
                    raise SpecParseError("bad variable %r in %r" % (factor, text))
                try:
                    degree = group.word_to_element(word)
                except ValueError as exc:
                    raise SpecParseError(str(exc))
                letters.append((idx, degree))
            else:
                if factor.startswith("(") and factor.endswith(")"):
                    factor = factor[1:-1]
                try:
                    coeff = coeff * parse_cyclo(factor, order)
                except ValueError as exc:
                    raise SpecParseError("bad coefficient %r in %r: %s" % (factor, text, exc))
        total = total + FreePoly(group, order, {tuple(letters): coeff})
    return total
