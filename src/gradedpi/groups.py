"""Finite abelian groups as products of cyclic factors, and skew-symmetric bicharacters.

Elements are tuples of residues, one per cyclic factor, composed by
componentwise addition.  Multiplicative generator words ("a^2*b", "e") are the
printing format; internally everything is additive.  Quotients by a cyclic
subgroup are computed by Smith normal form so the result is again presented as
a product of cyclic factors together with the canonical projection.
"""

from __future__ import annotations

import itertools
from math import gcd

from .scalars import Cyclo, _lcm

__all__ = ["FiniteAbelianGroup", "Bicharacter", "quotient_by", "bichar_tensor"]

_DEFAULT_NAMES = "abcdefghijklmnopqrstuvwxyz"


class _WordTable(dict):
    """Generator words of group elements, each rendered once, on the first
    lookup of its element; a lookup after that is a plain dict hit, so
    printing a polynomial makes no call per letter."""

    def __init__(self, gen_names):
        super().__init__()
        self.gen_names = gen_names

    def __missing__(self, g):
        parts = []
        for x, name in zip(g, self.gen_names):
            if x == 1:
                parts.append(name)
            elif x:
                parts.append("%s^%d" % (name, x))
        word = self[g] = ".".join(parts) if parts else "e"
        return word


class FiniteAbelianGroup:
    """Product of cyclic groups Z_n1 x ... x Z_nk with named generators."""

    def __init__(self, orders, gen_names=None):
        orders = tuple(int(n) for n in orders)
        if any(n < 1 for n in orders):
            raise ValueError("cyclic factor orders must be >= 1")
        self.orders = orders
        if gen_names is None:
            gen_names = tuple(_DEFAULT_NAMES[i % 26] + ("" if i < 26 else str(i // 26))
                              for i in range(len(orders)))
        self.gen_names = tuple(gen_names)
        if len(self.gen_names) != len(orders):
            raise ValueError("need one generator name per cyclic factor")
        self.identity = (0,) * len(orders)
        # words[g]: the generator word of g, rendered on its first lookup
        self.words = _WordTable(self.gen_names)

    @property
    def rank(self) -> int:
        return len(self.orders)

    def __len__(self):
        n = 1
        for o in self.orders:
            n *= o
        return n

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        body = " x ".join("(%s)_%d" % (n, o) for n, o in zip(self.gen_names, self.orders))
        return "FiniteAbelianGroup[%s]" % (body or "trivial")

    def __iter__(self):
        return iter(self.elements())

    def elements(self):
        return [tuple(e) for e in itertools.product(*(range(o) for o in self.orders))]

    def contains(self, g) -> bool:
        return (isinstance(g, tuple) and len(g) == self.rank
                and all(0 <= x < o for x, o in zip(g, self.orders)))

    def check(self, g):
        if not self.contains(g):
            raise ValueError("%r is not an element of %r" % (g, self))
        return g

    def op(self, g, h):
        return tuple((x + y) % o for x, y, o in zip(g, h, self.orders))

    def inverse(self, g):
        return tuple((-x) % o for x, o in zip(g, self.orders))

    def product(self, elems):
        acc = self.identity
        for e in elems:
            acc = self.op(acc, e)
        return acc

    def order_of(self, g) -> int:
        n = 1
        for x, o in zip(g, self.orders):
            if x:
                n = _lcm(n, o // gcd(x, o))
        return n

    def generator(self, i: int):
        e = [0] * self.rank
        e[i] = 1 % self.orders[i]
        return tuple(e)

    def generators(self):
        return [self.generator(i) for i in range(self.rank)]

    def subgroup_generated(self, elems):
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for g in frontier:
                for e in elems:
                    h = self.op(g, e)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return sorted(seen)

    # -- generator-word formatting ------------------------------------------

    def element_to_word(self, g) -> str:
        return self.words[tuple(g)]

    def word_to_element(self, word: str):
        word = word.strip()
        if word in ("e", "1", ""):
            return self.identity
        if word.startswith("(") and word.endswith(")"):
            vals = [int(v) for v in word[1:-1].split(",") if v.strip() != ""]
            if len(vals) != self.rank:
                raise ValueError("tuple %r has wrong rank for %r" % (word, self))
            return tuple(v % o for v, o in zip(vals, self.orders))
        acc = [0] * self.rank
        for part in word.split("."):
            if "^" in part:
                name, exp = part.split("^")
                exp = int(exp)
            else:
                name, exp = part, 1
            name = name.strip()
            if name not in self.gen_names:
                raise ValueError("unknown generator %r (have %s)" % (name, self.gen_names))
            i = self.gen_names.index(name)
            acc[i] = (acc[i] + exp) % self.orders[i]
        return tuple(acc)

    def direct_product(self, other: "FiniteAbelianGroup") -> "FiniteAbelianGroup":
        names = list(self.gen_names) + list(other.gen_names)
        if len(set(names)) != len(names):
            names = ["%s%d" % (n, 1) for n in self.gen_names] + \
                    ["%s%d" % (n, 2) for n in other.gen_names]
        return FiniteAbelianGroup(self.orders + other.orders, names)


def _smith_normal_form(mat):
    """Smith normal form of an integer matrix; returns (U, D, V) with U*A*V = D."""
    a = [row[:] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        # find a pivot
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j]:
                    if pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        done = False
        while not done:
            done = True
            for i in range(t + 1, m):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, n):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
        if a[t][t] < 0:
            add_row(t, t, -2)
        t += 1
    # note: diagonal but not necessarily with the divisibility chain; any
    # diagonal presentation is a valid cyclic-factor decomposition here
    return u, a, v


def quotient_by(group: FiniteAbelianGroup, g):
    """Quotient G/<g> as a product of cyclic factors, with the projection map.

    Returns (quotient_group, project) where project is a surjective
    homomorphism with kernel exactly <g>.
    """
    group.check(g)
    k = group.rank
    if k == 0:
        return FiniteAbelianGroup(()), lambda x: ()
    # relation lattice of G/<g> inside Z^k: columns diag(orders) and g
    cols = [[group.orders[i] if j == i else 0 for i in range(k)] for j in range(k)]
    cols.append(list(g))
    b = [[cols[j][i] for j in range(k + 1)] for i in range(k)]  # k x (k+1)
    u, d, _ = _smith_normal_form(b)
    diag = [d[i][i] if i < len(d[0]) else 0 for i in range(k)]
    if not all(x > 0 for x in diag):
        raise AssertionError("quotient of a finite group must be finite")
    kept = [i for i in range(k) if diag[i] > 1]
    orders = tuple(diag[i] for i in kept)
    names = tuple("q%d" % t for t in range(len(kept)))
    quotient = FiniteAbelianGroup(orders, names)

    def project(x):
        group.check(x)
        y = [sum(u[i][j] * x[j] for j in range(k)) for i in range(k)]
        return tuple(y[i] % diag[i] for i in kept)

    # sanity: projection is a homomorphism with kernel <g> of the right size
    if project(g) != quotient.identity:
        raise AssertionError("quotient projection does not kill g")
    if len(group) != len(quotient) * group.order_of(g):
        raise AssertionError("quotient size mismatch")
    return quotient, project


class Bicharacter:
    """Skew-symmetric bicharacter on a finite abelian group, by generator table.

    The table entry (i, j) is beta(g_i, g_j), an N-th root of unity
    zeta_N^E_ij in Q(zeta_N).  The exponents E_ij are found exactly, once, at
    construction, and every value is read off them: beta(g, h) is
    zeta_N^exponent(g, h) with exponent(g, h) = sum g_i h_j E_ij mod N, one of
    the N shared powers in ``powers``.  Construction validates that every
    entry is an N-th root of unity, order consistency with the cyclic factors
    (o_i E_ij = 0 mod N) and skew-symmetry (E_ij + E_ji = 0 mod N).
    """

    def __init__(self, group: FiniteAbelianGroup, order: int, table):
        if not isinstance(order, int) or order < 1:
            raise ValueError("bicharacter order must be a positive integer, got %r" % (order,))
        self.group = group
        self.order = order
        k = group.rank
        table = [list(row) for row in table]
        if len(table) != k or any(len(row) != k for row in table):
            raise ValueError("generator table must be %d x %d" % (k, k))
        self.powers = tuple(Cyclo.zeta(order, e) for e in range(order))
        logs = {v: e for e, v in enumerate(self.powers)}
        exps = []
        for i, row in enumerate(table):
            exps.append([])
            for j, v in enumerate(row):
                try:
                    e = logs.get(v if isinstance(v, Cyclo) else Cyclo.rational(v))
                except TypeError:  # not an exact number, such as a float
                    e = None
                if e is None:
                    raise ValueError(
                        "table entry (%d,%d) is not an N-th root of unity" % (i, j))
                exps[i].append(e)
        for i in range(k):
            for j in range(k):
                e = exps[i][j]
                if e * group.orders[i] % order or e * group.orders[j] % order:
                    raise ValueError(
                        "entry (%d,%d) inconsistent with factor orders" % (i, j))
                # at i = j this also asks beta(g_i, g_i) to square to 1
                if (e + exps[j][i]) % order:
                    raise ValueError("table is not skew-symmetric at (%d,%d)" % (i, j))
        self.table_exponents = tuple(tuple(row) for row in exps)
        self.table = tuple(tuple(self.powers[e] for e in row) for row in exps)
        self._exponents = {}

    @staticmethod
    def trivial(group: FiniteAbelianGroup) -> "Bicharacter":
        one = Cyclo.one()
        return Bicharacter(group, 1, [[one] * group.rank for _ in range(group.rank)])

    def exponent(self, g, h) -> int:
        """The k with beta(g, h) = zeta_N^k, memoized per pair once both are
        checked group elements."""
        try:
            return self._exponents[g, h]
        except (KeyError, TypeError):
            # a pair not seen yet, or an unhashable key that check refuses
            pass
        self.group.check(g)
        self.group.check(h)
        exps = self.table_exponents
        out = sum(gi * hj * exps[i][j]
                  for i, gi in enumerate(g) if gi
                  for j, hj in enumerate(h) if hj) % self.order
        self._exponents[g, h] = out
        return out

    def eval(self, g, h) -> Cyclo:
        """beta(g, h), one of the shared powers of zeta_N."""
        return self.powers[self.exponent(g, h)]

    def radical(self):
        """All h' with beta(h', h) = 1 for every h; always a subgroup."""
        gens = self.group.generators()
        out = [g for g in self.group.elements()
               if not any(self.exponent(g, t) for t in gens)]
        return sorted(out)

    def __repr__(self):
        vals = {}
        for i in range(self.group.rank):
            for j in range(self.group.rank):
                if not self.table[i][j].is_one():
                    vals[(self.group.gen_names[i], self.group.gen_names[j])] = str(self.table[i][j])
        return "Bicharacter(%r, N=%d, nontrivial=%s)" % (self.group, self.order, vals)


def bichar_tensor(beta_a: Bicharacter, beta_b: Bicharacter) -> Bicharacter:
    """Bicharacter of a tensor product grading on the direct product group.

    On pairs ((g1,h1),(g2,h2)) the value is beta_a(g1,g2) * beta_b(h1,h2).
    """
    group = beta_a.group.direct_product(beta_b.group)
    n = _lcm(beta_a.order, beta_b.order)
    ka, kb = beta_a.group.rank, beta_b.group.rank
    one = Cyclo.one()
    table = [[one] * (ka + kb) for _ in range(ka + kb)]
    for i, row in enumerate(beta_a.table):
        table[i][:ka] = row
    for i, row in enumerate(beta_b.table):
        table[ka + i][ka:] = row
    return Bicharacter(group, n, table)
