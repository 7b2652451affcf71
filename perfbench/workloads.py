"""The benchmark's workloads: what each one runs, and the output it must give.

Each workload is run through the library's public entry points: the catalog
(``build_catalog``), the generator families as ``gradedpi verify`` resolves
them (``cli.resolve_basis``), ``verify_basis`` and ``check_pauli_multidegree``.
Set-up is the work every command-line call pays before its first check; the
verdict is everything after it.  The reasons for each choice are in
``README.md``.
"""

from __future__ import annotations


class Campaign:
    """A ``gradedpi verify`` campaign: membership, then completeness at every
    multidegree up to ``max_degree``."""

    def __init__(self, name, why, algebra, params, basis, mode, max_degree,
                 expected, exercised):
        self.name = name
        self.why = why
        self.algebra = algebra
        self.params = params
        self.basis = basis
        self.mode = mode
        self.max_degree = max_degree
        self.expected = expected
        self.exercised = exercised

    def context(self):
        return {"command": "verify", "algebra": self.algebra, **self.params,
                "basis": self.basis, "mode": self.mode,
                "max_degree": self.max_degree, "jobs": 1}

    def setup(self, lib):
        algebra = lib.algebras.build_catalog(self.algebra, **self.params)
        genset = lib.cli.resolve_basis(self.basis, algebra, self.mode, self.max_degree)
        if genset.mode != self.mode:
            raise ValueError("basis %s has mode %s" % (genset.name, genset.mode))
        return algebra, genset

    def verdict(self, lib, state, progress):
        algebra, genset = state
        return lib.pitool.verify_basis(algebra, genset, self.max_degree, jobs=1,
                                       progress=progress)

    @staticmethod
    def digest(report):
        return {
            "ok": report.ok,
            "records": len(report.records),
            "dim_target": sum(r.dim_target for r in report.records),
            "dim_consequence": sum(r.dim_consequence for r in report.records),
            "membership": len(report.membership),
        }

    @staticmethod
    def records(report):
        """(records, records whose spans differ)."""
        return len(report.records), sum(not r.equal for r in report.records)

    def units(self, report):
        """(attempted, failed): one unit per record and per membership entry."""
        records, unequal = self.records(report)
        return (records + len(report.membership),
                unequal + sum(not m["ok"] for m in report.membership))

    def expected_units(self):
        return self.expected["records"] + self.expected["membership"]


# -- the large-multidegree record ---------------------------------------------------


class LongRecord:
    """``check_pauli_multidegree`` on pauli-4 at the degree-five multidegree
    (g, h1, g, h2, g) with beta(g, hi) = i: the first five degrees of the
    degree-seven record of ``verify --long-running``.

    The shape is fixed.  ``Bicharacter.eval`` raises table entries to powers
    of the degrees' coordinates, so another valid shape does different work
    (a quarter more Cyclo products on some), and a seeded choice would
    measure the shape instead of the program.
    """

    degrees = ((0, 1), (3, 0), (0, 1), (3, 1), (0, 1))  # y x^3 y x^3y y

    def __init__(self, name, why, expected, exercised):
        self.name = name
        self.why = why
        self.expected = expected
        self.exercised = exercised

    def context(self):
        return {"command": "check_pauli_multidegree", "algebra": "pauli", "n": 4,
                "degrees": [list(d) for d in self.degrees]}

    def setup(self, lib):
        return lib.algebras.build_catalog("pauli", n=4)

    def verdict(self, lib, algebra, progress):
        return lib.pitool.check_pauli_multidegree(algebra, list(self.degrees))

    @staticmethod
    def digest(record):
        return {"equal": record.equal, "dim_target": record.dim_target,
                "dim_consequence": record.dim_consequence}

    @staticmethod
    def records(record):
        return 1, int(not record.equal)

    units = records

    def expected_units(self):
        return 1


# Every workload's traced run must hit the entry points listed as exercised;
# a later rename or inlining then fails loudly instead of reading zero.
_CAMPAIGN_LAYERS = ("algebras.build_catalog", "pitool.family", "pitool.verify",
                    "pitool.membership", "pitool.target", "scalars.kernel",
                    "scalars.echelon_add", "algebras.mul_vec", "scalars.cyclo_mul")

WORKLOADS = {w.name: w for w in (
    Campaign(
        "pauli3-d3",
        "drives Echelon elimination and the groups layer hardest, on order-12 "
        "cyclotomic scalars with binomial and trinomial instance streams",
        "pauli", {"n": 3}, "pauli", "identities", 3,
        {"ok": True, "records": 219, "dim_target": 718, "dim_consequence": 718,
         "membership": 514},
        _CAMPAIGN_LAYERS + ("groups.bichar_eval", "freealg.reorder_scalar",
                            "scalars.cyclo_inv")),
    Campaign(
        "e4-centrals-d3",
        "evaluation and centrality of 196 lifted central members; bypasses "
        "stream elimination, and is the only centrals-mode workload",
        "e-series", {"eps": -1, "n": 4}, "corollary", "centrals", 3,
        {"ok": True, "records": 34, "dim_target": 74, "dim_consequence": 74,
         "membership": 196},
        _CAMPAIGN_LAYERS + ("freealg.multilinearize",)),
    LongRecord(
        "pauli4-deg5",
        "the ratio union-find path of check_pauli_multidegree, on the degree-five "
        "prefix of the --long-running pauli-4 record",
        {"equal": True, "dim_target": 118, "dim_consequence": 118},
        ("algebras.build_catalog", "pitool.long_record", "groups.bichar_eval",
         "freealg.reorder_scalar", "scalars.echelon_add", "scalars.cyclo_mul",
         "scalars.cyclo_inv")),
)}
