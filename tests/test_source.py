"""Checks on the package source itself, and on the instance sources that
stream each family's consequences."""

import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gradedpi import pitool
from gradedpi.algebras import build_catalog, detect_regular
from gradedpi.pitool import (
    Subspace,
    family_regular,
    multilinear_central_space,
    multilinear_identity_space,
)

SOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "gradedpi"


def test_no_assert_statements_in_the_package():
    """Correctness checks must raise explicitly: python -O strips assert."""
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert paths, "no package sources under %s" % SOURCE_DIR
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the package: %s" % ", ".join(found)


def test_cli_import_leaves_multiprocessing_unloaded():
    """verify imports multiprocessing only when it runs a pool, so the
    command-line entry point does not pay for it at startup."""
    env = dict(os.environ, PYTHONPATH=str(SOURCE_DIR.parent))
    script = "import sys, gradedpi.cli; sys.exit('multiprocessing' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 0


# every regular catalog algebra, with the largest degree checked on it, and a
# tensor-product regular grading with a nontrivial radical
_REGULAR_CASES = [
    ("c2", {}, 4),
    ("m2-4", {}, 5),
    ("h4", {}, 4),
    ("m2-8", {}, 4),
    ("pauli", {"n": 2}, 4),
    ("d-cyclic", {"m": 3, "eps": 1}, 4),
    ("d-cyclic", {"m": 3, "eps": -1}, 4),
    ("d-pair", {"k": 2, "l": 2}, 4),
    ("c2@m2-4", {}, 4),
]


def _swap_cut(pg, mono, i):
    """The _adjacent_cuts instance of mono, a monomial of the record pg,
    with B1 and B2 the letters at i and i + 1, as (d1, d2, swapped)."""
    n = len(mono)
    cuts = [(a, b, c) for a in range(n) for b in range(a + 1, n + 1)
            for c in range(b + 1, n + 1)]
    walk = pitool._adjacent_cuts(mono, pitool._prefix_masks(mono), pg.subset_degrees)
    return dict(zip(cuts, walk))[(i, i + 1, i + 2)]


@pytest.mark.parametrize("name, params, max_degree", _REGULAR_CASES,
                         ids=["%s%s" % (name, "".join("-%s" % v for v in params.values()))
                              for name, params, _ in _REGULAR_CASES])
def test_regular_descent_stage(name, params, max_degree):
    """The regular source's one stage gives every record (dimensions,
    verdict, witness) of the generic template stream of the family's own
    members, in both modes.  Each descent instance is the cut instance
    swapping the monomial's first descent, and in identities mode the
    n! - 1 of them are all kept and close the record."""
    algebra = build_catalog(name, **params)
    beta, _ = detect_regular(algebra)
    for mode, space in (("identities", multilinear_identity_space),
                        ("centrals", multilinear_central_space)):
        genset = family_regular(beta, mode)
        source, order = genset.fast_source, genset.order
        templates = genset.templates()
        for n in range(1, max_degree + 1):
            for degrees in itertools.combinations_with_replacement(
                    sorted(algebra.support), n):
                target = space(algebra, degrees)
                pg = target.pg
                record = pitool._record(target, source.stages(pg), order)
                generic = pitool._record(target, [(vec for vec, _ in pitool._generic_instances(
                    templates, pg, mode == "identities"))], order)
                assert (record.dim_target, record.dim_consequence, record.equal,
                        record.witness) == (generic.dim_target, generic.dim_consequence,
                                            generic.equal, generic.witness), (mode, degrees)
                if mode != "identities":
                    continue
                descents = list(source._descents(pg))
                assert len(descents) == pg.ncols - 1
                for mono, vec in zip(pg.monomials[1:], descents):
                    i = next(i for i in range(n - 1) if mono[i][0] > mono[i + 1][0])
                    d1, d2, swapped = _swap_cut(pg, mono, i)
                    assert vec == pitool._binomial(pg, mono, swapped, beta.eval(d1, d2))
                span = Subspace(pg)
                assert all(span.add(vec) for vec in descents), degrees
                assert span.dim == target.dim, degrees
                assert all(target.contains(vec) for vec in descents), degrees
