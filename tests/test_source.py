"""Checks on the package source itself."""

import ast
from pathlib import Path

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
