"""Checks on the package source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).parents[1] / "src" / "negcurve"


def test_no_assert_statements():
    # python -O strips asserts, so a guarded result must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
