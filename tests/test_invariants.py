"""Invariants that guard the mathematics are raised exceptions, never
`assert` statements, which `python -O` strips."""

import ast
from pathlib import Path

import cubicperiods

PACKAGE = Path(cubicperiods.__file__).resolve().parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
