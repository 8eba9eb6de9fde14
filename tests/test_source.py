"""Checks on the library source itself."""

import ast
from pathlib import Path

import stochrat

PACKAGE = Path(stochrat.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # invariants must raise explicit errors: ``python -O`` strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
