"""Checks on the library source itself."""

import ast
from pathlib import Path

import corrdyn


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # would go unchecked; the library raises its own errors instead
    found = []
    for path in sorted(Path(corrdyn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
