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


def test_benchmark_tracer_targets_exist():
    # bench/tracer.py replaces these names from outside the library, so a
    # refactor that drops one breaks the traced benchmark run; its source is
    # only parsed here, never imported
    import importlib

    from corrdyn.correspondence import Correspondence

    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_TRACED" for t in node.targets)
    )
    missing = []
    for _, module, owner, attrs in traced:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        for attr in attrs:
            found = attr in target.__dict__ if owner is not None else hasattr(target, attr)
            if not found:
                missing.append(f"{module}.{owner or ''}.{attr}")
    assert missing == []
    # the fiber wrapper reads each method's first default as tol
    for method in (Correspondence.backward_fiber, Correspondence.forward_fiber):
        assert isinstance(method.__defaults__[0], float)
