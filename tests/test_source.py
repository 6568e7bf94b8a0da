"""Checks on the library source itself."""

import ast
import json
import os
import subprocess
import sys
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


# functions that no command line enters but that must stay: the pickling
# hook of SpherePoint (test_correspondence pickles it) and the equality of
# polynomials, which tests compare with ==
UNREACHED_ALLOWED = {
    ("correspondence", "SpherePoint.__getnewargs__"),
    ("polyalg", "BivariatePolynomial.__eq__"),
}


def _functions_by_first_line(path: Path) -> dict:
    """{first line of the code object: __qualname__} for every def and
    lambda of one source file; a decorated def's code starts at its first
    decorator."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = "<lambda>" if isinstance(child, ast.Lambda) else child.name
                lines = [child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])]
                found[min(lines)] = scope + name
                visit(child, f"{scope}{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.")
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


# run in a fresh process, traced from before corrdyn is imported, so that
# neither import-time calls nor the state an earlier test left behind (a
# cached parser, primes already found) hide a function from the tracer
_TRACE_CORPUS = """
import json, sys
package = sys.argv[1]
entered = set()

def tracer(frame, event, arg):
    if frame.f_code.co_filename.startswith(package):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.settrace(tracer)
import compare_trees
for line in sys.stdin:
    compare_trees.run_in_process(json.loads(line))
sys.settrace(None)
json.dump(sorted(entered), sys.stdout)
"""


def test_every_function_is_reached_by_a_corpus_command():
    # src/ holds only what a command reaches: every corpus argv runs under a
    # call tracer, and every function of the library must be entered by at
    # least one of them; checks that only tests call belong in
    # tests/support.py as oracles
    root = Path(__file__).resolve().parents[1]
    package = Path(corrdyn.__file__).parent
    functions = {str(path): _functions_by_first_line(path)
                 for path in sorted(package.glob("*.py"))}
    argvs = [line for path in sorted((root / "tests" / "corpus").glob("*.jsonl"))
             for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(package.parent), str(root / "scripts")]))
    proc = subprocess.run([sys.executable, "-c", _TRACE_CORPUS, str(package)],
                          input="\n".join(argvs), env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    entered = {tuple(pair) for pair in json.loads(proc.stdout)}
    unreached = {(Path(filename).stem, qualname)
                 for filename, by_line in functions.items()
                 for line, qualname in by_line.items()
                 if (filename, line) not in entered}
    assert unreached == UNREACHED_ALLOWED
