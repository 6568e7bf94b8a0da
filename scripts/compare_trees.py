"""Run a corpus of corrdyn command lines in two source trees and compare
their results byte for byte.

    python scripts/compare_trees.py [PARENT CHANGE]

PARENT and CHANGE are the roots of two source checkouts.  Each line of every
tests/corpus/*.jsonl file of this checkout is one argv as a JSON list.  One
worker process per tree, with corrdyn imported from that tree's src/ and a
fixed PYTHONHASHSEED, reads the argvs as JSON lines on its stdin and runs
each through ``corrdyn.cli.main`` in a fresh temporary working directory,
so that a relative ``--out`` lands there, with sympy's cache cleared.  The
exit code, stdout, stderr and the bytes of the ``--out`` file must agree.
State that outlives one call (the primes found on demand, cached matrices)
must not change an answer: the CHANGE worker runs the corpus a second time
in a shuffled order and must give the same bytes.  A few argvs also run as
``python -m corrdyn.cli`` processes, which must give what the workers gave.
Workers and processes run under an address-space limit of MEMORY_LIMIT
bytes, so that an argv one tree does not bound ends in a MemoryError (exit
1, a difference) and not in the machine's memory running out.
With no arguments both trees are this checkout, which shows that the corpus
runs and gives the same bytes twice.  Each differing argv is printed, then
one summary line; the exit code is 1 when any argv differs.
"""

import base64
import contextlib
import io
import json
import os
import random
import resource
import select
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = sorted((ROOT / "tests" / "corpus").glob("*.jsonl"))
TIMEOUT_S = 60
MEMORY_LIMIT = 3 << 30
FIELDS = ("exit code", "stdout", "stderr", "--out bytes")
SHUFFLE_SEED = 20081
# the worker's loop, started as python -c with this directory on sys.path
SERVE = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
         "import compare_trees; compare_trees.serve()")


def limit_memory():
    """Cap this process's address space at MEMORY_LIMIT bytes, or below
    where the hard limit is lower."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run_in_process(argv) -> tuple:
    """(exit code, stdout, stderr, --out bytes) of ``corrdyn.cli.main(argv)``
    in a fresh temporary working directory, as a process would give them."""
    from corrdyn import cli

    if "sympy" in sys.modules:
        from sympy.core.cache import clear_cache

        clear_cache()
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as cwd:
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                    if code is not None and not isinstance(code, int):
                        print(code, file=sys.stderr)
                        code = 1
                except Exception:  # as the interpreter reports an uncaught one
                    traceback.print_exc()
                    code = 1
            written = _written(argv, cwd)
        finally:
            os.chdir(home)
    return code or 0, out.getvalue().encode(), err.getvalue().encode(), written


def _written(argv, cwd):
    if "--out" not in argv[:-1]:
        return None
    path = Path(cwd) / argv[argv.index("--out") + 1]
    return path.read_bytes() if path.is_file() else None


def serve():
    """The worker: one JSON argv per stdin line, one JSON result per stdout
    line.  The results go out on a copy of the stdout descriptor, and
    descriptor 1 is pointed at stderr, so that nothing written there by the
    library can break the protocol."""
    limit_memory()
    channel = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    for line in sys.stdin:
        code, *data = run_in_process(json.loads(line))
        data = [None if x is None else base64.b64encode(x).decode() for x in data]
        channel.write(json.dumps([code, *data]) + "\n")
        channel.flush()


class Worker:
    """A worker process serving one tree; restarted after a timeout."""

    def __init__(self, tree: Path):
        self.env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
        self.proc = None

    def send(self, argv):
        if self.proc is None:
            self.proc = subprocess.Popen([sys.executable, "-c", SERVE], env=self.env,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         text=True, encoding="utf-8")
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()

    def receive(self) -> tuple:
        ready, _, _ = select.select([self.proc.stdout], [], [], TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:  # a timeout, or the worker died
            self.close()
            return "timeout", b"", b"", None
        code, *data = json.loads(line)
        return (code, *(None if x is None else base64.b64decode(x) for x in data))

    def close(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None


def run_pass(workers, argvs) -> list:
    """Each argv through every worker, the workers side by side: per argv,
    one result per worker."""
    results = []
    for argv in argvs:
        for worker in workers:
            worker.send(argv)
        results.append([worker.receive() for worker in workers])
    return results


def run_processes(trees, argv) -> list:
    """(exit code, stdout, stderr, --out bytes) of ``python -m corrdyn.cli``
    per tree, the trees side by side."""
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        procs = [subprocess.Popen([sys.executable, "-m", "corrdyn.cli", *argv], cwd=cwd,
                                  env=dict(os.environ, PYTHONPATH=str(tree / "src"),
                                           PYTHONHASHSEED="0"),
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  preexec_fn=limit_memory)
                 for tree, cwd in zip(trees, (a, b))]
        results = []
        for proc, cwd in zip(procs, (a, b)):
            try:
                out, err = proc.communicate(timeout=TIMEOUT_S)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
                code = "timeout"
            results.append((code, out, err, _written(argv, cwd)))
        return results


def process_slice(cases) -> list:
    """The argvs that also run as processes: the first of the corpus, the
    first that writes an ``--out`` file and the empty one, a usage error."""
    picked = [cases[0], next(argv for argv in cases if "--out" in argv), []]
    return [argv for argv in picked if argv in cases]


def differing(left, right) -> list:
    return [name for name, x, y in zip(FIELDS, left, right) if x != y]


def main(args) -> int:
    if len(args) not in (0, 2):
        print("usage: compare_trees.py [PARENT CHANGE]", file=sys.stderr)
        return 2
    trees = [Path(t).resolve() for t in args] or [ROOT, ROOT]
    for tree in trees:
        if not (tree / "src" / "corrdyn" / "cli.py").is_file():
            print(f"no corrdyn sources under {tree}", file=sys.stderr)
            return 2
    cases = [json.loads(line) for path in CORPUS
             for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    workers = [Worker(tree) for tree in trees]
    try:
        results = run_pass(workers, cases)
        order = list(range(len(cases)))
        random.Random(SHUFFLE_SEED).shuffle(order)
        again = run_pass(workers[1:], [cases[i] for i in order])
    finally:
        for worker in workers:
            worker.close()
    shuffled = [None] * len(cases)
    for i, (result,) in zip(order, again):
        shuffled[i] = result
    differences = 0
    for argv, (left, right), second in zip(cases, results, shuffled):
        found = differing(left, right)
        found += [f"{name} when shuffled" for name in differing(right, second)]
        if found:
            differences += 1
            print(f"differs in {', '.join(found)}: {json.dumps(argv)}")
    picked = process_slice(cases)
    for argv in picked:
        in_process = results[cases.index(argv)]
        found = [f"{name} as a process in {tree}"
                 for tree, mine, theirs in zip(trees, in_process, run_processes(trees, argv))
                 for name in differing(mine, theirs)]
        if found:
            differences += 1
            print(f"differs in {', '.join(found)}: {json.dumps(argv)}")
    print(f"compare_trees: {len(cases)} command lines, {differences} differing "
          f"(exit code, stdout, stderr, --out bytes; a shuffled second pass; "
          f"{len(picked)} also as processes); {trees[0]} vs {trees[1]}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
