"""Run a corpus of corrdyn command lines in two source trees and compare
their results byte for byte.

    python scripts/compare_trees.py [PARENT CHANGE]

PARENT and CHANGE are the roots of two source checkouts.  Each line of every
tests/corpus/*.jsonl file of this checkout is one argv as a JSON list.
Every argv runs as ``python -m corrdyn.cli`` once per tree, with corrdyn
imported from that tree's src/ and a fixed PYTHONHASHSEED, each run in a
fresh temporary working directory so that a relative ``--out`` lands there.
The exit code, stdout, stderr and the bytes of the ``--out`` file must agree.
With no arguments both trees are this checkout, which shows that the corpus
runs and gives the same bytes twice.  Each differing argv is printed, then
one summary line; the exit code is 1 when any argv differs.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = sorted((ROOT / "tests" / "corpus").glob("*.jsonl"))
TIMEOUT_S = 60
FIELDS = ("exit code", "stdout", "stderr", "--out bytes")


def start(tree: Path, argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    return subprocess.Popen([sys.executable, "-m", "corrdyn.cli", *argv], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def finish(proc, argv, cwd) -> tuple:
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = "timeout"
    written = None
    if "--out" in argv:
        path = Path(cwd) / argv[argv.index("--out") + 1]
        written = path.read_bytes() if path.is_file() else None
    return code, out, err, written


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
    differences = 0
    for argv in cases:
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            # the two trees run side by side; each argv waits for both
            procs = [start(tree, argv, cwd) for tree, cwd in zip(trees, (a, b))]
            left, right = [finish(proc, argv, cwd) for proc, cwd in zip(procs, (a, b))]
        differing = [name for name, x, y in zip(FIELDS, left, right) if x != y]
        if differing:
            differences += 1
            print(f"differs in {', '.join(differing)}: {json.dumps(argv)}")
    print(f"compare_trees: {len(cases)} command lines, {differences} differing "
          f"(exit code, stdout, stderr, --out bytes); {trees[0]} vs {trees[1]}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
