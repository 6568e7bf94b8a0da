"""The example scripts run to completion against the library in src/."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert len(SCRIPTS) >= 5


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_exits_zero(script, tmp_path):
    # each script runs in its own directory: render_limit_set.py writes its
    # CSV and PPM files into the working directory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_kgroup_table_script_names_the_first_difference(monkeypatch, capsys):
    # the closed-form check is a comparison, not an assert that -O strips
    script = _load("monomial_kgroup_table")
    closed_form = script.closed_form
    monkeypatch.setattr(script, "closed_form", lambda m, n: closed_form(
        m, n)[::-1] if (m, n) == (2, 3) else closed_form(m, n))
    monkeypatch.setattr(sys, "argv", ["monomial_kgroup_table.py", "4", "4"])
    assert script.main() == 1
    assert capsys.readouterr().err.startswith("(m, n) = (2, 3) differs")


# (script, the name a failure is forced through, its broken stand-in, the
# arguments, None for an output directory, and the start of stderr)
BROKEN_CHECKS = [
    ("circle_fock_demo", "fock_relation_check", lambda ft: 1, [],
     "the Fock relations deviate by 1"),
    ("expansive_survey", "expansive_decide", lambda cc: False, ["2"],
     "(m, n) = (2, 1): the rule says expansive=False, the oracle covered=True"),
    ("product_family_branching", "chordal_distance", lambda p, q: 1.0, ["2", "4"],
     "no branched point within 1e-7 of 1.000000+0.000000j"),
    ("render_limit_set", "cli_main", lambda argv: 2, None, "render to "),
]


@pytest.mark.parametrize("name, attribute, broken, args, message", BROKEN_CHECKS,
                         ids=[case[0] for case in BROKEN_CHECKS])
def test_script_check_fails_with_exit_one(monkeypatch, capsys, tmp_path, name, attribute,
                                          broken, args, message):
    # each check is a comparison that prints the first failure to stderr
    # and exits 1, not an assert that -O strips
    script = _load(name)
    monkeypatch.setattr(script, attribute, broken)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"] + (args if args is not None else [str(tmp_path)]))
    assert script.main() == 1
    assert capsys.readouterr().err.startswith(message)


def test_compare_trees_limits_memory(tmp_path):
    # the workers and the processes of compare_trees.py run under
    # MEMORY_LIMIT, and an allocation past it comes back as MemoryError;
    # the child checks the limit before it allocates, so a missing limit
    # fails the test without taking the machine's memory
    script = _load("compare_trees")
    child = ("import resource, compare_trees\n"
             "compare_trees.limit_memory()\n"
             "soft, _ = resource.getrlimit(resource.RLIMIT_AS)\n"
             "assert soft <= compare_trees.MEMORY_LIMIT, soft\n"
             "try:\n"
             "    bytearray(compare_trees.MEMORY_LIMIT)\n"
             "except MemoryError:\n"
             "    print('MemoryError')\n")
    proc = subprocess.run([sys.executable, "-c", child], cwd=ROOT / "scripts",
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "MemoryError\n", proc.stderr
    # a tree whose cli.main prints its process's address-space limit
    (tmp_path / "src" / "corrdyn").mkdir(parents=True)
    (tmp_path / "src" / "corrdyn" / "cli.py").write_text(
        "import resource, sys\n"
        "def main(argv):\n"
        "    print(resource.getrlimit(resource.RLIMIT_AS)[0])\n"
        "    return 0\n"
        "if __name__ == '__main__':\n"
        "    sys.exit(main(sys.argv[1:]))\n")
    worker = script.Worker(tmp_path)
    try:
        worker.send([])
        code, out, _, _ = worker.receive()
    finally:
        worker.close()
    want = (0, str(script.MEMORY_LIMIT).encode() + b"\n")
    assert (code, out) == want
    for code, out, _, _ in script.run_processes([tmp_path, tmp_path], []):
        assert (code, out) == want


def test_bench_pairs_verdicts():
    # one verdict per workload and metric, from ten synthetic pairs of a
    # higher-is-better metric with bound 0.2
    script = _load("bench_pairs")
    metric = {"name": "ops_per_s", "better": "higher", "bound": 0.2}
    flat = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    wide = [50, 150] * 5  # parent interquartile range 100, median 100
    cases = {
        "gain": (flat, [1.1 * v for v in flat]),
        "worse": (flat, [0.7 * v for v in flat]),
        "within bound": (flat, [0.95 * v for v in flat]),
        "unresolved": (wide, [100] * 10),
        # every change run beats every parent run, by no more than the range
        "all better": (wide, [200] * 10),
    }
    pairs = [{"workload": name, **{side: {"correct": True, "failed": 0,
                                          "metrics": {"ops_per_s": {"value": v}}}
                                   for side, v in (("parent", p), ("change", c))}}
             for name, (parent, change) in cases.items() for p, c in zip(parent, change)]
    summary = script.summarise(pairs, [metric])
    verdicts = {name: summary[name]["ops_per_s"]["verdict"] for name in cases}
    assert verdicts == {"gain": "gain", "worse": "worse", "within bound": "within bound",
                        "unresolved": "unresolved", "all better": "within bound"}
    assert summary["unresolved"]["ops_per_s"]["parent_iqr"] == 100
