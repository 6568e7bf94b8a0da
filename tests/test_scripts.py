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
