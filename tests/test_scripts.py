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


def test_kgroup_table_script_names_the_first_difference(monkeypatch, capsys):
    # the closed-form check is a comparison, not an assert that -O strips
    spec = importlib.util.spec_from_file_location(
        "monomial_kgroup_table", ROOT / "scripts" / "monomial_kgroup_table.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    closed_form = script.closed_form
    monkeypatch.setattr(script, "closed_form", lambda m, n: closed_form(
        m, n)[::-1] if (m, n) == (2, 3) else closed_form(m, n))
    monkeypatch.setattr(sys, "argv", ["monomial_kgroup_table.py", "4", "4"])
    assert script.main() == 1
    assert capsys.readouterr().err.startswith("(m, n) = (2, 3) differs")
