"""Smoke tests for scripts/: each script still runs against the package API."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize("argv", [
    ("compare_studies.py", "--n", "500"),
    ("coverage_study.py", "--n", "300", "--replicates", "20"),
])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_make_fixture_reproduces_bundled_csv(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_fixture",
                                                  SCRIPTS / "make_fixture.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "nhanes_synthetic.csv"
    monkeypatch.setattr(module, "OUT", out)
    module.main()
    assert out.read_bytes() == (ROOT / "data" / "nhanes_synthetic.csv").read_bytes()
