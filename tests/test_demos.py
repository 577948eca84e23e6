"""Smoke runs of the demos: each script must exit cleanly and print its
headline line.  Demo 05 (about half a minute) is left out; the others take
one to about ten seconds each."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, expect", [
    ("01_simulate_and_estimate.py", "posterior sd"),
    ("02_slln_quadratic_forms.py", "divergent pair"),
    ("03_determinant_growth.py", "fitted slope"),
    ("04_symbol_factorization.py", "w-hat tail constant"),
])
def test_demo_runs(script, expect):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert expect in run.stdout
