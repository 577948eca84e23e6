"""Smoke runs of the demos that call the Toeplitz API."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, expect", [
    ("02_slln_quadratic_forms.py", "divergent pair"),
    ("03_determinant_growth.py", "fitted slope"),
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
