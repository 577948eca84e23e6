"""The package runs on numpy alone.

``import hurstbayes``, every CLI command exercised here (``verify
factorization`` with its default exponents included), the Wiener-Hopf root
and the dense Cholesky fallback of ``build_system`` load no ``scipy.*``
module.  The check runs in a fresh interpreter, since this test process has
long since imported scipy.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = r"""
import contextlib, io, json, sys, warnings
import hurstbayes.cli as cli
from hurstbayes.factorization import whitening_coeffs
from hurstbayes.toeplitz import build_system, quad_form


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


out, stages = sys.argv[1], {"import": scipy_modules()}
for label, argv in (
        ("verify inverse", ["verify", "inverse", "--seed", "1", "--out", out + "/inv"]),
        ("verify moments", ["verify", "moments", "--seed", "3", "--out", out + "/mom"]),
        ("estimate", ["estimate", "--h", "0.7", "--n", "64", "--seed", "2",
                      "--grid-coarse", "64", "--out", out + "/est.json"]),
        ("verify factorization", ["verify", "factorization", "--out", out + "/fact"])):
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = cli.main(argv)
    stages[label] = {"exit": code, "modules": scipy_modules()}
whitening_coeffs(0.2)
stages["whitening_coeffs"] = {"exit": 0, "modules": scipy_modules()}
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    system = build_system([1.0, 1.0 - 5e-13])
    system.solve([1.0, -1.0])
    quad_form(system, [1.0, -1.0])
assert system.used_dense and len(caught) == 1
stages["dense fallback"] = {"exit": 0, "modules": scipy_modules()}
print(json.dumps(stages))
"""


def test_scipy_stays_off_the_import_path(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout)
    assert stages.pop("import") == []
    assert sorted(stages) == sorted([
        "verify inverse", "verify moments", "estimate", "verify factorization",
        "whitening_coeffs", "dense fallback"])
    for label, stage in stages.items():
        assert stage == {"exit": 0, "modules": []}, label
