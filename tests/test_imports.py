"""The package's import path stays free of scipy.

``import hurstbayes`` and the commands that need no Wiener-Hopf root load no
``scipy.*`` module; ``verify factorization`` loads ``scipy.fft`` when it
builds the root, and nothing loads ``scipy.optimize``.  Each check runs in a
fresh interpreter, since this test process has long since imported scipy.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = r"""
import contextlib, io, json, sys
import hurstbayes.cli as cli


def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy."))


out, stages = sys.argv[1], {"import": scipy_modules()}
for label, argv in (
        ("verify inverse", ["verify", "inverse", "--seed", "1", "--out", out + "/inv"]),
        ("verify moments", ["verify", "moments", "--seed", "3", "--out", out + "/mom"]),
        ("estimate", ["estimate", "--h", "0.7", "--n", "64", "--seed", "2",
                      "--grid-coarse", "64", "--out", out + "/est.json"]),
        ("verify factorization", ["verify", "factorization", "--alpha", "0.2",
                                  "--out", out + "/fact"])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    stages[label] = {"exit": code, "modules": scipy_modules()}
print(json.dumps(stages))
"""


def test_scipy_stays_off_the_import_path(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout)
    assert stages.pop("import") == []
    for label in ("verify inverse", "verify moments", "estimate"):
        assert stages[label] == {"exit": 0, "modules": []}, label
    fact = stages["verify factorization"]
    assert fact["exit"] == 0
    assert "scipy.fft" in fact["modules"]
    assert not any(m == "scipy.optimize" or m.startswith("scipy.optimize.")
                   for m in fact["modules"])
