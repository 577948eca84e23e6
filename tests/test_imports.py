"""The package runs on numpy alone.

``import hurstbayes``, every CLI command exercised here (``verify
factorization`` with its default exponents included), the Wiener-Hopf root
and the dense Cholesky fallback of ``build_system`` load no ``scipy.*``
module, and none of them so much as tries to import ``numba`` or
``llvmlite``: a ``sys.meta_path`` finder records every such attempt.  The
check runs in a fresh interpreter, since this test process has long since
imported scipy.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = r"""
import contextlib, io, json, sys, warnings


class JitFinder:
    # finds nothing; records each attempt to import a JIT compiler
    attempts = []

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numba", "llvmlite"):
            self.attempts.append(name)
        return None


sys.meta_path.insert(0, JitFinder())
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
print(json.dumps({"stages": stages, "jit imports": JitFinder.attempts}))
"""


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = tmp_path_factory.mktemp("fresh")
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_scipy_stays_off_the_import_path(fresh_run):
    stages = dict(fresh_run["stages"])
    assert stages.pop("import") == []
    assert sorted(stages) == sorted([
        "verify inverse", "verify moments", "estimate", "verify factorization",
        "whitening_coeffs", "dense fallback"])
    for label, stage in stages.items():
        assert stage == {"exit": 0, "modules": []}, label


def test_no_jit_compiler_import_is_attempted(fresh_run):
    # the one Durbin kernel is numpy, so nothing probes for numba, not even
    # commands that run no Durbin pass (verify factorization, verify moments)
    assert fresh_run["jit imports"] == []
