"""Workload definitions: inputs generated from a seed, the ops issued, and
the per-op correctness checks.

Inputs are built here with numpy only (an independent circulant-embedding
FGN generator), never with the package under test, so a change to
``hurstbayes`` cannot change what it is measured on.  Checks use scipy's
dense Cholesky and the closed-form FGN autocovariance, again independent of
the package.

An op is one ``hurstbayes`` CLI command given as an argv list.  ``{out}`` in
an argv is replaced by the worker with the op's output path stem.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    deadline_s: float
    # ops are issued in whole rotations so every run sees each op kind
    # equally often; a new rotation starts only while time remains
    rotation: int
    build: Callable  # (run_dir, seed) -> (ops, warmup_argv, inputs)
    check: Callable  # (op, inputs) -> reason string, "" when correct
    # repeats of one verify command must give bitwise identical reports
    repeat_identical: bool = False


# ---------------------------------------------------------------------------
# independent inputs

def fgn_autocov(h: float, n: int) -> np.ndarray:
    """gamma(0..n-1) of unit-spacing fractional Gaussian noise."""
    j = np.arange(n, dtype=float)
    th = 2.0 * h
    return 0.5 * ((j + 1.0) ** th - 2.0 * j ** th + np.abs(j - 1.0) ** th)


def fgn_increments(rng: np.random.Generator, h: float, n: int) -> np.ndarray:
    """One exact draw of n FGN increments at spacing 1/n (Davies-Harte)."""
    m = 1 << max(1, math.ceil(math.log2(n)))
    gam = fgn_autocov(h, m + 1)
    eigs = np.fft.fft(np.concatenate([gam, gam[m - 1:0:-1]])).real
    eigs = np.maximum(eigs, 0.0)
    z = rng.standard_normal(2 * m) + 1j * rng.standard_normal(2 * m)
    x = np.fft.fft(np.sqrt(eigs / (2 * m)) * z).real[:n]
    return x * float(n) ** (-h)


def write_series(path: Path, y: np.ndarray, h: float, index: int) -> None:
    """The package's path CSV format: one header line, one repr per line."""
    n = y.size
    with open(path, "w") as fh:
        fh.write(f"# fgn h={h!r} n={n} spacing={1.0 / n!r} seed={index}\n")
        fh.writelines(f"{float(v)!r}\n" for v in y)


# ---------------------------------------------------------------------------
# independent checks

def dense_log_posterior(y: np.ndarray, u: float) -> float:
    """Uniform-prior log posterior n u log n - logdet/2 - n^{2u} Q / 2 by
    dense Cholesky of the closed-form covariance."""
    n = y.size
    cov = scipy.linalg.toeplitz(fgn_autocov(u, n))
    chol = scipy.linalg.cho_factor(cov, lower=True, overwrite_a=True,
                                   check_finite=False)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
    quad = float(np.dot(y, scipy.linalg.cho_solve(chol, y)))
    ln_n = math.log(n)
    return n * u * ln_n - 0.5 * logdet - 0.5 * math.exp(2.0 * u * ln_n) * quad


_ESTIMATE_FIELDS = ("map", "mean", "sd", "alpha_n", "c_n", "normal_approx_sd")
_BAD_FLAGS = ("dropping grid node", "grid boundary")


def check_estimate(op: dict, inputs: dict) -> str:
    doc = json.loads(Path(op["out"] + ".json").read_text())
    y = inputs[op["key"]]["y"]
    for key in _ESTIMATE_FIELDS:
        if not isinstance(doc.get(key), (int, float)) or not math.isfinite(doc[key]):
            return f"{key} is not a finite number: {doc.get(key)!r}"
    lo, hi = doc["ci95"]
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= doc["map"] <= hi):
        return f"ci95 {doc['ci95']} does not bracket the MAP {doc['map']}"
    if doc["n"] != y.size:
        return f"n is {doc['n']}, input has {y.size}"
    bad = [f for f in doc["flags"] if any(b in f for b in _BAD_FLAGS)]
    if bad:
        return f"flagged: {bad}"
    # the MAP must be a local maximum of the exact posterior at +-sd/4
    step = doc["sd"] / 4.0
    u0 = doc["map"]
    centre = dense_log_posterior(y, u0)
    for u in (u0 - step, u0 + step):
        if 0.0 < u < 1.0 and dense_log_posterior(y, u) > centre:
            return f"dense log posterior at {u:.6f} exceeds the value at the MAP"
    return ""


def check_verify(op: dict, inputs: dict) -> str:
    doc = json.loads(Path(op["out"] + ".json").read_text())
    if doc.get("verdict") != "pass":
        return f"verdict {doc.get('verdict')!r}"
    if not doc.get("records"):
        return "report has no records"
    return ""


# ---------------------------------------------------------------------------
# workloads

def _estimate_ops(run_dir: Path, rng, specs):
    inputs, ops = {}, []
    for i, (h, n) in enumerate(specs):
        key = f"in{i}"
        y = fgn_increments(rng, h, n)
        path = run_dir / f"{key}.csv"
        write_series(path, y, h, i)
        inputs[key] = {"h": h, "n": n, "y": y}
        ops.append({"key": key, "kind": "estimate",
                    "argv": ["estimate", "--in", str(path), "--out", "{out}.json"]})
    return ops, inputs


def _warmup_series(run_dir: Path, rng, h: float, n: int) -> list:
    path = run_dir / "warmup.csv"
    write_series(path, fgn_increments(rng, h, n), h, -1)
    return ["estimate", "--in", str(path), "--out", str(run_dir / "warmup.json")]


def build_estimate_long(run_dir: Path, seed: int):
    rng = np.random.default_rng([seed, 1])
    ops, inputs = _estimate_ops(run_dir, rng, [((0.3, 0.7)[i % 2], 4096)
                                               for i in range(8)])
    return ops, _warmup_series(run_dir, rng, 0.6, 256), inputs


def build_estimate_short(run_dir: Path, seed: int):
    rng = np.random.default_rng([seed, 2])
    lengths = rng.choice(np.arange(128, 769), size=16, replace=False)
    specs = [((0.2, 0.5, 0.7, 0.9)[i % 4], int(n)) for i, n in enumerate(lengths)]
    ops, inputs = _estimate_ops(run_dir, rng, specs)
    return ops, _warmup_series(run_dir, rng, 0.6, 100), inputs


def build_verify_mc(run_dir: Path, seed: int):
    # master seeds 1899 and 1900 are the ones whose verdict is known to pass
    master = 1899 + seed % 2
    argv = ["verify", "concentration", "--h", "0.7", "--nlist", "512",
            "--paths", "10", "--threads", "2", "--seed", str(master),
            "--out", "{out}"]
    warmup = ["verify", "concentration", "--h", "0.7", "--nlist", "64",
              "--paths", "10", "--threads", "2", "--seed", "7",
              "--out", str(run_dir / "warmup")]
    return [{"key": f"mc{master}", "kind": "concentration", "argv": argv}], warmup, {}


def _inverse_warmup(run_dir: Path) -> list:
    # a dense inverse absorbs the lazy BLAS start, as in every verify run
    return ["verify", "inverse", "--seed", "1", "--out", str(run_dir / "warmup")]


def build_verify_factorization(run_dir: Path, seed: int):
    # the command takes no seed; the seed orders the four default exponents
    # within each rotation, one exponent per op so ops are of similar size
    rng = np.random.default_rng([seed, 4])
    ops = []
    for _ in range(16):
        for alpha in rng.permutation(["0.2", "-0.2", "0.3", "-0.3"]):
            ops.append({"key": f"factorization{alpha}", "kind": "factorization",
                        "argv": ["verify", "factorization", "--alpha", str(alpha),
                                 "--out", "{out}"]})
    return ops, _inverse_warmup(run_dir), {}


def build_verify_moments(run_dir: Path, seed: int):
    # one kind of op, so the median times moments work alone
    rng = np.random.default_rng([seed, 5])
    ops = [{"key": f"moments{k}", "kind": "moments",
            "argv": ["verify", "moments", "--seed", str(s), "--out", "{out}"]}
           for k, s in enumerate(rng.integers(0, 2 ** 31, size=128))]
    return ops, _inverse_warmup(run_dir), {}


# BENCHMARK.json lists the workloads the regression gate runs, which must be
# ones whose ops all succeed; every workload here can be run by name
WORKLOADS = {w.name: w for w in (
    Workload("verify-factorization",
             "verify factorization, the four default exponents one per op: "
             "Wiener-Hopf checks whose time is the symbols layer's adaptive "
             "Simpson quadrature; no Levinson code",
             deadline_s=30.0, rotation=4,
             build=build_verify_factorization, check=check_verify,
             repeat_identical=True),
    Workload("verify-moments",
             "verify moments on seeded trials: trace recursion, pairing "
             "oracle and composition form of quadratic-form moments; no "
             "Levinson code",
             deadline_s=30.0, rotation=4,
             build=build_verify_moments, check=check_verify),
    Workload("estimate-long",
             "estimate --in on 8 distinct FGN series, n=4096, h in {0.3, 0.7}: "
             "every coarse-grid (u, n) node recurs across requests",
             deadline_s=120.0, rotation=1,
             build=build_estimate_long, check=check_estimate),
    Workload("estimate-short",
             "estimate --in on 16 series of distinct n in 128-768, h in "
             "{0.2, 0.5, 0.7, 0.9}: no (u, n) node recurs",
             deadline_s=30.0, rotation=1,
             build=build_estimate_short, check=check_estimate),
    Workload("verify-mc",
             "verify concentration --h 0.7 --nlist 512 --paths 10 --threads 2, "
             "one master seed repeated: ten paths share every node",
             deadline_s=120.0, rotation=1,
             build=build_verify_mc, check=check_verify,
             repeat_identical=True),
)}
