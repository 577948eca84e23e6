"""Command-line frontend: simulate paths, estimate the Hurst parameter,
run verification experiments.

Exit codes are a stable contract: 0 success (for ``verify``, verdict pass),
1 runtime failure, 2 usage error.  A usage error is a ``ValueError`` raised
by this package's own input checks; one raised inside numpy, scipy or any
other library is an internal fault and exits 1 like any other failure.

All randomness flows from ``--seed``; when absent the ``HURST_SEED``
environment variable is consulted, then the fixed default 1899, so every run
is deterministic.

Numbers print with 9 significant digits; JSON output keeps full precision.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from contextlib import nullcontext
from typing import Optional

from . import harness
from .fgn import read_path_csv, sample_fgn, write_path_csv
from .posterior import (GRID_MAX, GRID_MIN, credible_interval, map_estimate,
                        posterior_grid, posterior_moments, solve_alpha_n)

DEFAULT_SEED = harness.DEFAULT_MASTER_SEED
_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))

_EXPERIMENTS = ("slln", "determinant", "concentration", "factorization",
                "inverse", "moments")


def _hurst_arg(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"h must lie strictly in (0, 1), got {text}")
    return value


def _int_list(text: str) -> list:
    try:
        items = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not items:
        raise argparse.ArgumentTypeError("empty n list")
    return items


def _resolve_seed(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("HURST_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"HURST_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurstbayes",
        description="Exact Bayesian inference for the Hurst parameter of "
                    "fractional Gaussian noise.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample a path and write it as CSV")
    sim.add_argument("--h", type=_hurst_arg, required=True,
                     help="Hurst parameter in (0, 1)")
    sim.add_argument("--n", type=int, required=True, help="number of increments")
    sim.add_argument("--seed", type=int, default=None,
                     help=f"RNG seed (default: HURST_SEED env, then {DEFAULT_SEED})")
    sim.add_argument("--out", required=True, help="output CSV path")

    est = sub.add_parser(
        "estimate",
        help="posterior summary for increments from a file or an inline simulation")
    est.add_argument("--in", dest="infile", default=None,
                     help="input CSV (exclusive with --h/--n)")
    est.add_argument("--h", type=_hurst_arg, default=None,
                     help="simulate inline with this Hurst parameter")
    est.add_argument("--n", type=int, default=None, help="inline simulation length")
    est.add_argument("--seed", type=int, default=None, help="inline simulation seed")
    est.add_argument("--grid-min", type=float, default=GRID_MIN)
    est.add_argument("--grid-max", type=float, default=GRID_MAX)
    est.add_argument("--grid-coarse", type=int, default=128,
                     help="coarse grid size (>= 64)")
    est.add_argument("--out", default=None,
                     help="write the JSON document here instead of stdout")

    ver = sub.add_parser("verify", help="run a named verification experiment")
    ver.add_argument("experiment", choices=_EXPERIMENTS,
                     help="experiment name: " + ", ".join(_EXPERIMENTS))
    ver.add_argument("--alpha", type=float, default=None)
    ver.add_argument("--beta", type=float, default=None)
    ver.add_argument("--h", type=_hurst_arg, default=None)
    ver.add_argument("--n", type=int, default=None)
    ver.add_argument("--nlist", type=_int_list, default=None,
                     help="comma-separated sizes, e.g. 512,2048,8192")
    ver.add_argument("--paths", type=int, default=None,
                     help="Monte Carlo repetitions (seeds/paths)")
    ver.add_argument("--seed", type=int, default=None, help="master seed")
    ver.add_argument("--threads", type=int, default=None,
                     help="cap worker threads for parallel cells")
    ver.add_argument("--tol-scale", type=float, default=1.0,
                     help="multiply every tolerance threshold by this factor")
    ver.add_argument("--allow-divergent", action="store_true",
                     help="record growth when the slln limit integral diverges")
    ver.add_argument("--out", default=None,
                     help="report file prefix (default report_<experiment>)")
    return parser


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    path = sample_fgn(args.h, args.n, seed=seed)
    write_path_csv(path, args.out)
    print(f"wrote {args.n} increments (h={args.h:.9g}, seed={seed}) to {args.out}")
    return 0


def _load_increments(args, parser):
    inline = args.h is not None or args.n is not None
    if args.infile and inline:
        parser.error("choose one input: --in or --h/--n")
    if args.infile:
        return read_path_csv(args.infile)
    if args.h is None or args.n is None:
        parser.error("either --in or both --h and --n are required")
    return sample_fgn(args.h, args.n, seed=_resolve_seed(args.seed))


def cmd_estimate(args, parser) -> int:
    path = _load_increments(args, parser)
    y = path.increments
    n = y.size
    flags = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        grid = posterior_grid(y, grid_min=args.grid_min, grid_max=args.grid_max,
                              coarse=args.grid_coarse)
        map_u = map_estimate(grid)
        mean, var = posterior_moments(grid)
        ci = credible_interval(grid, 0.95)
    flags.extend(sorted({str(w.message) for w in caught}))
    if n == 1:
        flags.append("n=1: posterior equals the prior")

    alpha_n = c_n = normal_sd = None
    if n >= 8:
        try:
            summary = solve_alpha_n(n, map_u)
            alpha_n, c_n = summary.alpha_n, summary.c_n
            normal_sd = summary.predicted_sd
        except (ArithmeticError, RuntimeError) as exc:
            flags.append(f"asymptotic summary unavailable: {exc}")
    else:
        flags.append("asymptotic summary needs n >= 8; skipped")

    doc = {"map": map_u, "mean": mean, "sd": math.sqrt(var),
           "ci95": [ci[0], ci[1]], "alpha_n": alpha_n, "c_n": c_n,
           "normal_approx_sd": normal_sd, "n": int(n), "flags": flags}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        for key in ("map", "mean", "sd"):
            print(f"{key}: {doc[key]:.9g}")
        print(f"ci95: [{ci[0]:.9g}, {ci[1]:.9g}]")
        print(f"details in {args.out}")
    else:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def cmd_verify(args) -> int:
    name = args.experiment
    seed = _resolve_seed(args.seed)
    scale = (harness.scaled_thresholds(args.tol_scale)
             if args.tol_scale != 1.0 else nullcontext())
    with scale:
        if name == "slln":
            if args.alpha is None or args.beta is None:
                raise ValueError("slln needs --alpha and --beta")
            report = harness.run_slln(
                args.alpha, args.beta,
                n_list=args.nlist or (512, 2048, 8192),
                seeds=args.paths if args.paths else 10,
                master_seed=seed, allow_divergent=args.allow_divergent,
                threads=args.threads)
        elif name == "determinant":
            report = harness.run_determinant(
                args.h if args.h is not None else 0.9,
                n_list=args.nlist or (512, 1024, 2048, 4096, 8192))
        elif name == "concentration":
            report = harness.run_concentration(
                args.h if args.h is not None else 0.7,
                n_list=args.nlist or (1024, 4096),
                n_paths=args.paths if args.paths else 20,
                master_seed=seed, threads=args.threads)
        elif name == "factorization":
            alphas = (args.alpha,) if args.alpha is not None else (0.2, -0.2, 0.3, -0.3)
            report = harness.run_factorization_suite(alphas)
        elif name == "inverse":
            report = harness.run_inverse_entries(
                args.alpha if args.alpha is not None else 0.3,
                n=args.n if args.n else 512, master_seed=seed)
        else:
            report = harness.run_moment_suite(
                trials=args.paths if args.paths else 20, master_seed=seed)
    prefix = args.out or f"report_{name}"
    harness.write_report_json(report, prefix + ".json")
    harness.write_report_csv(report, prefix + ".csv")
    print(f"{report.name}: {report.verdict} "
          f"({len(report.records)} records, {report.wall_time:.9g} s) "
          f"-> {prefix}.json, {prefix}.csv")
    return 0 if report.passed() else 1


def _raised_in_package(exc: BaseException) -> bool:
    """True when the innermost traceback frame lies in this package."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = os.path.abspath(tb.tb_frame.f_code.co_filename)
    return os.path.dirname(path) == _PACKAGE_DIR


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "estimate":
            return cmd_estimate(args, parser)
        return cmd_verify(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        if isinstance(exc, ValueError) and _raised_in_package(exc):
            # the package's domain and parse checks are usage errors by contract
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
