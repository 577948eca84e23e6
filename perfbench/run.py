"""hurstbayes benchmark: one workload run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated from
``--seed``; a fresh worker interpreter (``worker.py``) imports the package
from ``src/`` and issues the ops through ``hurstbayes.cli.main`` in a closed
loop with one client for ``--seconds``.  Every op's output is checked here,
after the worker has exited, against independent references.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median of
five fresh-interpreter set-ups (four set-up-only workers and the measuring
one), each from process start through ``import hurstbayes.cli`` and one
untimed warm-up op.  ``--trace 1`` runs the same ops untraced and then
traced, in two fresh workers of half the run's time each, and reports
per-layer metrics per op plus the tracing overhead.

End-to-end times are host-speed-normalized seconds: each op's wall time is
multiplied by ``REF_NOMINAL_S`` over the time of the reference chunk the
worker ran just before it, and each set-up's by the same ratio taken from
the chunks its worker ran right after it.  The host's speed drifts by tens of
percent over minutes, which the reference follows and a change to the
program does not move; the raw wall-time figures are kept in the result file
beside the normalized ones.

The full record, with the machine block and every failure, is written to
``perfbench/out/<workload>-seed<N>-trace<T>.json``; the last line of standard
output is the JSON summary.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from tracing import LAYERS
from worker import REF_NOMINAL_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
# slack on top of the run's own time and deadlines before a worker is
# treated as hung and killed
WORKER_SLACK_S = 120.0

END_TO_END = {"op_s_p50": "s", "ops_per_s": "1/s", "success_rate": "ratio",
              "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# aggregation (pure; covered by test_perfbench.py)

def aggregate(ops: list, deadline_s: float, rotation: int,
              key: str = "wall_s") -> dict:
    """End-to-end figures from per-op records with ``ok`` and a time under
    ``key`` (``wall_s``, or ``norm_s`` from ``normalize``).

    A failed op enters the latency sample at the deadline, since a failure
    misses every latency limit.  Throughput is successful ops per second of
    one rotation (one pass over the workload's op kinds), as the median over
    the run's rotations, so a burst of host noise moves it no more than it
    moves the latency median.
    """
    attempted = len(ops)
    good = sum(1 for o in ops if o["ok"])
    samples = sorted(o[key] if o["ok"] else deadline_s for o in ops)
    rates = []
    for i in range(0, attempted, rotation):
        chunk = ops[i:i + rotation]
        wall = sum(o[key] for o in chunk)
        rates.append(sum(1 for o in chunk if o["ok"]) / wall if wall > 0 else 0.0)
    out = {"attempted": attempted, "failed": attempted - good,
           "samples": attempted, "rotations": len(rates),
           "op_s_p50": statistics.median(samples),
           "ops_per_s": statistics.median(rates),
           "success_rate": good / attempted,
           "error_rate": (attempted - good) / attempted}
    # a mixed workload's median falls on its heaviest kind; the median per
    # kind shows a change to the others
    by_kind = defaultdict(list)
    for o in ops:
        by_kind[o.get("kind", "op")].append(o[key] if o["ok"] else deadline_s)
    out["op_s_p50_by_kind"] = {k: statistics.median(v) for k, v in by_kind.items()}
    # highest percentile with at least ten samples beyond it
    if attempted >= 20:
        pct = int(100 * (1 - 10 / attempted))
        out["tail_percentile"] = pct
        out["op_s_tail"] = samples[min(attempted - 1, int(attempted * pct / 100))]
    return out


def normalize(wall_s: float, ref_s: float) -> float:
    """Wall seconds scaled to a host that runs the reference chunk in
    ``REF_NOMINAL_S``."""
    return wall_s * REF_NOMINAL_S / ref_s


def per_layer(traced: list, counters: dict) -> dict:
    """Per-op means of the traced worker's layer totals and counters."""
    n = len(traced)
    calls, self_s, named = Counter(), defaultdict(float), defaultdict(float)
    hits, lookups = Counter(), Counter()
    for rec in traced:
        for layer, (c, s) in rec["layers"].items():
            calls[layer] += c
            self_s[layer] += s
        for name, dur in rec["named_s"].items():
            named[name] += dur
        for cache, (h, m) in rec["cache_delta"].items():
            hits[cache] += h
            lookups[cache] += h + m
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / n
        out[f"{layer}.self_s"] = self_s[layer] / n
    for key in ("toeplitz.levinson_passes", "toeplitz.levinson_n2",
                "toeplitz.dense_fallbacks", "symbols.quad_points",
                "posterior.kappa_evals", "posterior.nodes_evaluated",
                "posterior.nodes_dropped"):
        out[key] = counters.get(key, 0) / n
    for cache in ("symbols.norming_cache", "posterior.ratio_extrema_cache"):
        out[f"{cache}_hit_ratio"] = (hits[cache] / lookups[cache]
                                     if lookups[cache] else 0.0)
    out["posterior.alpha_solve_s"] = named["posterior.solve_alpha_n"] / n
    out["harness.exponent_peak_s"] = named["harness.exponent_peak"] / n
    out["harness.cell_busy_s"] = named["harness.cell"] / n
    pool = named["harness.pool_thread_s"]
    out["harness.parallel_efficiency"] = named["harness.cell"] / pool if pool else 0.0
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_efficiency")):
        return "ratio"
    return "count"


def trace_overhead(untraced: list, traced: list) -> float:
    """Per-op mean of traced minus untraced wall time over the ops both
    workers ran (the same inputs in the same order)."""
    k = min(len(untraced), len(traced))
    return (sum(o["wall_s"] for o in traced[:k])
            - sum(o["wall_s"] for o in untraced[:k])) / k


# ---------------------------------------------------------------------------
# processes

def run_worker(plan: dict, plan_path: Path, results_path: Path, *extra) -> tuple:
    """Start a worker, time it to READY, wait for it; (setup_s, results)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path),
           str(results_path), *extra]
    limit = (plan["seconds"] + (plan["rotation"] + 1) * plan["deadline_s"]
             + WORKER_SLACK_S)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return setup_s, json.loads(results_path.read_text())


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hurstbayes").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# checks

def check_ops(workload, records: list, inputs: dict) -> list:
    """Mark each record ``ok``; an op fails on a nonzero exit, an exception,
    the deadline, or a wrong output."""
    reference = {}
    for rec in records:
        rec["ok"] = False
        if rec["status"] != "ok":
            continue
        reason = _safe_check(workload, rec, inputs)
        if not reason and workload.repeat_identical:
            reason = _same_as_repeats(rec, reference)
        if reason:
            rec.update(status="check", detail=reason)
        else:
            rec["ok"] = True
    return records


def _safe_check(workload, rec, inputs) -> str:
    try:
        return workload.check(rec, inputs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _same_as_repeats(rec: dict, reference: dict) -> str:
    """Reports of one command must be bitwise identical across repeats,
    ``wall_time`` aside (the harness's reproducibility contract)."""
    doc = json.loads(Path(rec["out"] + ".json").read_text())
    doc.pop("wall_time", None)
    key = json.dumps(rec["argv"][:-1])  # the last argument is the output stem
    body = json.dumps(doc, sort_keys=True)
    if reference.setdefault(key, body) != body:
        return "report differs from an earlier repeat of the same command"
    return ""


def summarize_failures(records: list) -> dict:
    by_status = Counter(r["status"] for r in records)
    first = [{"index": r["index"], "key": r["key"], "status": r["status"],
              "detail": r["detail"], "output_tail": r["output_tail"]}
             for r in records if not r["ok"]][:5]
    return {"by_status": dict(by_status), "first_failures": first}


# ---------------------------------------------------------------------------

def measure(workload, seed: int, seconds: float, trace: bool, run_dir: Path):
    ops, warmup, inputs = workload.build(run_dir, seed)
    # a traced run splits its time between the untraced and traced workers
    plan = {"run_dir": str(run_dir), "ops": ops, "warmup": warmup,
            "rotation": workload.rotation, "deadline_s": workload.deadline_s,
            "seconds": seconds / 2 if trace else seconds}
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    result = {"workload": workload.name, "why": workload.why, "seed": seed,
              "seconds": seconds, "trace": int(trace),
              "deadline_s": workload.deadline_s}

    if not trace:
        runs = [run_worker(plan, plan_path, run_dir / f"setup{i}.json",
                           "--setup-only")
                for i in range(SETUP_SAMPLES - 1)]
        runs.append(run_worker(plan, plan_path, run_dir / "main.json"))
        setups = [(s, statistics.median(r["setup_ref_s"])) for s, r in runs]
        res = runs[-1][1]
        warmups = [r["warmup"] for _, r in runs]
        records = check_ops(workload, res["ops"], inputs)
        for rec in records:
            rec["norm_s"] = normalize(rec["wall_s"], rec["ref_s"])
        agg = aggregate(records, workload.deadline_s, workload.rotation, "norm_s")
        raw = aggregate(records, workload.deadline_s, workload.rotation)
        metrics = {"op_s_p50": agg["op_s_p50"], "ops_per_s": agg["ops_per_s"],
                   "success_rate": agg["success_rate"],
                   "setup_s": statistics.median(normalize(s, r) for s, r in setups),
                   "peak_rss_mb": res["peak_rss_mb"]}
        result.update(end_to_end=dict(metrics, error_rate=agg["error_rate"]),
                      raw_wall=dict(op_s_p50=raw["op_s_p50"],
                                    ops_per_s=raw["ops_per_s"],
                                    setup_s=statistics.median(s for s, _ in setups),
                                    op_s_p50_by_kind=raw["op_s_p50_by_kind"]),
                      ops=agg, setup_samples_s=[s for s, _ in setups],
                      setup_ref_s=[r for _, r in setups],
                      op_wall_s=[r["wall_s"] for r in records],
                      op_ref_s=[r["ref_s"] for r in records])
        attempted, failed = agg["attempted"], agg["failed"]
    else:
        _, plain = run_worker(plan, plan_path, run_dir / "untraced.json")
        plain_records = check_ops(workload, plain["ops"], inputs)
        _, res = run_worker(plan, plan_path, run_dir / "traced.json", "--trace")
        records = check_ops(workload, res["ops"], inputs)
        metrics = per_layer(records, res["counters"])
        metrics["trace.overhead_s"] = trace_overhead(plain_records, records)
        agg = aggregate(records, workload.deadline_s, workload.rotation)
        result.update(per_layer=metrics, ops=agg,
                      untraced_ops=aggregate(plain_records, workload.deadline_s,
                                                   workload.rotation),
                      counters_note="toeplitz.levinson_n2 is computed "
                                    "(sum of n^2 over passes), not measured")
        attempted = agg["attempted"] + len(plain_records)
        failed = agg["failed"] + sum(1 for r in plain_records if not r["ok"])
        records = plain_records + records
        warmups = [plain["warmup"], res["warmup"]]

    result["failures"] = summarize_failures(records)
    result["warmup"] = res["warmup"]
    # the warm-up op's output is not kept, but a verify warm-up exits 0 only
    # on a passing verdict, so a failed warm-up is a wrong output too
    warmups_ok = all(w["status"] == "ok" for w in warmups)
    result["warmups_ok"] = warmups_ok
    result["machine"] = dict(
        res["machine"], git_commit=git_commit(), source_sha256=source_digest(),
        jit_compile_in_setup=res["warmup"]["jit_compile_in_setup"],
        setup_note="setup_s covers interpreter start, import hurstbayes.cli "
                   "and one warm-up op; jit_compile_in_setup says whether "
                   "that warm-up compiled (or loaded) the numba kernels")
    units = {k: layer_unit(k) for k in metrics} if trace else END_TO_END
    summary = {"correct": failed == 0 and warmups_ok, "attempted": attempted,
               "failed": failed,
               "metrics": {k: {"value": v, "unit": units[k]}
                           for k, v in metrics.items()}}
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hurstbayes benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hurstbayes" / "cli.py").is_file():
        print(f"error: no hurstbayes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{label}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        result, summary = measure(workload, args.seed, args.seconds,
                                  bool(args.trace), run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["summary"] = summary
    (OUT / f"{label}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
