"""One benchmark process: a fresh interpreter that imports ``hurstbayes``
from the checkout's ``src/``, runs one untimed warm-up op, prints ``READY``,
then issues the planned ops through ``hurstbayes.cli.main`` in a closed loop
with one client until the run's time is up.

Each op runs under a deadline enforced from here with ``signal.setitimer``;
the alarm raises an exception the CLI's own ``except Exception`` boundary
cannot swallow.  Before each op, outside its timed region, the worker times
one fixed reference chunk (``reference_chunk``), and three more right after
``READY``: ``run.py`` scales each wall time by the host speed the chunk saw,
since the shared host's speed drifts by tens of percent over minutes.
Per-op results (status, wall time, reference time, output stem) and, in a
traced run, per-layer totals go to a JSON file for ``run.py``.

Usage: python3 perfbench/worker.py PLAN RESULTS [--setup-only] [--trace]
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
# the reference chunk: half a fixed pure-Python integer loop, half fixed
# numpy power and log passes over a small array, and the time it takes at
# nominal host speed (its median in benchmark runs on a 2-CPU VM, so that
# normalized times there read close to wall times).  Interpreter work
# followed the host drift of verify-moments best and vector math that of
# verify-factorization; the mix followed both.  The array is small so the
# chunk adds nothing to peak RSS.
REF_LOOP = 500_000
REF_ARRAY_PASSES = 56
REF_NOMINAL_S = 0.07
SETUP_REF_CHUNKS = 3


def reference_chunk() -> float:
    """Wall seconds of one reference chunk."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    x = np.linspace(1.0, 50.0, 1 << 16)
    for _ in range(REF_ARRAY_PASSES):
        acc += float((x ** -1.3 * np.log(x)).sum())
    return time.perf_counter() - t0


class DeadlineExceeded(BaseException):
    """Raised by the alarm; a BaseException so no ``except Exception`` in
    the program under test can turn it into an ordinary failure."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def call_with_deadline(fn, arg, deadline_s: float):
    """Run ``fn(arg)``; return (status, detail) with status one of ``ok``,
    ``exit`` (nonzero return), ``raised`` or ``deadline``."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            rc = fn(arg)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except DeadlineExceeded:
        return "deadline", f"passed the {deadline_s:g} s deadline"
    except Exception as exc:  # noqa: BLE001 - an op failure is data here
        return "raised", f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    if rc != 0:
        return "exit", f"exit code {rc}"
    return "ok", ""


def jit_signatures() -> int:
    """Number of compiled numba kernel signatures; 0 without numba."""
    from hurstbayes import _levinson
    if not _levinson.HAVE_JIT:
        return 0
    return len(_levinson._durbin_jit.signatures) + len(_levinson._solve_jit.signatures)


def machine_block(hurstbayes) -> dict:
    import numpy
    import scipy
    from hurstbayes import _levinson

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "kernel_backend": "numba" if _levinson.HAVE_JIT else "numpy",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": version("numba"),
        "platform": platform.platform(),
        "package_file": hurstbayes.__file__,
    }


def run_ops(cli, plan: dict, tracer=None) -> list:
    run_dir = Path(plan["run_dir"])
    ops, rotation, deadline = plan["ops"], plan["rotation"], plan["deadline_s"]
    seconds = plan["seconds"]
    main = cli.main if tracer is None else tracer.wrap(cli.main, "cli", "main")
    records = []
    start = time.perf_counter()
    i = 0
    while i % rotation or time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        ref = reference_chunk()
        stem = run_dir / f"op{i}"
        argv = [a.replace("{out}", str(stem)) for a in op["argv"]]
        if tracer is not None:
            caches = tracing.cache_snapshot()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            status, detail = call_with_deadline(main, argv, deadline)
            wall = time.perf_counter() - t0
        rec = {"index": i, "key": op["key"], "kind": op["kind"], "argv": argv, "out": str(stem),
               "status": status, "wall_s": wall, "ref_s": ref,
               "detail": detail, "output_tail": sink.getvalue()[-400:]}
        if tracer is not None:
            # no thread of the op outlives it, so its spans are complete
            spans = tracer.spans[:]
            tracer.spans.clear()
            rec["layers"] = tracing.layer_totals(spans)
            rec["named_s"] = tracing.named_durations(spans)
            after = tracing.cache_snapshot()
            rec["cache_delta"] = {k: (after[k][0] - caches[k][0],
                                      after[k][1] - caches[k][1])
                                  for k in after}
        records.append(rec)
        i += 1
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("results")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hurstbayes
    import hurstbayes.cli as cli
    if Path(hurstbayes.__file__).resolve().parent.parent != src.resolve():
        print(f"hurstbayes imported from {hurstbayes.__file__}, not {src}",
              file=sys.stderr)
        return 3
    compiled = jit_signatures()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        warm_status, warm_detail = call_with_deadline(
            cli.main, plan["warmup"], plan["deadline_s"])
        warm_s = time.perf_counter() - t0
    print("READY", flush=True)
    out = {"warmup": {"status": warm_status, "detail": warm_detail,
                      "wall_s": warm_s,
                      "jit_compile_in_setup": jit_signatures() > compiled},
           "setup_ref_s": [reference_chunk() for _ in range(SETUP_REF_CHUNKS)]}
    if not args.setup_only:
        tracer = saved = None
        if args.trace:
            tracer = tracing.Tracer()
            saved = tracing.install(tracer)
        try:
            out["ops"] = run_ops(cli, plan, tracer)
        finally:
            if saved is not None:
                tracing.uninstall(saved)
        if tracer is not None:
            out["counters"] = dict(tracer.counters)
        out["machine"] = machine_block(hurstbayes)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.results).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
