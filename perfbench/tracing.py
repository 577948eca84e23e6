"""Spans and counters for the traced run.

Wrappers are installed from outside the package, on the module attributes
through which callers look names up (``hurstbayes.posterior.logdet_and_quad``
is what the posterior sweep calls, ``hurstbayes.symbols.adaptive_simpson``
what the ratio integrals call), and removed again after the run.  They pass
arguments, results and exceptions through unchanged.

A span records its layer, name, start, end and the span that caused it.  Spans started by the verification harness' thread pool name the span
of the ``_map_cells`` call as their parent, so a layer's self time (its
span's duration minus the part its children cover, children on any thread)
does not count time spent waiting for the pool.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple, Optional

LAYERS = ("cli", "fgn", "symbols", "toeplitz", "posterior", "harness",
          "factorization", "moments")

# (module, attribute, layer): every place a layer's public function is
# looked up by a caller in another layer, plus the internals that carry a
# per-layer count
LOOKUPS = (
    ("hurstbayes.cli", "posterior_grid", "posterior"),
    ("hurstbayes.cli", "map_estimate", "posterior"),
    ("hurstbayes.cli", "posterior_moments", "posterior"),
    ("hurstbayes.cli", "credible_interval", "posterior"),
    ("hurstbayes.cli", "solve_alpha_n", "posterior"),
    ("hurstbayes.cli", "sample_fgn", "fgn"),
    ("hurstbayes.cli", "read_path_csv", "fgn"),
    ("hurstbayes.cli", "write_path_csv", "fgn"),
    # the CLI reaches the harness as attributes of the module object
    ("hurstbayes.harness", "run_slln", "harness"),
    ("hurstbayes.harness", "run_determinant", "harness"),
    ("hurstbayes.harness", "run_concentration", "harness"),
    ("hurstbayes.harness", "run_factorization_suite", "harness"),
    ("hurstbayes.harness", "run_inverse_entries", "harness"),
    ("hurstbayes.harness", "run_moment_suite", "harness"),
    ("hurstbayes.harness", "write_report_json", "harness"),
    ("hurstbayes.harness", "write_report_csv", "harness"),
    ("hurstbayes.harness", "exponent_peak", "harness"),
    ("hurstbayes.harness", "q_coefficient_check", "factorization"),
    ("hurstbayes.harness", "r_coefficient_decay", "factorization"),
    ("hurstbayes.harness", "w_asymptotics", "factorization"),
    ("hurstbayes.harness", "trace_powers", "moments"),
    ("hurstbayes.harness", "theta_recursion", "moments"),
    ("hurstbayes.harness", "theta_isserlis_oracle", "moments"),
    ("hurstbayes.harness", "psi_direct", "moments"),
    ("hurstbayes.harness", "psi_composition_representation", "moments"),
    ("hurstbayes.harness", "sample_fgn", "fgn"),
    ("hurstbayes.harness", "replicate_rng", "fgn"),
    ("hurstbayes.harness", "posterior_grid", "posterior"),
    ("hurstbayes.harness", "map_estimate", "posterior"),
    ("hurstbayes.harness", "posterior_moments", "posterior"),
    ("hurstbayes.harness", "solve_alpha_n", "posterior"),
    ("hurstbayes.harness", "autocov_seq", "symbols"),
    ("hurstbayes.harness", "f_ratio_derivatives", "symbols"),
    ("hurstbayes.harness", "f_ratio_integral", "symbols"),
    ("hurstbayes.harness", "lattice_sum_regular", "symbols"),
    ("hurstbayes.harness", "norming_constant", "symbols"),
    ("hurstbayes.harness", "adaptive_simpson", "symbols"),
    ("hurstbayes.harness", "build_system", "toeplitz"),
    ("hurstbayes.harness", "quad_form", "toeplitz"),
    ("hurstbayes.harness", "inverse_kernel_prediction", "toeplitz"),
    ("hurstbayes.posterior", "logdet_and_quad", "toeplitz"),
    ("hurstbayes.posterior", "build_system", "toeplitz"),
    ("hurstbayes.posterior", "whittle_quad_form", "toeplitz"),
    ("hurstbayes.posterior", "autocov_seq", "symbols"),
    ("hurstbayes.posterior", "f_ratio_derivatives", "symbols"),
    ("hurstbayes.posterior", "lattice_sum_regular", "symbols"),
    ("hurstbayes.posterior", "norming_constant", "symbols"),
    ("hurstbayes.posterior", "_log_kernel_nodes", "posterior"),
    ("hurstbayes.posterior", "kappa_value", "posterior"),
    ("hurstbayes.posterior", "kappa_prime", "posterior"),
    ("hurstbayes.posterior", "kappa_second", "posterior"),
    ("hurstbayes.toeplitz", "autocov_seq", "symbols"),
    ("hurstbayes.toeplitz", "sinai_density", "symbols"),
    ("hurstbayes.toeplitz", "_dense_factor", "toeplitz"),
    ("hurstbayes._levinson", "durbin", "toeplitz"),
    ("hurstbayes._levinson", "levinson_solve", "toeplitz"),
    ("hurstbayes.factorization", "lattice_sum_regular", "symbols"),
    ("hurstbayes.factorization", "norming_constant", "symbols"),
    ("hurstbayes.factorization", "sinai_density", "symbols"),
    ("hurstbayes.fgn", "autocov_seq", "symbols"),
    ("hurstbayes.symbols", "adaptive_simpson", "symbols"),
)

# lru caches whose cache_info() deltas are reported as hit ratios
CACHES = {
    "symbols.norming_cache": ("hurstbayes.symbols", "_norming_quadrature"),
    "posterior.ratio_extrema_cache": ("hurstbayes.posterior", "_ratio_extrema"),
}


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    layer: str
    name: str
    start: float
    end: float
    threads: int  # pool width, for harness._map_cells spans; else 1


_INHERIT = object()


class Tracer:
    """Thread-safe in-memory span and counter store."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str, name: str, parent=_INHERIT, threads: int = 1):
        stack = self._stack()
        if parent is _INHERIT:
            parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, layer, name, start, end,
                                       threads))

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def wrap(self, fn, layer: str, name: str):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, f"{layer}.{name}"):
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
        return traced


# ---------------------------------------------------------------------------
# hooks: wrappers that also count work

def _levinson(tracer, fn, args, kwargs):
    n = len(args[0])
    tracer.count("toeplitz.levinson_passes")
    tracer.count("toeplitz.levinson_n2", n * n)
    result = fn(*args, **kwargs)
    if result[2] != 0:
        tracer.count("toeplitz.dense_fallbacks")
    return result


def _simpson(tracer, fn, args, kwargs):
    f = args[0]

    def counted(x):
        tracer.count("symbols.quad_points", len(x))
        return f(x)
    return fn(counted, *args[1:], **kwargs)


def _kernel_nodes(tracer, fn, args, kwargs):
    logk, ok = fn(*args, **kwargs)
    tracer.count("posterior.nodes_evaluated", int(ok.sum()))
    tracer.count("posterior.nodes_dropped", int(ok.size - ok.sum()))
    return logk, ok


def _kappa(tracer, fn, args, kwargs):
    tracer.count("posterior.kappa_evals")
    return fn(*args, **kwargs)


_HOOKS = {
    "durbin": _levinson,
    "levinson_solve": _levinson,
    "adaptive_simpson": _simpson,
    "_log_kernel_nodes": _kernel_nodes,
    "kappa_value": _kappa,
    "kappa_prime": _kappa,
    "kappa_second": _kappa,
}


def _map_cells_wrapper(tracer, fn):
    @functools.wraps(fn)
    def traced(cell_fn, cells, threads):
        width = threads if threads is not None and threads > 1 else 1
        with tracer.span("harness", "harness._map_cells", threads=width) as sid:
            def cell(c):
                with tracer.span("harness", "harness.cell", parent=sid):
                    return cell_fn(c)
            return fn(cell, cells, threads)
    return traced


def install(tracer: Tracer) -> list:
    """Wrap every lookup; returns what :func:`uninstall` needs."""
    saved = []
    for mod_name, attr, layer in LOOKUPS:
        mod = importlib.import_module(mod_name)
        original = getattr(mod, attr)
        saved.append((mod, attr, original))
        setattr(mod, attr, tracer.wrap(original, layer, attr))
    harness = importlib.import_module("hurstbayes.harness")
    saved.append((harness, "_map_cells", harness._map_cells))
    harness._map_cells = _map_cells_wrapper(tracer, harness._map_cells)
    return saved


def uninstall(saved: list) -> None:
    for mod, attr, original in reversed(saved):
        setattr(mod, attr, original)


def cache_snapshot() -> dict:
    out = {}
    for key, (mod_name, attr) in CACHES.items():
        info = getattr(importlib.import_module(mod_name), attr).cache_info()
        out[key] = (info.hits, info.misses)
    return out


# ---------------------------------------------------------------------------
# arithmetic on recorded spans

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_totals(spans) -> dict:
    """Per layer: number of spans and summed self time."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    calls, self_s = Counter(), defaultdict(float)
    for s in spans:
        calls[s.layer] += 1
        self_s[s.layer] += (s.end - s.start) - covered_length(
            children.get(s.id, ()), s.start, s.end)
    return {layer: (calls[layer], self_s[layer]) for layer in calls}


def named_durations(spans) -> dict:
    """Summed duration per span name, plus the pool's thread-seconds."""
    out = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start
        if s.name == "harness._map_cells":
            out["harness.pool_thread_s"] += s.threads * (s.end - s.start)
    return out
