"""Tests of the benchmark's own logic: deadline failure accounting, span
self-time arithmetic and metric aggregation.

    python3 -m pytest perfbench/test_perfbench.py
"""
import threading
import time

import pytest

from run import aggregate, normalize, per_layer, trace_overhead
from tracing import Span, Tracer, covered_length, layer_totals
from worker import REF_NOMINAL_S, call_with_deadline


# ---------------------------------------------------------------------------
# deadline

def test_deadline_interrupts_and_is_reported():
    t0 = time.perf_counter()
    status, detail = call_with_deadline(lambda _: time.sleep(5) or 0, None, 0.2)
    assert status == "deadline"
    assert "0.2" in detail
    assert time.perf_counter() - t0 < 2.0


def test_deadline_is_not_swallowed_by_except_exception():
    def stubborn(_):
        try:
            time.sleep(5)
        except Exception:  # the CLI boundary does this
            return 1
        return 0

    assert call_with_deadline(stubborn, None, 0.2)[0] == "deadline"


def test_other_outcomes_and_timer_cleared():
    assert call_with_deadline(lambda _: 0, None, 0.2) == ("ok", "")
    assert call_with_deadline(lambda _: 2, None, 0.2)[0] == "exit"

    def boom(_):
        raise RuntimeError("x")
    assert call_with_deadline(boom, None, 0.2) == ("raised", "RuntimeError: x")
    time.sleep(0.3)  # a leftover alarm would fire here and fail the test


def test_failed_ops_enter_at_the_deadline():
    ops = [{"wall_s": 0.001, "ok": False}] * 3 + [{"wall_s": 1.0, "ok": True}] * 2
    agg = aggregate(ops, deadline_s=30.0, rotation=5)
    assert agg["op_s_p50"] == 30.0
    assert agg["failed"] == 3 and agg["attempted"] == 5
    assert agg["error_rate"] == pytest.approx(0.6)
    assert agg["success_rate"] == pytest.approx(0.4)
    # throughput counts successes over the time actually spent in ops
    assert agg["ops_per_s"] == pytest.approx(2 / 2.003)


# ---------------------------------------------------------------------------
# self time

def _span(sid, parent, layer, start, end):
    return Span(sid, parent, layer, f"{layer}.f", start, end, 1)


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered_length([(1, 9), (2, 3)], 0, 10) == 8
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_children_on_any_thread():
    spans = [
        _span(1, None, "cli", 0.0, 10.0),
        _span(2, 1, "posterior", 1.0, 4.0),
        _span(3, 2, "toeplitz", 2.0, 3.0),
        # a pool cell on another thread, overlapping the first child
        _span(4, 1, "harness", 3.0, 6.0),
    ]
    totals = layer_totals(spans)
    assert totals["cli"] == (1, pytest.approx(10.0 - 5.0))
    assert totals["posterior"] == (1, pytest.approx(2.0))
    assert totals["toeplitz"] == (1, pytest.approx(1.0))
    assert totals["harness"] == (1, pytest.approx(3.0))
    assert sum(s for _, s in totals.values()) == pytest.approx(11.0)


def test_tracer_parents_across_threads():
    tracer = Tracer()
    with tracer.span("harness", "harness._map_cells", threads=2) as pool:
        def cell():
            with tracer.span("harness", "harness.cell", parent=pool):
                with tracer.span("toeplitz", "toeplitz.x"):
                    time.sleep(0.01)
        workers = [threading.Thread(target=cell) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=5)
        assert not any(w.is_alive() for w in workers)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    pool_span = by_name["harness._map_cells"][0]
    assert all(c.parent == pool_span.id for c in by_name["harness.cell"])
    cell_ids = {c.id for c in by_name["harness.cell"]}
    assert all(t.parent in cell_ids for t in by_name["toeplitz.x"])


# ---------------------------------------------------------------------------
# aggregation

def test_aggregate_median_and_tail():
    ops = [{"wall_s": float(i), "ok": True} for i in range(1, 31)]
    agg = aggregate(ops, deadline_s=100.0, rotation=1)
    assert agg["op_s_p50"] == 15.5
    assert agg["tail_percentile"] == 66
    assert agg["op_s_tail"] == 20.0
    assert agg["ops_per_s"] == pytest.approx((1 / 15 + 1 / 16) / 2)


def test_median_per_kind():
    walls = [("moments", 0.6), ("moments", 0.8), ("moments", 0.7), ("inverse", 0.02)]
    ops = [{"kind": k, "wall_s": w, "ok": True} for k, w in walls]
    ops.append({"kind": "inverse", "wall_s": 0.01, "ok": False})
    agg = aggregate(ops, deadline_s=30.0, rotation=5)
    assert agg["op_s_p50"] == 0.7
    assert agg["op_s_p50_by_kind"] == {"moments": 0.7, "inverse": 15.01}


def test_throughput_is_the_median_rotation():
    # three rotations of two ops; the middle one is a burst of host noise
    walls = [0.5, 0.5, 5.0, 5.0, 1.0, 1.0]
    ops = [{"wall_s": w, "ok": True} for w in walls]
    agg = aggregate(ops, deadline_s=100.0, rotation=2)
    assert agg["rotations"] == 3
    assert agg["ops_per_s"] == pytest.approx(1.0)


def test_normalized_times_cancel_host_speed():
    # the same op on a host running at half speed: wall and reference both
    # double, the normalized time does not move
    fast = {"wall_s": 1.0, "ref_s": REF_NOMINAL_S, "ok": True}
    slow = {"wall_s": 2.0, "ref_s": 2 * REF_NOMINAL_S, "ok": True}
    for rec in (fast, slow):
        rec["norm_s"] = normalize(rec["wall_s"], rec["ref_s"])
    assert fast["norm_s"] == pytest.approx(1.0)
    assert slow["norm_s"] == pytest.approx(1.0)
    agg = aggregate([fast, slow], deadline_s=30.0, rotation=2, key="norm_s")
    assert agg["op_s_p50"] == pytest.approx(1.0)
    assert agg["ops_per_s"] == pytest.approx(1.0)
    assert aggregate([fast, slow], 30.0, 2)["op_s_p50"] == pytest.approx(1.5)


def test_per_layer_means_and_ratios():
    rec = {"layers": {"cli": (1, 0.5), "toeplitz": (4, 2.0)},
           "named_s": {"harness.cell": 3.0, "harness.pool_thread_s": 4.0,
                       "posterior.solve_alpha_n": 1.0},
           "cache_delta": {"symbols.norming_cache": (3, 1),
                           "posterior.ratio_extrema_cache": (0, 0)}}
    out = per_layer([rec, rec], {"toeplitz.levinson_passes": 10})
    assert out["toeplitz.calls"] == 4 and out["toeplitz.self_s"] == 2.0
    assert out["moments.calls"] == 0
    assert out["toeplitz.levinson_passes"] == 5
    assert out["symbols.norming_cache_hit_ratio"] == 0.75
    assert out["posterior.ratio_extrema_cache_hit_ratio"] == 0.0
    assert out["harness.parallel_efficiency"] == 0.75
    assert out["posterior.alpha_solve_s"] == 1.0


def test_trace_overhead_uses_common_prefix():
    plain = [{"wall_s": 1.0}] * 4
    traced = [{"wall_s": 1.5}] * 2
    assert trace_overhead(plain, traced) == pytest.approx(0.5)
