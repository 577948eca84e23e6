import io
import json
import math

import mpmath as mp
import numpy as np
import pytest

import oracles
from hurstbayes import fgn, harness
from hurstbayes.harness import (DEFAULT_MASTER_SEED, INFO, THRESHOLDS,
                                ExperimentRecord, ExperimentReport,
                                _map_cells, read_report_json,
                                run_concentration, run_determinant,
                                run_factorization_suite, run_inverse_entries,
                                run_moment_suite, run_slln, scaled_thresholds,
                                szego_constant, write_report_csv,
                                write_report_json)
from hurstbayes.fgn import replicate_rng, sample_fgn
from hurstbayes.moments import (QuadFormInstance, psi_composition_representation,
                                psi_direct, theta_isserlis_oracle, theta_recursion,
                                trace_powers)
from hurstbayes.posterior import MAX_POSTERIOR_N
from hurstbayes.symbols import autocov_seq, f_ratio_integral
from hurstbayes.toeplitz import build_system, quad_form


def test_record_coerces_to_plain_python():
    r = ExperimentRecord(np.int64(8), np.int32(1), np.float64(0.5),
                         np.float64(1.0), np.float64(0.1), np.True_, "x")
    assert type(r.n) is int and type(r.seed) is int
    assert type(r.statistic) is float and type(r.target) is float
    assert type(r.tol) is float and type(r.passed) is bool


def test_report_verdict_validation():
    rec = ExperimentRecord(1, None, 0.0, 0.0, 1.0, True, "x")
    rep = ExperimentReport("demo", {}, (rec,), "pass", 0.0)
    assert rep.passed()
    assert not ExperimentReport("demo", {}, (), "fail", 0.0).passed()
    with pytest.raises(ValueError):
        ExperimentReport("demo", {}, (), "maybe", 0.0)


def test_scaled_thresholds_scales_and_restores():
    before = dict(THRESHOLDS)
    with scaled_thresholds(2.0):
        assert THRESHOLDS["slln_rel_tol"] == pytest.approx(
            2.0 * before["slln_rel_tol"])
        assert THRESHOLDS["fact_identity_tol"] == pytest.approx(
            2.0 * before["fact_identity_tol"])
        # fractions and bands are not tolerances
        assert THRESHOLDS["slln_pass_fraction"] == before["slln_pass_fraction"]
        assert THRESHOLDS["conc_sd_band"] == before["conc_sd_band"]
    assert THRESHOLDS == before
    with pytest.raises(ValueError):
        with scaled_thresholds(0.0):
            pass
    # restoration survives exceptions raised inside the block
    with pytest.raises(RuntimeError):
        with scaled_thresholds(3.0):
            raise RuntimeError("boom")
    assert THRESHOLDS == before


def test_scaled_thresholds_are_per_thread():
    # verifications at different scales run side by side, more threads than
    # cores and a short switch interval: each, and each pooled cell it
    # starts, reads its own tolerances, and the table is never written
    import sys
    import threading
    base = dict(THRESHOLDS)
    scales = (0.5, 2.0, 3.0, 5.0)
    barrier = threading.Barrier(len(scales), timeout=30)
    seen = {}

    def verify(scale):
        with scaled_thresholds(scale):
            barrier.wait()
            direct = [THRESHOLDS["slln_rel_tol"] for _ in range(200)]
            pooled = _map_cells(lambda _: THRESHOLDS["fact_identity_tol"],
                                range(8), threads=2)
            barrier.wait()
            seen[scale] = (set(direct), set(pooled),
                           THRESHOLDS["slln_pass_fraction"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=verify, args=(s,)) for s in scales]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for scale in scales:
        assert seen[scale] == ({scale * base["slln_rel_tol"]},
                               {scale * base["fact_identity_tol"]},
                               base["slln_pass_fraction"])
    assert dict(THRESHOLDS) == base
    assert harness._BASE_THRESHOLDS == base
    with pytest.raises(TypeError):
        THRESHOLDS["slln_rel_tol"] = 1.0


def test_map_cells_preserves_order():
    assert _map_cells(lambda x: x * x, [3, 1, 2], None) == [9, 1, 4]
    assert _map_cells(lambda x: x * x, [3, 1, 2], 2) == [9, 1, 4]


def test_szego_constant_closed_cases():
    assert abs(szego_constant(0.5)) < 1e-12
    for h in (0.7, 0.25):
        mp.mp.dps = 20
        want = float(mp.quad(lambda t: mp.log(oracles.density_oracle(h, t)),
                             [0, mp.mpf("0.01"), mp.pi]) / mp.pi)
        assert szego_constant(h) == pytest.approx(want, abs=1e-10)


def test_slln_convergent_structure():
    rep = run_slln(0.2, -0.1, n_list=(64, 128), seeds=3)
    assert rep.name == "slln"
    assert rep.params["alpha"] == 0.2 and rep.params["beta"] == -0.1
    assert len(rep.records) == 6
    limit = f_ratio_integral(0.2, -0.1)
    for r in rep.records:
        assert r.target == pytest.approx(limit, rel=1e-12)
        assert r.provenance
    assert rep.verdict in ("pass", "fail")


def test_slln_input_validation():
    with pytest.raises(ValueError):
        run_slln(0.2, -0.1, n_list=(128, 64))
    with pytest.raises(ValueError):
        run_slln(0.2, -0.1, n_list=(MAX_POSTERIOR_N + 1,))


def test_slln_draws_without_a_dense_matrix(monkeypatch):
    # every cell draws through sample_fgn's circulant embedding: no dense
    # covariance and no Cholesky factor, so sizes past the old 8192 cap run
    def refuse(*args, **kwargs):
        raise AssertionError("run_slln must not build a dense covariance")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(fgn, "toeplitz_matrix", refuse)
    rep = run_slln(0.2, -0.1, n_list=(64, 16384), seeds=2)
    assert len(rep.records) == 4 and rep.verdict in ("pass", "fail")


def test_slln_cell_draw_is_sample_fgn():
    rep = run_slln(0.2, -0.1, n_list=(64,), seeds=(3,))
    xi = sample_fgn(-0.1 + 0.5, 64, spacing=1.0,
                    rng=replicate_rng(DEFAULT_MASTER_SEED, 3 * 100_000 + 64))
    want = quad_form(build_system(autocov_seq(0.2 + 0.5, 64)), xi.increments) / 64
    assert rep.records[0].statistic == want


def test_size_lists_checked_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no sample or Durbin pass before the size check")

    monkeypatch.setattr(harness, "sample_fgn", refuse)
    monkeypatch.setattr(harness, "build_system", refuse)
    too_long = (512, MAX_POSTERIOR_N + 1)
    calls = [
        lambda: run_slln(0.2, -0.1, n_list=too_long),
        lambda: run_determinant(0.9, n_list=too_long),
        lambda: run_concentration(0.7, n_list=too_long, n_paths=10),
        lambda: run_slln(0.2, -0.1, n_list=(2048, 512)),
        lambda: run_determinant(0.9, n_list=(2048, 512)),
        lambda: run_concentration(0.7, n_list=(2048, 512), n_paths=10),
        lambda: run_concentration(0.7, n_list=(4, 512), n_paths=10),
        lambda: run_determinant(0.9, n_list=(512,)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="n_list|sizes"):
            call()


def test_empty_counts_are_refused(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no sample or Durbin pass for an empty count")

    monkeypatch.setattr(harness, "sample_fgn", refuse)
    monkeypatch.setattr(harness, "build_system", refuse)
    calls = [
        lambda: run_slln(0.2, -0.1, n_list=(64,), seeds=0),
        lambda: run_slln(0.2, -0.1, n_list=(64,), seeds=[]),
        lambda: run_concentration(0.7, n_list=[], n_paths=10),
        lambda: run_moment_suite(trials=0),
        lambda: run_moment_suite(dims=()),
        lambda: run_factorization_suite(()),
        lambda: run_inverse_entries(0.3, n=64, n_samples=0),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_report_with_no_records_cannot_pass():
    with pytest.raises(ValueError, match="no records"):
        ExperimentReport("x", {}, (), "pass", 0.0)
    assert ExperimentReport("x", {}, (), "skip", 0.0).verdict == "skip"
    assert ExperimentReport("x", {}, (), "fail", 0.0).verdict == "fail"


def test_inverse_size_refused_before_any_allocation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no dense matrix past the size limit")

    monkeypatch.setattr(harness, "toeplitz_matrix", refuse)
    monkeypatch.setattr(harness, "autocov_seq", refuse)
    for n in (0, 1, harness._DENSE_MAX_N + 1, 20_000):
        with pytest.raises(ValueError, match="dense inverse"):
            run_inverse_entries(0.3, n=n)


def test_slln_divergent_refusal_and_growth():
    with pytest.raises(ValueError, match="diverges"):
        run_slln(-0.4, 0.3, n_list=(64, 128), seeds=2)
    rep = run_slln(-0.4, 0.3, n_list=(64, 256), seeds=(0, 1),
                   allow_divergent=True)
    assert rep.params["divergent"] is True
    growth = [r for r in rep.records if r.provenance.startswith("growth")]
    assert len(growth) == 2
    for r in growth:
        assert r.passed == (r.statistic > 1.0)
    raw = [r for r in rep.records if not r.provenance.startswith("growth")]
    assert all(r.target == INFO and r.passed for r in raw)


def test_determinant_small_grid():
    rep = run_determinant(0.5, n_list=(64, 128, 256))
    assert rep.passed()
    slope = [r for r in rep.records if "exponent" in r.provenance]
    assert len(slope) == 1
    assert slope[0].target == 0.0
    assert abs(slope[0].statistic) < 1e-8
    with pytest.raises(ValueError):
        run_determinant(0.5, n_list=(256, 128))


def test_inverse_entries_skip_and_pass():
    skipped = run_inverse_entries(0.0)
    assert skipped.verdict == "skip" and not skipped.passed()
    assert "alpha = 0" in skipped.params["note"]
    rep = run_inverse_entries(0.3, n=128, n_samples=40)
    assert rep.passed()
    assert len(rep.records) == 40
    ratios = [r.statistic for r in rep.records]
    assert all(r > 0.0 for r in ratios)


def test_concentration_small():
    # n = 128 is far from the asymptotic regime: the bias-direction check may
    # honestly fail, so assert record structure and verdict consistency, not
    # a blanket pass
    rep = run_concentration(0.7, n_list=(128,), n_paths=10)
    mean_map = [r for r in rep.records if r.provenance.startswith("Monte Carlo")]
    assert len(mean_map) == 1 and abs(mean_map[0].statistic - 0.7) <= 0.05
    sd_rec = [r for r in rep.records if "posterior sd" in r.provenance]
    assert len(sd_rec) == 1 and sd_rec[0].passed
    checked = [r for r in rep.records if r.tol != INFO]
    assert rep.passed() == all(r.passed for r in checked)
    with pytest.raises(ValueError):
        run_concentration(0.7, n_list=(128,), n_paths=3)


def test_moment_suite_passes():
    rep = run_moment_suite(trials=6)
    assert rep.passed()
    assert len(rep.records) == 6
    assert max(r.statistic for r in rep.records) <= THRESHOLDS["moment_rel_tol"]
    with pytest.raises(ValueError):
        run_moment_suite(n_max=40)


def test_moment_suite_catches_an_oracle_gap(monkeypatch):
    # a relative gap of 1e-8 between the recursion and the pairing oracle is
    # a hundred times the suite's tolerance and must fail the verdict
    true_oracle = harness.theta_isserlis_oracle
    monkeypatch.setattr(harness, "theta_isserlis_oracle",
                        lambda inst, n: (1.0 + 1e-8) * true_oracle(inst, n))
    assert THRESHOLDS["moment_rel_tol"] == 1e-10
    rep = run_moment_suite(trials=3)
    assert rep.verdict == "fail" and not rep.passed()


def test_moment_suite_runs_each_stage_once_per_matrix_size(monkeypatch):
    calls = []
    true_oracle = harness.theta_isserlis_oracle

    def counted(inst, n):
        calls.append((inst.a.shape, n))
        return true_oracle(inst, n)

    monkeypatch.setattr(harness, "theta_isserlis_oracle", counted)
    rep = run_moment_suite(trials=20)
    assert rep.passed() and len(rep.records) == 20
    # three sizes times orders 1-4, on stacks of 7, 7 and 6 trials
    assert len(calls) == 12
    assert sorted({shape for shape, _ in calls}) == [(6, 4, 4), (7, 2, 2), (7, 3, 3)]
    assert [r.seed for r in rep.records] == list(range(20))
    assert [r.n for r in rep.records] == [(2, 3, 4)[t % 3] for t in range(20)]


def test_moment_suite_reproducible():
    a = run_moment_suite(dims=(2, 3), trials=9, master_seed=5)
    b = run_moment_suite(dims=(2, 3), trials=9, master_seed=5)
    assert a.records == b.records and a.params == b.params
    assert run_moment_suite(dims=(2, 3), trials=9, master_seed=6).records != a.records


def test_moment_suite_stacked_gaps_match_per_trial():
    # each record is its own trial's gap, recomputed here one instance at a
    # time; only the last bits may differ
    rep = run_moment_suite(trials=7)
    for rec in rep.records:
        a, c = harness._random_pair(rec.n, replicate_rng(DEFAULT_MASTER_SEED, rec.seed))
        inst = QuadFormInstance(a, c)
        r = trace_powers(inst, 4)
        theta = theta_recursion(r, 4)
        oracle = [theta_isserlis_oracle(inst, n) for n in range(5)]
        gaps = [abs(theta[n] - oracle[n]) / max(1.0, abs(oracle[n])) for n in range(1, 5)]
        psi = psi_direct(theta, r[0], 4)
        psi_comp = psi_composition_representation(r, 4)
        gaps += [abs(psi[n] - psi_comp[n]) / max(1.0, abs(psi[n])) for n in range(1, 4)]
        assert rec.statistic == pytest.approx(max(gaps), abs=2e-15)


@pytest.mark.filterwarnings("ignore:decay-fit window shrunk:RuntimeWarning")
def test_factorization_suite_single_alpha():
    rep = run_factorization_suite(alphas=(0.2,))
    assert rep.passed()
    assert len(rep.records) == 4


def test_reports_reproducible_and_thread_invariant():
    a = run_slln(0.2, -0.1, n_list=(64, 128), seeds=4)
    b = run_slln(0.2, -0.1, n_list=(64, 128), seeds=4)
    c = run_slln(0.2, -0.1, n_list=(64, 128), seeds=4, threads=2)
    assert a.records == b.records == c.records
    assert a.verdict == b.verdict == c.verdict
    shifted = run_slln(0.2, -0.1, n_list=(64, 128), seeds=4,
                       master_seed=DEFAULT_MASTER_SEED + 1)
    assert shifted.records != a.records


def test_json_round_trip_is_identity(tmp_path):
    # include infinite tolerances: the divergent records carry INFO targets
    rep = run_slln(-0.4, 0.3, n_list=(64, 128), seeds=(0, 1),
                   allow_divergent=True)
    buf = io.StringIO()
    write_report_json(rep, buf)
    buf.seek(0)
    back = read_report_json(buf)
    assert back == rep
    path = str(tmp_path / "report.json")
    write_report_json(rep, path)
    assert read_report_json(path) == rep


def test_json_written_in_one_write_matches_chunked_dump(tmp_path):
    rep = run_moment_suite(trials=3)
    old = io.StringIO()
    json.dump({"name": rep.name, "params": rep.params,
               "records": [harness._record_to_dict(r) for r in rep.records],
               "verdict": rep.verdict, "wall_time": rep.wall_time}, old, indent=2)
    old.write("\n")

    class Counting(io.StringIO):
        def __init__(self):
            super().__init__()
            self.writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    new = Counting()
    write_report_json(rep, new)
    assert new.getvalue() == old.getvalue()
    assert new.writes == 1
    path = tmp_path / "report.json"
    write_report_json(rep, str(path))
    assert path.read_bytes() == old.getvalue().encode()


def test_csv_is_lossless(tmp_path):
    rep = run_moment_suite(trials=3)
    path = str(tmp_path / "report.csv")
    write_report_csv(rep, path)
    import csv
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "seed", "statistic", "target", "tol", "pass",
                       "provenance"]
    assert len(rows) == len(rep.records) + 1
    for row, r in zip(rows[1:], rep.records):
        assert float(row[2]) == r.statistic
        assert float(row[4]) == r.tol
        assert bool(int(row[5])) == r.passed
