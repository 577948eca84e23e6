import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import hurstbayes
from hurstbayes import cli, harness, symbols
from hurstbayes.cli import main
from hurstbayes.fgn import sample_fgn, write_path_csv
from hurstbayes.harness import read_report_json


def _run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_simulate_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    rc1, out1, _ = _run(capsys, "simulate", "--h", "0.7", "--n", "64",
                        "--seed", "5", "--out", a)
    rc2, _, _ = _run(capsys, "simulate", "--h", "0.7", "--n", "64",
                     "--seed", "5", "--out", b)
    assert rc1 == rc2 == 0
    assert "wrote 64 increments" in out1
    assert open(a).read() == open(b).read()


def test_simulate_rejects_bad_h(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--h", "1.0", "--n", "8",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "(0, 1)" in capsys.readouterr().err


def test_estimate_file_and_inline_agree(tmp_path, capsys):
    csv_path = str(tmp_path / "path.csv")
    rc, _, _ = _run(capsys, "simulate", "--h", "0.7", "--n", "512",
                    "--seed", "42", "--out", csv_path)
    assert rc == 0
    rc, out, _ = _run(capsys, "estimate", "--in", csv_path)
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"map", "mean", "sd", "ci95", "alpha_n", "c_n",
                        "normal_approx_sd", "n", "flags"}
    assert doc["n"] == 512
    assert abs(doc["map"] - 0.7) < 0.1
    assert doc["ci95"][0] < doc["map"] < doc["ci95"][1]
    assert doc["alpha_n"] is not None and doc["c_n"] > 0.0

    # the CSV round trip is bitwise, so the inline route must agree exactly
    rc, out2, _ = _run(capsys, "estimate", "--h", "0.7", "--n", "512",
                       "--seed", "42")
    assert rc == 0
    doc2 = json.loads(out2)
    assert doc2["map"] == doc["map"]
    assert doc2["mean"] == doc["mean"]


def test_estimate_writes_json_file(tmp_path, capsys):
    out_path = str(tmp_path / "summary.json")
    rc, out, _ = _run(capsys, "estimate", "--h", "0.6", "--n", "128",
                      "--seed", "3", "--out", out_path)
    assert rc == 0
    assert "map:" in out and out_path in out
    doc = json.load(open(out_path))
    assert abs(doc["map"] - 0.6) < 0.15


def test_estimate_input_mutual_exclusion(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--in", str(tmp_path / "x.csv"), "--h", "0.5",
              "--n", "8"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["estimate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_estimate_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# fgn h=0.5 n=2 spacing=0.5 seed=1\n0.1\nxyz\n")
    rc, _, err = _run(capsys, "estimate", "--in", str(bad))
    assert rc == 2
    assert "error:" in err and "line 3" in err


def test_estimate_badly_scaled_input_is_usage_error(tmp_path, capsys):
    path = sample_fgn(0.7, 512, seed=1)
    scaled = tmp_path / "scaled.csv"
    write_path_csv(replace(path, increments=path.increments * 1e4),
                   str(scaled))
    rc, _, err = _run(capsys, "estimate", "--in", str(scaled))
    assert rc == 2
    assert "rescale the sample" in err


def test_estimate_over_length_ceiling_is_usage_error(tmp_path, capsys,
                                                     monkeypatch):
    from hurstbayes import posterior

    def refuse(*args, **kwargs):
        raise AssertionError("no grid node may be evaluated past the ceiling")

    monkeypatch.setattr(posterior, "_log_kernel_nodes", refuse)
    n = posterior.MAX_POSTERIOR_N + 1
    long = tmp_path / "long.csv"
    write_path_csv(sample_fgn(0.7, n, seed=1), str(long))
    rc, _, err = _run(capsys, "estimate", "--in", str(long))
    assert rc == 2
    assert "error:" in err and str(posterior.MAX_POSTERIOR_N) in err


def test_estimate_missing_file_is_runtime_failure(tmp_path, capsys):
    rc, _, err = _run(capsys, "estimate", "--in", str(tmp_path / "nope.csv"))
    assert rc == 1
    assert "failure:" in err


def test_estimate_near_one_gives_asymptotic_summary(capsys):
    rc, out, _ = _run(capsys, "estimate", "--h", "0.9", "--n", "512",
                      "--seed", "7")
    assert rc == 0
    doc = json.loads(out)
    assert doc["map"] > 0.8
    assert doc["alpha_n"] is not None and np.isfinite(doc["alpha_n"])
    assert not any("asymptotic summary unavailable" in f for f in doc["flags"])


def test_estimate_single_observation_flags(capsys):
    rc, out, _ = _run(capsys, "estimate", "--h", "0.5", "--n", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["alpha_n"] is None
    joined = " ".join(doc["flags"])
    assert "n=1" in joined and "n >= 8" in joined


def test_verify_moments_writes_reports(tmp_path, capsys):
    prefix = str(tmp_path / "rep")
    rc, out, _ = _run(capsys, "verify", "moments", "--paths", "5",
                      "--out", prefix)
    assert rc == 0
    assert "moments: pass" in out
    report = read_report_json(prefix + ".json")
    assert report.passed() and len(report.records) == 5
    assert (tmp_path / "rep.csv").exists()


def test_cached_parser_carries_nothing_between_calls(tmp_path, capsys,
                                                     monkeypatch):
    # the parser is built once per process; an explicit --seed in one call
    # must not become the default of the next
    monkeypatch.delenv("HURST_SEED", raising=False)
    seeds = []
    for i, extra in enumerate((["--seed", "5"], [])):
        prefix = str(tmp_path / f"r{i}")
        rc, _, _ = _run(capsys, "verify", "moments", "--paths", "2",
                        *extra, "--out", prefix)
        assert rc == 0
        seeds.append(read_report_json(prefix + ".json").params["master_seed"])
    assert seeds == [5, 1899]
    assert cli._build_parser() is cli._build_parser()


def test_verify_unknown_experiment(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_slln_requires_symbols(tmp_path, capsys):
    rc, _, err = _run(capsys, "verify", "slln",
                      "--out", str(tmp_path / "r"))
    assert rc == 2
    assert "slln needs --alpha and --beta" in err


def test_verify_slln_small_with_tol_scale(tmp_path, capsys):
    before = dict(harness.THRESHOLDS)
    rc, out, _ = _run(capsys, "verify", "slln", "--alpha", "0.2",
                      "--beta", "-0.1", "--nlist", "64,128", "--paths", "3",
                      "--tol-scale", "10", "--out", str(tmp_path / "r"))
    assert rc == 0
    assert harness.THRESHOLDS == before  # context manager restored the table


@pytest.mark.parametrize("argv", [
    ["moments", "--paths", "0"],
    ["inverse", "--n", "0"],
    ["inverse", "--n", "20000"],
    ["slln", "--alpha", "0.2", "--beta", "-0.1", "--paths", "0"],
    ["concentration", "--nlist", "512,65537"],
    ["concentration", "--nlist", "2048,512"],
    ["determinant", "--nlist", "512"],
    ["concentration", "--nlist", "4"],
])
def test_verify_given_zero_or_bad_size_is_usage_error(argv, tmp_path, capsys,
                                                      monkeypatch):
    # a flag given as 0 is passed on, not read as unset; every refusal comes
    # before any sample, Durbin pass or dense matrix
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the input check")

    for name in ("sample_fgn", "build_system", "toeplitz_matrix",
                 "trace_powers"):
        monkeypatch.setattr(harness, name, refuse)
    rc, _, err = _run(capsys, "verify", *argv, "--out", str(tmp_path / "r"))
    assert rc == 2
    assert "error:" in err
    assert not (tmp_path / "r.json").exists()


def test_verify_inverse_skip_exits_nonzero(tmp_path, capsys):
    rc, out, _ = _run(capsys, "verify", "inverse", "--alpha", "0",
                      "--out", str(tmp_path / "r"))
    assert rc == 1
    assert "skip" in out
    assert read_report_json(str(tmp_path / "r.json")).verdict == "skip"


def test_env_seed_resolution(tmp_path, capsys, monkeypatch):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    monkeypatch.setenv("HURST_SEED", "7")
    _run(capsys, "simulate", "--h", "0.6", "--n", "32", "--out", a)
    monkeypatch.delenv("HURST_SEED")
    _run(capsys, "simulate", "--h", "0.6", "--n", "32", "--seed", "7",
         "--out", b)
    assert open(a).read() == open(b).read()

    monkeypatch.setenv("HURST_SEED", "not-a-number")
    rc, _, err = _run(capsys, "simulate", "--h", "0.6", "--n", "32",
                      "--out", str(tmp_path / "c.csv"))
    assert rc == 2
    assert "HURST_SEED" in err


def test_internal_value_error_is_runtime_failure(tmp_path, capsys, monkeypatch):
    # a ValueError raised inside numpy is a fault of the program, not a usage
    # error: it must exit 1 with its type, not 2
    def broken(**_):
        return np.ones(3) + np.ones(2)

    monkeypatch.setattr(harness, "run_moment_suite", broken)
    rc, _, err = _run(capsys, "verify", "moments",
                      "--out", str(tmp_path / "r"))
    assert rc == 1
    assert "failure: ValueError:" in err


def test_cli_import_skips_scipy_signal():
    # scipy.signal alone cost most of the CLI's start-up; nothing needs it
    src = os.path.dirname(os.path.dirname(os.path.abspath(hurstbayes.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, hurstbayes.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.filterwarnings("ignore:decay-fit window shrunk:RuntimeWarning")
def test_verify_factorization_reports_identical_cold_and_warm(tmp_path, capsys):
    # the lattice-sum coefficient cache must not change a single bit of the
    # records, whether it is built during the run or already warm
    reports = []
    for i, clear in enumerate((True, False, True)):
        if clear:
            symbols._lattice_chebyshev.cache_clear()
        out = tmp_path / f"r{i}"
        rc, _, _ = _run(capsys, "verify", "factorization", "--alpha", "0.2",
                        "--out", str(out))
        assert rc == 0
        reports.append(open(f"{out}.csv", "rb").read())
    assert reports[0] == reports[1] == reports[2]
