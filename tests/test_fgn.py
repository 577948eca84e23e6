import io
import math

import numpy as np
import pytest
import scipy.stats

from hurstbayes.fgn import (EmbeddingError, _cholesky_factor, FgnPath, embedding_eigenvalues,
                            read_path_csv, replicate_rng, rescale, sample_fgn,
                            sample_fgn_cholesky, write_path_csv)
from hurstbayes.symbols import autocov


@pytest.mark.parametrize("h", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_embedding_eigenvalues_nonnegative(h):
    for n in (16, 1000, 4096):
        eigs, m = embedding_eigenvalues(h, n)
        assert m >= n and eigs.size == 2 * m
        assert np.all(eigs >= 0.0)
    with pytest.raises(ValueError):
        embedding_eigenvalues(0.5, 64, m=16)


def test_replicate_rng_deterministic_and_decoupled():
    a = replicate_rng(42, 0).standard_normal(5)
    b = replicate_rng(42, 0).standard_normal(5)
    c = replicate_rng(42, 1).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_reproducible_and_scaled():
    p1 = sample_fgn(0.7, 256, seed=3)
    p2 = sample_fgn(0.7, 256, seed=3)
    assert np.array_equal(p1.increments, p2.increments)
    assert p1.spacing == pytest.approx(1.0 / 256)
    # spacing enters only as the self-similar prefactor
    q1 = sample_fgn(0.7, 256, spacing=1.0, rng=replicate_rng(3, 0))
    q2 = sample_fgn(0.7, 256, spacing=0.25, rng=replicate_rng(3, 0))
    assert np.allclose(q2.increments, 0.25 ** 0.7 * q1.increments, rtol=1e-12)


def test_rescale_inverts_spacing():
    path = sample_fgn(0.3, 128, seed=9)
    unit = rescale(path)
    assert np.allclose(unit.values,
                       path.increments / path.spacing ** 0.3, rtol=0.0)
    flat = sample_fgn(0.3, 128, spacing=1.0, seed=9)
    assert np.array_equal(rescale(flat).values, flat.increments)


def test_path_validation():
    with pytest.raises(ValueError):
        FgnPath(np.ones(4), 1.2, 0.25)
    with pytest.raises(ValueError):
        FgnPath(np.ones((2, 2)), 0.5, 0.25)
    with pytest.raises(ValueError):
        FgnPath(np.ones(4), 0.5, -1.0)


@pytest.mark.parametrize("sampler", [sample_fgn, sample_fgn_cholesky])
def test_sampler_covariance_is_exact(sampler):
    # mean over paths of hat-gamma_j within 4 empirical standard errors
    h, n, reps = 0.75, 128, 1000
    lags = np.arange(6)
    target = np.asarray(autocov(h, lags), dtype=float)
    stats = np.empty((reps, lags.size))
    for rep in range(reps):
        x = rescale(sampler(h, n, rng=replicate_rng(1000, rep))).values
        for j in lags:
            stats[rep, j] = np.dot(x[: n - j], x[j:]) / (n - j)
    mean = stats.mean(axis=0)
    se = stats.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(mean - target) <= 4.0 * se)


def test_brownian_case_is_iid_normal():
    x = rescale(sample_fgn(0.5, 4096, seed=11)).values
    stat = scipy.stats.kstest(x, "norm").statistic
    assert stat <= 1.63 / math.sqrt(x.size)  # 1% asymptotic KS band
    lag1 = float(np.dot(x[:-1], x[1:]) / (x.size - 1))
    assert abs(lag1) < 4.0 / math.sqrt(x.size)


def test_csv_round_trip_bitwise():
    for seed in (17, None):
        rng = None if seed is not None else replicate_rng(0, 0)
        path = sample_fgn(0.7, 64, seed=seed, rng=rng)
        buf = io.StringIO()
        write_path_csv(path, buf)
        buf.seek(0)
        back = read_path_csv(buf)
        assert np.array_equal(back.increments, path.increments)
        assert back.h == path.h and back.spacing == path.spacing
        assert back.seed == path.seed


def test_csv_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        read_path_csv(io.StringIO("not a header\n1.0\n"))
    good = "# fgn h=0.5 n=2 spacing=1.0 seed=none\n"
    with pytest.raises(ValueError, match="line 3"):
        read_path_csv(io.StringIO(good + "1.0\nbogus\n"))
    with pytest.raises(ValueError, match="promises 2"):
        read_path_csv(io.StringIO(good + "1.0\n"))
    with pytest.raises(ValueError, match="empty"):
        read_path_csv(io.StringIO(""))


@pytest.mark.parametrize("h", [0.1, 0.5, 0.9])
def test_cholesky_factor_matches_scipy(h):
    import scipy.linalg
    n = 200
    ref = scipy.linalg.cholesky(scipy.linalg.toeplitz(autocov(h, np.arange(n))),
                                lower=True)
    got = _cholesky_factor(h, n)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
