import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import oracles
from hurstbayes import posterior
from hurstbayes.fgn import sample_fgn
from hurstbayes.posterior import (EPS_MARGIN, AsymptoticSummary, PosteriorGrid,
                                  credible_interval, kappa_prime, kappa_second,
                                  kappa_value, log_posterior, map_estimate,
                                  normal_approx_cdf, posterior_grid,
                                  posterior_moments, solve_alpha_n)
from hurstbayes.symbols import autocov_seq

TWO_PI = 2.0 * math.pi


def test_logsumexp_matches_scipy():
    import scipy.special
    rng = np.random.default_rng(11)
    cases = [rng.standard_normal(50), rng.standard_normal(50) * 30.0 + 1e3,
             rng.standard_normal(50) - 1e3,
             np.array([-np.inf, 0.5, -np.inf, 1e3, 1e3 - 1.0]),
             np.array([-np.inf, -np.inf]), np.array([2.0])]
    for v in cases:
        ref = float(scipy.special.logsumexp(v))
        got = posterior._logsumexp(v)
        if math.isinf(ref):
            assert got == ref
        else:
            assert got == pytest.approx(ref, rel=1e-15, abs=1e-15)


def _gaussian_grid(mu=0.55, sd=0.03, lo=0.3, hi=0.8, count=1001):
    nodes = np.linspace(lo, hi, count)
    logd = -0.5 * ((nodes - mu) / sd) ** 2
    return PosteriorGrid.from_log_density(nodes, logd)


def test_log_posterior_matches_dense_gaussian():
    # the exact posterior kernel is the N(0, n^{-2u} T_n(gamma_u)) likelihood
    # up to the u-free constant (n/2) log(2 pi)
    n = 16
    y = sample_fgn(0.6, n, seed=3).increments
    nodes = np.linspace(0.05, 0.95, 64)
    grid = log_posterior(y, nodes)
    for u, got in zip(grid.nodes, grid.log_density):
        cov = float(n) ** (-2.0 * u) * scipy.linalg.toeplitz(
            autocov_seq(u, n).gammas)
        want = oracles.gaussian_log_likelihood(y, cov) + 0.5 * n * math.log(TWO_PI)
        assert got == pytest.approx(want, abs=1e-8)


def test_log_posterior_input_validation():
    with pytest.raises(ValueError):
        log_posterior(np.empty(0), np.linspace(0.1, 0.9, 64))
    with pytest.raises(ValueError):
        log_posterior(np.ones(8), np.linspace(-0.1, 0.9, 64))
    with pytest.warns(RuntimeWarning, match="all-zero"):
        log_posterior(np.zeros(8), np.linspace(0.1, 0.9, 64))


@pytest.mark.parametrize("nodes", [
    [], [0.5], [0.5, 0.5, 0.5], np.linspace(0.1, 0.9, 63),
    np.r_[np.linspace(0.1, 0.9, 63), 0.5],
    np.linspace(0.1, 0.9, 64).reshape(8, 8),
    np.r_[np.linspace(0.1, 0.9, 64), np.nan]],
    ids=["empty", "single", "repeated", "63", "63-distinct-of-64", "2-d", "nan"])
def test_log_posterior_rejects_bad_node_lists(nodes, monkeypatch):
    # fewer than 64 distinct nodes, a node array that is not 1-d, or a node
    # outside the grid range (NaN included) is a usage error found before
    # any Durbin pass
    def no_durbin(*args):
        raise AssertionError("a Durbin pass ran before the node check")

    monkeypatch.setattr(posterior, "logdet_and_quad", no_durbin)
    y = sample_fgn(0.6, 16, seed=3).increments
    with pytest.raises(ValueError, match="grid nodes"):
        log_posterior(y, nodes)


def test_unscorable_samples_rejected():
    # one NaN, or a scale whose |y|^2 overflows, must be a usage error, not
    # a boundary MAP with only a boundary warning
    y = sample_fgn(0.7, 64, seed=4).increments
    with_nan = y.copy()
    with_nan[7] = np.nan
    nodes = np.linspace(0.1, 0.9, 64)
    for bad, match in ((with_nan, "non-finite"), (y * 1e200, "overflows")):
        with pytest.raises(ValueError, match=match):
            log_posterior(bad, nodes)
        with pytest.raises(ValueError, match=match):
            posterior_grid(bad)


def test_over_length_sample_refused_before_any_node(monkeypatch):
    # both entry points share one sample check, the size ceiling included,
    # so neither scores a node of a sample past MAX_POSTERIOR_N
    def no_nodes(*args):
        raise AssertionError("a node was scored before the size check")

    monkeypatch.setattr(posterior, "_log_kernel_nodes", no_nodes)
    y = np.full(posterior.MAX_POSTERIOR_N + 1, 0.01)
    with pytest.raises(ValueError, match=str(posterior.MAX_POSTERIOR_N)):
        log_posterior(y, np.linspace(0.1, 0.9, 64))
    with pytest.raises(ValueError, match=str(posterior.MAX_POSTERIOR_N)):
        posterior_grid(y)


def test_badly_scaled_sample_names_its_scale():
    # a finite |y|^2 can still push the log densities so far from 0 that one
    # ulp of the float log_norm breaks the normalization check; that must be
    # reported as the sample's scale, while moderate scales keep working
    y = sample_fgn(0.7, 512, seed=1).increments
    for scale in (1e4, 1e10, 1e100, 1e150):
        with pytest.raises(ValueError, match=r"sample scale .*rescale"):
            posterior_grid(y * scale)
    for scale in (0.1, 10.0, 1e3):
        grid = posterior_grid(y * scale)
        assert 0.0 < map_estimate(grid) < 1.0


def test_badly_scaled_sample_rejected_after_coarse_round(monkeypatch):
    # the scale shows in the coarse scan's log densities, so no refinement
    # round may run before the rejection
    y = sample_fgn(0.7, 256, seed=1).increments * 1e10
    real = posterior._log_kernel_nodes
    counted = []

    def counting(y, nodes):
        counted.append(np.size(nodes))
        return real(y, nodes)

    monkeypatch.setattr(posterior, "_log_kernel_nodes", counting)
    with pytest.raises(ValueError, match=r"sample scale .*rescale"):
        posterior_grid(y)
    assert 0 < sum(counted) <= 128


def test_non_finite_node_terms_are_dropped(monkeypatch):
    y = sample_fgn(0.6, 32, seed=9).increments
    nodes = np.linspace(0.1, 0.9, 66)
    exact = log_posterior(y, nodes)
    real = posterior.logdet_and_quad
    calls = []

    def spoiled(gam, z):
        logdet, q = real(gam, z)
        calls.append(None)
        if len(calls) == 10:
            return logdet, math.nan
        if len(calls) == 20:
            return math.inf, q
        return logdet, q

    monkeypatch.setattr(posterior, "logdet_and_quad", spoiled)
    with pytest.warns(RuntimeWarning, match="dropping grid node"):
        grid = log_posterior(y, nodes)
    kept = np.delete(np.arange(nodes.size), [9, 19])
    np.testing.assert_array_equal(grid.nodes, nodes[kept])
    np.testing.assert_allclose(grid.log_density, exact.log_density[kept],
                               rtol=0, atol=1e-12)


def test_prior_must_be_positive():
    y = sample_fgn(0.5, 8, seed=0).increments
    with pytest.raises(ValueError):
        log_posterior(y, np.linspace(0.1, 0.9, 64), prior=lambda u: u - 0.5)


def test_single_observation_posterior_is_flat():
    # n = 1 kills both the n u log n drift and the scaling of the quadratic
    # form, so a uniform prior comes straight back
    grid = log_posterior(np.array([0.37]), np.linspace(0.1, 0.9, 64))
    dens = grid.density()
    assert dens.max() / dens.min() == pytest.approx(1.0, rel=1e-10)


def test_posterior_grid_validation():
    nodes = np.linspace(0.1, 0.9, 64)
    logd = np.zeros(64)
    w = np.full(64, (0.8 / 63))
    with pytest.raises(ValueError):
        PosteriorGrid(nodes[:32], logd[:32], 0.0, w[:32])  # too few nodes
    with pytest.raises(ValueError):
        PosteriorGrid(nodes, logd[:-1], 0.0, w)  # length mismatch
    with pytest.raises(ValueError):
        PosteriorGrid(nodes[::-1], logd, 0.0, w)  # decreasing
    with pytest.raises(ValueError):
        PosteriorGrid(nodes + 0.2, logd, 0.0, w)  # leaves [GRID_MIN, GRID_MAX]
    with pytest.raises(ValueError):
        PosteriorGrid(nodes, logd, 123.0, w)  # normalization off


def test_from_log_density_normalizes():
    grid = _gaussian_grid()
    total = np.sum(grid.weights * grid.density())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_functionals_shift_invariant():
    grid = _gaussian_grid()
    shifted = PosteriorGrid.from_log_density(grid.nodes, grid.log_density + 500.0)
    assert map_estimate(shifted) == pytest.approx(map_estimate(grid), abs=1e-12)
    m1, v1 = posterior_moments(grid)
    m2, v2 = posterior_moments(shifted)
    assert m2 == pytest.approx(m1, abs=1e-12)
    assert v2 == pytest.approx(v1, rel=1e-10)
    assert credible_interval(shifted, 0.9) == pytest.approx(
        credible_interval(grid, 0.9), abs=1e-12)


def test_map_estimate_parabola_vertex():
    nodes = np.linspace(0.2, 0.9, 141)
    logd = -80.0 * (nodes - 0.6317) ** 2
    grid = PosteriorGrid.from_log_density(nodes, logd)
    assert map_estimate(grid) == pytest.approx(0.6317, abs=1e-12)


def test_map_estimate_boundary_warns():
    nodes = np.linspace(0.2, 0.9, 64)
    grid = PosteriorGrid.from_log_density(nodes, 3.0 * nodes)
    with pytest.warns(RuntimeWarning, match="boundary"):
        assert map_estimate(grid) == nodes[-1]


def test_moments_and_interval_on_gaussian():
    mu, sd = 0.55, 0.03
    grid = _gaussian_grid(mu, sd)
    mean, var = posterior_moments(grid)
    assert mean == pytest.approx(mu, abs=1e-8)
    assert var == pytest.approx(sd ** 2, rel=1e-6)
    lo, hi = credible_interval(grid, 0.95)
    z = scipy.stats.norm.ppf(0.975)
    assert lo == pytest.approx(mu - z * sd, abs=1e-5)
    assert hi == pytest.approx(mu + z * sd, abs=1e-5)
    lo50, hi50 = credible_interval(grid, 0.5)
    assert lo < lo50 < hi50 < hi


def test_interval_level_sweeps_to_full_support():
    nodes = np.linspace(0.2, 0.8, 301)
    grid = PosteriorGrid.from_log_density(nodes, np.zeros(301))
    mean, var = posterior_moments(grid)
    assert mean == pytest.approx(0.5, abs=1e-12)
    assert var == pytest.approx(0.6 ** 2 / 12.0, rel=1e-4)
    lo, hi = credible_interval(grid, 1.0 - 1e-9)
    assert lo == pytest.approx(nodes[0], abs=1e-6)
    assert hi == pytest.approx(nodes[-1], abs=1e-6)
    for bad in (0.0, 1.0, -0.3):
        with pytest.raises(ValueError):
            credible_interval(grid, bad)


def test_posterior_grid_adaptive_invariants():
    y = sample_fgn(0.7, 256, seed=11).increments
    grid = posterior_grid(y)
    assert grid.nodes.size >= 128
    est = map_estimate(grid)
    assert abs(est - 0.7) < 0.1
    mean, var = posterior_moments(grid)
    assert abs(mean - 0.7) < 0.1
    # the refinement loop promises a densely sampled mode neighbourhood
    sd = math.sqrt(var)
    assert np.sum(np.abs(grid.nodes - est) <= 5.0 * sd) >= 32


@pytest.mark.parametrize("top_up", [False, True], ids=["fixed-rounds", "top-up"])
def test_posterior_grid_scores_each_node_once(top_up, monkeypatch):
    # a refinement window's end nodes were scored by the round before it;
    # every node of the grid costs exactly one Durbin pass, also when a
    # too-narrow spread forces the top-up rounds
    from hurstbayes import _levinson
    real = _levinson.durbin
    passes = []

    def counting(gam):
        passes.append(gam.size)
        return real(gam)

    monkeypatch.setattr(_levinson, "durbin", counting)
    if top_up:
        monkeypatch.setattr(posterior, "_mode_spread",
                            lambda nodes, logd: (float(nodes[np.argmax(logd)]), 1e-9))
    grid = posterior_grid(sample_fgn(0.7, 256, seed=11).increments)
    assert len(passes) == grid.nodes.size
    assert grid.nodes.size == 128 + (5 if top_up else 2) * 62


def test_posterior_grid_bounds_validation():
    y = np.ones(8)
    with pytest.raises(ValueError):
        posterior_grid(y, grid_min=0.9, grid_max=0.1)
    with pytest.raises(ValueError):
        posterior_grid(y, coarse=16)


# ---------------------------------------------------------------------------
# exponent surrogate


def _const_ratio(value=1.0):
    return lambda a, h: SimpleNamespace(value=value, d1=0.0, d2=0.0)


def _exp_ratio(a, h):
    v = math.exp(a)
    return SimpleNamespace(value=v, d1=v, d2=v)


def test_kappa_derivative_consistency():
    n, h = 2048, 0.6
    for a in (0.45, 0.6, 0.75):
        eps_fd = 1e-6
        fd1 = (kappa_value(a + eps_fd, n, h, ratio_fn=_exp_ratio)
               - kappa_value(a - eps_fd, n, h, ratio_fn=_exp_ratio)) / (2 * eps_fd)
        assert kappa_prime(a, n, h, ratio_fn=_exp_ratio) == pytest.approx(
            fd1, rel=1e-6)
        fd2 = (kappa_prime(a + eps_fd, n, h, ratio_fn=_exp_ratio)
               - kappa_prime(a - eps_fd, n, h, ratio_fn=_exp_ratio)) / (2 * eps_fd)
        assert kappa_second(a, n, h, ratio_fn=_exp_ratio) == pytest.approx(
            fd2, rel=1e-6)


def test_kappa_domain_guard():
    with pytest.raises(ValueError):
        kappa_value(0.1, 1024, 0.6, ratio_fn=_const_ratio())
    with pytest.raises(ValueError):
        kappa_prime(1.2, 1024, 0.6, ratio_fn=_const_ratio())


def test_solve_with_flat_ratio_recovers_h_hat():
    # F identically 1 makes kappa'(a) = n log n (1 - n^{2(a-h)}): the root is
    # exactly h_hat and the curvature scale is exactly 1
    summary = solve_alpha_n(4096, 0.6, ratio_fn=_const_ratio())
    assert summary.alpha_n == pytest.approx(0.6, abs=1e-12)
    assert summary.c_n == pytest.approx(1.0, rel=1e-12)
    lo, hi = summary.bracket
    third = math.log(2.0) / math.log(4096)
    assert lo == pytest.approx(0.6 - third, abs=1e-12)
    assert hi == pytest.approx(0.6 + third, abs=1e-12)
    assert summary.m_const == pytest.approx(math.log(2.0), abs=1e-12)
    assert summary.predicted_sd == pytest.approx(
        1.0 / (math.sqrt(4096.0) * math.log(4096.0)), rel=1e-12)


def test_solve_frozen_values():
    summary = solve_alpha_n(4096, 0.7)
    assert summary.alpha_n == pytest.approx(0.69531737871757, abs=1e-9)
    assert summary.c_n == pytest.approx(1.14386, rel=1e-4)
    ln_n = math.log(4096.0)
    assert abs(summary.alpha_n - 0.7) <= summary.m_const / ln_n ** 2
    assert summary.predicted_sd == pytest.approx(
        1.0 / (math.sqrt(summary.c_n * 4096.0) * ln_n), rel=1e-12)


def test_solve_bounded_near_one():
    # the bracket's upper end is clipped to GRID_MAX, near which F' carries
    # d log C_h / dh ~ -1/(1 - h); the fixed rule must still return promptly
    start = time.perf_counter()
    for h in (0.85, 0.9, 0.95):
        summary = solve_alpha_n(1024, h)
        lo, hi = summary.bracket
        assert lo < summary.alpha_n < hi
        assert math.isfinite(summary.c_n) and summary.c_n > 0.0
    assert time.perf_counter() - start < 5.0


def test_alpha_scan_stops_at_grid_max():
    # the ratio scan and the bracket end at the posterior grid's upper end:
    # F grows to about 2e5 as alpha nears 1, which would widen m_const
    near_one = solve_alpha_n(1024, 0.95)
    assert near_one.bracket[1] <= posterior.GRID_MAX
    assert solve_alpha_n(4096, 0.7).m_const < 7.0


def test_solve_rejects_small_samples():
    with pytest.raises(ValueError):
        solve_alpha_n(4, 0.6)


def test_asymptotic_summary_validation():
    with pytest.raises(ValueError):
        AsymptoticSummary(0.9, 1.0, 0.01, (0.5, 0.7), 1.0, 0.6, 1024)
    with pytest.raises(ValueError):
        AsymptoticSummary(0.6, -1.0, 0.01, (0.5, 0.7), 1.0, 0.6, 1024)


def test_normal_approx_cdf_shape():
    summary = solve_alpha_n(4096, 0.6, ratio_fn=_const_ratio())
    assert normal_approx_cdf(summary.alpha_n, summary, 4096) == pytest.approx(0.5)
    sd = summary.predicted_sd
    z1 = normal_approx_cdf(summary.alpha_n + sd, summary, 4096)
    assert z1 == pytest.approx(scipy.stats.norm.cdf(1.0), abs=1e-12)
    ts = summary.alpha_n + sd * np.linspace(-2.0, 2.0, 9)
    vals = [normal_approx_cdf(t, summary, 4096) for t in ts]
    assert np.all(np.diff(vals) > 0.0)


@pytest.mark.parametrize("n", [64, 1024, 4096, 10 ** 6])
@pytest.mark.parametrize("h", [0.1, 0.5, 0.7, 0.95, 0.999])
def test_newton_root_matches_brent(n, h):
    import scipy.optimize
    summary = solve_alpha_n(n, h)
    lo, hi = summary.bracket
    ref = scipy.optimize.brentq(lambda a: kappa_prime(a, n, h), lo, hi,
                                xtol=1e-13, rtol=1e-14)
    assert abs(summary.alpha_n - ref) <= 1e-12


def test_newton_root_safeguards():
    # Newton from far out on arctan overshoots the bracket, and a slope of
    # the wrong sign is ignored: both fall back to bisection
    def f(a):
        return -math.atan(a - 0.3)

    def slope(a):
        return -1.0 / (1.0 + (a - 0.3) ** 2)

    for d in (slope, lambda a: 1.0):
        assert posterior._newton_root(f, d, -10.0, 10.0, 5.0) == pytest.approx(
            0.3, abs=1e-13)

