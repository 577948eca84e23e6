import math

import numpy as np
import pytest

import oracles
from hurstbayes import symbols
from hurstbayes.symbols import (AutocovSeq, HurstParam, SymbolParam,
                                autocov, autocov_seq,
                                f_ratio_derivatives, f_ratio_integral,
                                lattice_sum, lattice_sum_regular,
                                norming_constant, sinai_density)


def test_param_validation():
    with pytest.raises(ValueError):
        HurstParam(0.0)
    with pytest.raises(ValueError):
        HurstParam(1.0)
    with pytest.raises(ValueError):
        SymbolParam(0.5)
    with pytest.raises(ValueError):
        SymbolParam(-0.5)
    assert HurstParam(0.7).symbol.alpha == pytest.approx(0.2)
    assert SymbolParam(-0.2).hurst.h == pytest.approx(0.3)


@pytest.mark.parametrize("t", [-3.0, -0.5, 0.0, 0.7, 3.14])
@pytest.mark.parametrize("s", [1.2, 2.0, 2.9])
@pytest.mark.parametrize("w", [0, 1, 2])
def test_lattice_sum_vs_hurwitz_zeta(t, s, w):
    mine = float(lattice_sum_regular(t, s, log_weight=w))
    ref = oracles.lattice_oracle(t, s, w)
    assert mine == pytest.approx(ref, rel=1e-11)


def test_lattice_sum_includes_origin_term():
    t, s = 0.7, 1.8
    full = float(lattice_sum(t, s))
    reg = float(lattice_sum_regular(t, s))
    assert full - reg == pytest.approx(t ** (-s), rel=1e-14)


@pytest.mark.parametrize("s", [1.002, 1.2, 2.0, 2.9, 2.998, 3.99])
@pytest.mark.parametrize("w", [0, 1, 2])
@pytest.mark.parametrize("k_max", [256])
def test_lattice_interpolant_matches_direct_sum(s, w, k_max):
    # the one truncation: direct terms to k_max = 256, third-order tail
    assert symbols._K_MAX == k_max
    t = np.concatenate(([0.0, 1e-300, math.pi, -math.pi],
                        np.linspace(-math.pi, math.pi, 1001)))
    mine = lattice_sum_regular(t, s, w)
    ref = symbols._lattice_sum_direct(t, s, w)
    assert np.max(np.abs(mine / ref - 1.0)) <= 1e-13


def test_lattice_coefficients_are_cached():
    t = np.linspace(0.0, 1.0, 7)
    first = lattice_sum_regular(t, 2.345, 1)
    before = symbols._lattice_chebyshev.cache_info()
    second = lattice_sum_regular(t, 2.345, 1)
    after = symbols._lattice_chebyshev.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses
    assert np.array_equal(first, second)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 3.2, -3.2, 2.0 * math.pi])
def test_lattice_sum_rejects_t_outside_torus(t):
    with pytest.raises(ValueError):
        lattice_sum_regular(t, 2.0)
    with pytest.raises(ValueError):
        lattice_sum_regular(np.array([0.1, t]), 2.0)
    # the endpoint itself, up to rounding, stays inside
    assert np.isfinite(lattice_sum_regular(math.pi * (1.0 + 1e-13), 2.0))


def test_norming_constant_vs_closed_form():
    # the closed form sin(pi h) Gamma(2h+1) must normalize the lattice-sum
    # density the package evaluates, here integrated by adaptive quadrature
    for h in (0.001, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.995, 0.9995):
        quad = symbols._norming_quadrature(h)
        assert norming_constant(h) == pytest.approx(quad, rel=5e-12), h
        ref = float(oracles.norming_oracle(h))
        assert norming_constant(h) == pytest.approx(ref, rel=5e-12), h


def test_norming_constant_frozen_values():
    assert norming_constant(0.5) == pytest.approx(1.0, abs=1e-12)
    assert norming_constant(0.9) == pytest.approx(0.518064144332255, rel=1e-11)
    assert norming_constant(0.001) == pytest.approx(0.00313797314492614, rel=1e-11)


def test_density_flat_at_half():
    t = np.linspace(-math.pi, math.pi, 301)
    vals = sinai_density(0.5, t)
    assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_density_even_and_positive():
    t = np.linspace(1e-4, math.pi, 50)
    for h in (0.2, 0.8):
        left = sinai_density(h, -t)
        right = sinai_density(h, t)
        assert np.allclose(left, right, rtol=0.0, atol=0.0)
        assert np.all(right > 0.0)


def test_density_origin_behaviour():
    assert sinai_density(0.3, 0.0) == 0.0
    assert sinai_density(0.5, 0.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        sinai_density(0.7, 0.0)
    with pytest.raises(ValueError):
        sinai_density(0.3, 4.0)


@pytest.mark.parametrize("h", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("t", [0.3, 1.5, 3.0])
def test_density_vs_mpmath_oracle(h, t):
    ref = float(oracles.density_oracle(h, t))
    assert float(sinai_density(h, t)) == pytest.approx(ref, rel=1e-12)


def test_autocov_closed_form_values():
    assert float(autocov(0.7, 0)) == 1.0
    assert float(autocov(0.7, 1)) == pytest.approx(0.5 * (2 ** 1.4 - 2.0), rel=1e-15)
    assert float(autocov(0.25, 1)) == pytest.approx(0.5 * (2 ** 0.5 - 2.0), rel=1e-15)
    # stationarity symmetry and the Brownian case
    assert float(autocov(0.3, -5)) == float(autocov(0.3, 5))
    assert float(autocov(0.5, 3)) == 0.0


@pytest.mark.parametrize("h", [0.1, 0.3, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("lag", [0, 1, 2, 5, 17, 64])
def test_autocov_matches_spectral_integral(h, lag):
    ref = oracles.autocov_spectral_oracle(h, lag)
    assert float(autocov(h, lag)) == pytest.approx(ref, abs=1e-8)


def test_autocov_seq_container():
    seq = autocov_seq(0.7, 32)
    assert isinstance(seq, AutocovSeq)
    assert seq.gammas.shape == (32,)
    assert seq.gammas[0] == 1.0
    lags = np.arange(32)
    assert np.allclose(seq.gammas, autocov(0.7, lags), rtol=0.0, atol=0.0)


def test_f_ratio_integral_identity_and_oracle():
    assert f_ratio_integral(0.2, 0.2) == pytest.approx(1.0, abs=1e-10)
    # the last two sit near the divergence boundary alpha - beta = -1/2
    for a, b in ((0.2, -0.1), (-0.1, 0.15), (0.0, -0.2), (-0.4, 0.05), (-0.398, 0.1)):
        ref = oracles.f_ratio_oracle(a, b)
        assert f_ratio_integral(a, b) == pytest.approx(ref, rel=1e-8), (a, b)


def test_f_ratio_integral_divergence_refused():
    with pytest.raises(ValueError):
        f_ratio_integral(-0.4, 0.3)


def test_f_ratio_derivatives_match_finite_differences():
    # second differences amplify quadrature noise by eps^-2; the fixed rule
    # is smooth in alpha, so Richardson-extrapolate two step sizes
    h_hat = 0.6
    b = h_hat - 0.5

    def second_diff(alpha, eps):
        up = f_ratio_integral(alpha + eps, b)
        mid = f_ratio_integral(alpha, b)
        down = f_ratio_integral(alpha - eps, b)
        return (up - 2.0 * mid + down) / eps ** 2

    for alpha in (-0.1, 0.05, 0.2):
        res = f_ratio_derivatives(alpha, h_hat)
        assert res.value == pytest.approx(
            f_ratio_integral(alpha, b), rel=1e-9)
        eps = 1e-5
        up = f_ratio_integral(alpha + eps, b)
        down = f_ratio_integral(alpha - eps, b)
        assert res.d1 == pytest.approx((up - down) / (2 * eps), rel=2e-5)
        rich = (4.0 * second_diff(alpha, 1e-3) - second_diff(alpha, 2e-3)) / 3.0
        assert res.d2 == pytest.approx(rich, rel=1e-6)


@pytest.mark.parametrize("x", np.concatenate([np.linspace(1.0, 3.0, 41),
                                              np.logspace(-3.0, 4.0, 36)]))
def test_digamma_trigamma_match_scipy(x):
    import scipy.special
    for order, fn in ((0, symbols._digamma), (1, symbols._trigamma)):
        ref = float(scipy.special.polygamma(order, x))
        assert abs(fn(float(x)) - ref) <= 1e-14 * max(1.0, abs(ref))


@pytest.mark.parametrize("a, h", [(0.3, 0.7), (0.7, 0.7), (0.95, 0.3),
                                  (0.25, 0.5), (0.999, 0.95), (0.5, 0.1)])
def test_ratio_value_is_the_triple_value(a, h):
    assert symbols._ratio_value(a, h) == symbols._ratio_triple(a, h).value
