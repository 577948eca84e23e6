import math
import warnings

import numpy as np
import pytest
import scipy.special

from hurstbayes import factorization, symbols
from hurstbayes.factorization import (FourierCoeffs, _outer_root, analytic_sqrt,
                                      factorization_identity_error,
                                      hilbert_transform, q_coefficient_check,
                                      r_coefficient_decay, singular_log_conjugate,
                                      singular_log_series, smooth_part,
                                      split_symbol, torus_grid, w_asymptotics,
                                      w_hat, w_hat_seq, whitening_coeffs)
from hurstbayes.harness import run_factorization_suite
from hurstbayes.symbols import DEFAULT_TRUNCATION, norming_constant, sinai_density

# outer-root values at t = 0 pinned from the factorization pipeline itself;
# these regress both the splitting and the coefficient route
C_ALPHA = {
    0.1: 0.976888, -0.1: 1.062509,
    0.2: 0.997541, -0.2: 1.176170,
    0.25: 1.031429, -0.25: 1.263238,
    0.3: 1.090887, -0.3: 1.384727,
}


def test_torus_grid_midpoints():
    t = torus_grid(10)
    assert t.size == 1024
    step = 2.0 * math.pi / 1024
    assert t[0] == pytest.approx(-math.pi + 0.5 * step)
    assert np.allclose(np.diff(t), step)
    assert not np.any(t == 0.0)
    with pytest.raises(ValueError):
        torus_grid(5)


def test_w_hat_matches_binomial():
    alpha = 0.3
    seq = w_hat_seq(alpha, 8)
    ref = [(-1.0) ** k * scipy.special.binom(alpha, k) for k in range(9)]
    assert np.allclose(seq, ref, rtol=1e-13)
    assert w_hat(alpha, 5) == pytest.approx(seq[5], rel=1e-14)
    assert seq[0] == 1.0


@pytest.mark.parametrize("alpha", [0.2, -0.2, 0.3, -0.3])
def test_w_hat_seq_matches_scalar_recurrence(alpha):
    k_max = 100_000
    ref = np.empty(k_max + 1)
    ref[0] = 1.0
    for k in range(1, k_max + 1):
        ref[k] = ref[k - 1] * (k - 1 - alpha) / k
    assert np.allclose(w_hat_seq(alpha, k_max), ref, rtol=1e-12, atol=0.0)


def test_hilbert_transform_sign_convention():
    m = 1024
    t = torus_grid(10)
    for k in (1, 3, 10):
        conj = hilbert_transform(np.cos(k * t))
        assert np.max(np.abs(conj - np.sin(k * t))) < 1e-12
        conj2 = hilbert_transform(np.sin(k * t))
        assert np.max(np.abs(conj2 + np.cos(k * t))) < 1e-12
    # constants and the Nyquist mode are annihilated
    assert np.max(np.abs(hilbert_transform(np.ones(m)))) == 0.0


def test_singular_log_pair():
    t = torus_grid(10)
    alpha = 0.3
    direct = -2.0 * alpha * np.log(2.0 * np.abs(np.sin(0.5 * t)))
    series = singular_log_series(alpha, t, 200_000)
    # truncation error concentrates at the torus endpoints
    assert np.max(np.abs(series - direct)) < 2e-3
    away = np.abs(t) > 0.1
    assert np.max(np.abs(series - direct)[away]) < 1e-4
    # the conjugate of the log weight is the sawtooth alpha*sign(t)*(pi-|t|)
    sawtooth = alpha * np.sign(t) * (math.pi - np.abs(t))
    series_conj = singular_log_conjugate(alpha, t, 200_000)
    assert np.max(np.abs(series_conj - sawtooth)[away]) < 1e-3


def test_smooth_part_limits():
    t = torus_grid(10)
    for alpha in (0.2, -0.3):
        vals = smooth_part(alpha, t)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
        c = norming_constant(alpha + 0.5)
        assert smooth_part(alpha, np.array([0.0]))[0] == pytest.approx(c, rel=1e-12)
    # alpha = 0 collapses to the flat density
    assert np.max(np.abs(smooth_part(0.0, t) - 1.0)) < 1e-12


def test_split_symbol_reassembles_density():
    alpha = 0.25
    power, smooth = split_symbol(alpha, 1 << 10)
    assert power == pytest.approx(-2.0 * alpha)
    t = torus_grid(10)
    reassembled = (2.0 * np.abs(np.sin(0.5 * t))) ** power * smooth
    assert np.allclose(reassembled, sinai_density(alpha + 0.5, t), rtol=1e-10)


def test_analytic_sqrt_on_moving_average_symbol():
    # f = |1 - rho e^{it}|^2 has outer square root 1 - rho e^{it} exactly
    rho = 0.4
    t = torus_grid(12)
    f = np.abs(1.0 - rho * np.exp(1j * t)) ** 2
    root = analytic_sqrt(f)
    coeffs = root.values.real
    assert coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert coeffs[1] == pytest.approx(-rho, abs=1e-12)
    assert np.max(np.abs(coeffs[2:])) < 1e-12
    assert root.anti_analytic < 1e-13
    # |root|^2 reproduces f on the grid
    assert np.max(np.abs(np.abs(root.sample(12)) ** 2 - f)) < 1e-12


def test_analytic_sqrt_rejects_bad_symbols():
    t = torus_grid(10)
    with pytest.raises(ValueError):
        analytic_sqrt(np.sin(t))  # changes sign
    with pytest.raises(ValueError):
        analytic_sqrt(np.full(t.size, np.nan))


def test_fourier_coeffs_container():
    with pytest.raises(ValueError):
        FourierCoeffs(np.array([1.0j, 0.5]))  # complex zeroth coefficient
    fc = FourierCoeffs(np.array([2.0, 1.0, 0.5]))
    assert fc.k_max == 2
    assert fc.at_zero() == pytest.approx(3.5)
    with pytest.raises(ValueError):
        fc.sample(1)


@pytest.mark.parametrize("alpha", [0.2, -0.2, 0.3, -0.3])
def test_factorization_identity_on_grid(alpha):
    _, r, _ = whitening_coeffs(alpha)
    err = factorization_identity_error(alpha, r)
    assert err < 1e-6, err


@pytest.mark.parametrize("alpha", sorted(C_ALPHA))
def test_outer_root_constant_frozen(alpha):
    _, r, _ = whitening_coeffs(alpha)
    assert r.at_zero().real == pytest.approx(C_ALPHA[alpha], rel=1e-5)


@pytest.mark.filterwarnings("ignore:decay-fit window shrunk:RuntimeWarning")
@pytest.mark.parametrize("alpha", [0.25, -0.25])
def test_q_residual_decay(alpha):
    rep = q_coefficient_check(alpha)
    assert rep.passed and not rep.failed_floor
    assert rep.residual_slope <= rep.slope_target + 0.2
    assert rep.c_alpha == pytest.approx(C_ALPHA[alpha], rel=1e-5)
    assert rep.identity_error < 1e-6


@pytest.mark.parametrize("alpha", [0.3, -0.3])
def test_r_coefficient_decay_exponent(alpha):
    with warnings.catch_warnings():
        # fast decay at positive alpha hits the noise floor; shrinking warns
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = r_coefficient_decay(alpha)
    assert fit.target == pytest.approx(-3.0 - 2.0 * alpha)
    assert abs(fit.slope - fit.target) <= 0.3
    if alpha > 0:
        assert fit.shrunk


def test_w_asymptotics_classical_constant():
    for alpha in (0.2, -0.3):
        rep = w_asymptotics(alpha)
        assert rep.classical == pytest.approx(1.0 / scipy.special.gamma(-alpha),
                                              rel=1e-12)
        assert rep.matches == "classical"
        assert rep.measured == pytest.approx(rep.classical, rel=1e-4)
    with pytest.raises(ValueError):
        w_asymptotics(0.0)


@pytest.mark.parametrize("alpha", [0.2, -0.3])
def test_suite_evaluates_lattice_once_on_half_grid(alpha, monkeypatch):
    # one q_coefficient_check per exponent feeds the identity, q-residual and
    # r-decay records: a single lattice pass over the 2^15 positive midpoints
    norming_constant(alpha + 0.5)  # the lru-cached quadrature is not counted
    points = []
    original = symbols.lattice_sum_regular

    def counting(t, *args, **kwargs):
        points.append(np.size(t))
        return original(t, *args, **kwargs)

    monkeypatch.setattr(symbols, "lattice_sum_regular", counting)
    monkeypatch.setattr(factorization, "lattice_sum_regular", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run_factorization_suite([alpha])
    assert sum(points) == 1 << 15


@pytest.mark.parametrize("alpha", [0.2, -0.3])
def test_outer_root_samples_are_even_and_match_full_grid(alpha):
    smooth, r = _outer_root(alpha, 16, DEFAULT_TRUNCATION)
    assert smooth.size == 1 << 16
    assert np.array_equal(smooth, smooth[::-1])
    full = smooth_part(alpha, torus_grid(16))
    assert np.allclose(smooth, full, rtol=1e-14, atol=0.0)
    assert r.k_max == (1 << 14)


# (identity error, q-residual slope, r-decay slope, w-hat tail constant) of
# the factorization suite, frozen from the three-pass full-grid evaluation
FACTORIZATION_RECORDS = {
    0.2: (7.137623825315131e-13, -2.202405464910705, -3.399080389052542,
          -0.1717876099908469),
    -0.2: (6.364484494980616e-09, -1.8184648542807262, -2.61789276809606,
           0.21782470995112244),
    0.3: (1.1057821325266559e-13, -2.3024970745278814, -3.5987003815700196,
          -0.23111540583521253),
    -0.3: (1.0557273988354154e-07, -1.709005078393704, -2.4237643980512957,
           0.33427240157858074),
}


@pytest.mark.filterwarnings("ignore:decay-fit window shrunk:RuntimeWarning")
@pytest.mark.parametrize("alpha", sorted(FACTORIZATION_RECORDS))
def test_factorization_suite_records_frozen(alpha):
    rep = run_factorization_suite([alpha])
    assert rep.passed()
    got = [r.statistic for r in rep.records]
    assert got == pytest.approx(list(FACTORIZATION_RECORDS[alpha]),
                                rel=1e-6, abs=1e-12)
