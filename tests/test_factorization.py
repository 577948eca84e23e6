import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.fft
import scipy.special

import oracles
from hurstbayes import factorization, symbols
from hurstbayes.factorization import (FourierCoeffs, _outer_root, analytic_sqrt,
                                      factorization_identity_error,
                                      hilbert_transform, q_coefficient_check,
                                      r_coefficient_decay, singular_log_conjugate,
                                      singular_log_series, smooth_part,
                                      split_symbol, torus_grid, w_asymptotics,
                                      w_hat, w_hat_seq, whitening_coeffs)
from hurstbayes.harness import run_factorization_suite
from hurstbayes.symbols import norming_constant, sinai_density

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


@pytest.mark.parametrize("alpha", [0.2, -0.2, 0.3, -0.3, 0.45, -0.45])
def test_w_hat_closed_form_matches_mpmath_binomial(alpha):
    # k = 29, 30, 31 straddle the switch from Gamma values to Stirling's series
    for k in (0, 1, 2, 7, 29, 30, 31, 100, 1000, 9_999, 100_000):
        ref = (-1) ** k * mp.binomial(mp.mpf(alpha), k)
        assert w_hat(alpha, k) == pytest.approx(float(ref), rel=1e-10, abs=0.0), k


def test_w_hat_edge_cases():
    assert w_hat(0.3, 0) == 1.0 and w_hat(0.0, 0) == 1.0
    assert all(w_hat(0.0, k) == 0.0 for k in (1, 5, 100_000))
    with pytest.raises(ValueError):
        w_hat(0.3, -1)


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


def _moving_average_symbol(rho=0.4, log2_m=12):
    # f = |1 - rho e^{it}|^2 has outer square root 1 - rho e^{it} exactly
    t = torus_grid(log2_m)
    return np.abs(1.0 - rho * np.exp(1j * t)) ** 2


def test_analytic_sqrt_on_moving_average_symbol():
    rho = 0.4
    f = _moving_average_symbol(rho)
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
    with pytest.raises(ValueError, match="even"):
        analytic_sqrt(2.0 + np.sin(t))  # positive but not even


def test_anti_analytic_warning_flags_a_jump():
    # an even symbol with jumps at |t| = 1 has no smooth outer root: the
    # discarded negative frequencies are far above roundoff
    t = torus_grid(12)
    f = 2.5 + np.sign(np.abs(t) - 1.0)
    with pytest.warns(RuntimeWarning, match="negative-frequency content"):
        root = analytic_sqrt(f)
    _, reference = oracles.outer_root_full_grid(f)
    assert root.anti_analytic == pytest.approx(reference, rel=1e-9)
    assert root.anti_analytic == pytest.approx(1.44e-4, rel=0.01)


def test_smooth_symbol_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root = analytic_sqrt(_moving_average_symbol())
    assert root.anti_analytic < 1e-13


@pytest.mark.parametrize("alpha", [0.2, -0.2, 0.3, -0.3, -0.4, "ma1"])
def test_outer_root_matches_full_grid_reference(alpha):
    # the half-grid cosine/sine construction against complex FFTs over the
    # whole grid
    if alpha == "ma1":
        f = _moving_average_symbol()
        r = analytic_sqrt(f)
    else:
        smooth, r = _outer_root(alpha)
        f = 1.0 / np.concatenate((smooth[::-1], smooth))
    reference, _ = oracles.outer_root_full_grid(f)
    assert r.k_max == reference.size - 1
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(r.values - reference)) <= 1e-14 * scale


@pytest.mark.parametrize("alpha", [None, 0.2])
def test_half_grid_conjugate_matches_hilbert_transform(alpha):
    m = 1 << 12
    if alpha is None:
        half = np.random.default_rng(3).standard_normal(m // 2)
        x = np.concatenate((half[::-1], half))
    else:
        x = -np.log(split_symbol(alpha, m)[1])
    full = hilbert_transform(x)
    got = factorization._half_grid_conjugate(x[m // 2:])
    assert np.max(np.abs(got - full[m // 2:])) <= 1e-13 * np.max(np.abs(x))


@pytest.mark.parametrize("n", [1024, 1 << 15])
def test_real_transforms_match_scipy(n):
    # the numpy real-FFT cosine and sine transforms against scipy.fft's
    # unnormalized types II and III, the type III also zero-padded to n
    x = np.random.default_rng(n).standard_normal(n)
    pairs = [(factorization._dct2(x), scipy.fft.dct(x, 2)),
             (factorization._dst2(x), scipy.fft.dst(x, 2)),
             (factorization._dct3(x, n), scipy.fft.dct(x, 3)),
             (factorization._dst3(x, n), scipy.fft.dst(x, 3))]
    for size in (1, 300, n // 2 + 1, n - 1):
        pairs += [(factorization._dct3(x[:size], n), scipy.fft.dct(x[:size], 3, n=n)),
                  (factorization._dst3(x[:size], n), scipy.fft.dst(x[:size], 3, n=n))]
    for got, ref in pairs:
        assert got.shape == (n,)
        assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))


def test_fourier_coeffs_sample_matches_direct_sum():
    values = np.random.default_rng(4).standard_normal(300) / np.arange(1, 301)
    t = torus_grid(10)
    direct = np.exp(1j * np.multiply.outer(t, np.arange(300))) @ values
    got = FourierCoeffs(values).sample(10)
    assert np.max(np.abs(got - direct)) < 1e-13
    with pytest.raises(ValueError):
        FourierCoeffs(values).sample(9)  # 300 coefficients need K < m/2


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
    # (the norming constant is a closed form and evaluates no lattice sum)
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
    # the outer root reads the smooth part on the 2^15 positive midpoints;
    # split_symbol mirrors the same samples onto the whole grid
    smooth, r = _outer_root(alpha)
    assert np.array_equal(smooth, smooth_part(alpha, torus_grid(16)[1 << 15:]))
    assert r.k_max == (1 << 14)
    mirrored = split_symbol(alpha, 1 << 16)[1]
    assert np.array_equal(mirrored, mirrored[::-1])
    full = smooth_part(alpha, torus_grid(16))
    assert np.allclose(mirrored, full, rtol=1e-14, atol=0.0)


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
