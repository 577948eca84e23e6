"""One-sided (Wiener-Hopf) square roots of the noise symbol.

The reciprocal symbol 1/g_alpha factors as |q(e^{it})|^2 with q analytic in
the disc: q_alpha = w_alpha * r_alpha, where w_alpha(t) = (1 - e^{it})^alpha
carries the singularity exactly through its binomial coefficients and
r_alpha is the outer square root of the smooth positive remainder,
constructed as exp((log psi^2 + i H0 log psi^2)/2) with H0 the conjugate
function on the torus.

All grid work in this module uses the midpoint grid t_j = -pi + (j+1/2)*2pi/m
(never sampling t = 0, where the symbol is singular); m is a power of two,
default 2^16, and coefficients beyond m/4 are discarded as an aliasing guard.

The smooth remainder depends on |t| only and the midpoint grid is symmetric,
so each check evaluates its lattice sums once, on the m/2 positive points,
and mirrors them.  One outer root r is built from those samples per exponent
and feeds every diagnostic: the grid identity |q|^2 g_alpha = 1 is checked as
max | |r(t)|^2 * smooth(t) - 1 |, since |w|^2 g_alpha equals smooth
identically, and the q-residual and r-decay fits read the same coefficients.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.fft
import scipy.special

from .symbols import (DEFAULT_TRUNCATION, SinaiTruncation, _symbol_value,
                      lattice_sum_regular, norming_constant)
# not called here; perfbench/tracing.py wraps this name of the module
from .symbols import sinai_density  # noqa: F401

__all__ = [
    "FourierCoeffs", "DecayFit", "QCheckReport", "WAsymptoticsReport",
    "torus_grid", "w_hat", "w_hat_seq", "hilbert_transform",
    "singular_log_series", "singular_log_conjugate", "smooth_part",
    "split_symbol", "analytic_sqrt", "whitening_coeffs",
    "factorization_identity_error", "q_coefficient_check",
    "r_coefficient_decay", "w_asymptotics",
]

_MIN_LOG2 = 10
DEFAULT_LOG2_GRID = 16


def _check_grid_size(m: int):
    if m < (1 << _MIN_LOG2) or m & (m - 1):
        raise ValueError(f"grid size must be a power of two >= 2^{_MIN_LOG2}")


def torus_grid(log2_m: int = DEFAULT_LOG2_GRID) -> np.ndarray:
    """Midpoint grid of 2^log2_m points on (-pi, pi); t = 0 is never hit."""
    if log2_m < _MIN_LOG2:
        raise ValueError(f"need at least 2^{_MIN_LOG2} grid points")
    m = 1 << log2_m
    step = 2.0 * math.pi / m
    return -math.pi + (np.arange(m) + 0.5) * step


@dataclass(frozen=True)
class FourierCoeffs:
    """One-sided coefficients values[k], k = 0..K, of an analytic function.

    ``anti_analytic`` records the relative size of the negative-frequency
    content that was discarded; for a genuinely analytic construction it sits
    at roundoff level.
    """
    values: np.ndarray
    anti_analytic: float = 0.0

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=complex)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("coefficients must form a nonempty vector")
        scale = np.max(np.abs(v))
        if scale > 0 and abs(v[0].imag) > 1e-8 * scale:
            raise ValueError("zeroth coefficient must be real")
        v[0] = v[0].real
        object.__setattr__(self, "values", v)

    @property
    def k_max(self) -> int:
        return self.values.size - 1

    def sample(self, log2_m: int) -> np.ndarray:
        """Evaluate the truncated series on the midpoint grid of 2^log2_m."""
        m = 1 << log2_m
        if m < self.values.size:
            raise ValueError("grid too small for the stored coefficients")
        step = 2.0 * math.pi / m
        padded = np.zeros(m, dtype=complex)
        k = np.arange(self.values.size)
        padded[:self.values.size] = self.values * np.exp(1j * k * (-math.pi + 0.5 * step))
        return np.fft.ifft(padded) * m

    def at_zero(self) -> complex:
        """Function value at t = 0 (sum of the coefficients)."""
        return complex(np.sum(self.values))


def w_hat_seq(alpha, k_max: int) -> np.ndarray:
    """Coefficients (-1)^k binom(alpha, k) of (1-z)^alpha for k = 0..k_max,
    by the stable ratio recurrence."""
    av = _symbol_value(alpha)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    k = np.arange(1.0, k_max + 1)
    return np.concatenate(([1.0], np.cumprod((k - 1.0 - av) / k)))


def w_hat(alpha, k: int) -> float:
    """Single coefficient of (1-z)^alpha; see w_hat_seq."""
    return float(w_hat_seq(alpha, int(k))[-1])


def hilbert_transform(samples: np.ndarray) -> np.ndarray:
    """Conjugate function on a uniform torus grid: multiplier -i*sgn(k),
    zero at k = 0 and at the Nyquist bin."""
    x = np.asarray(samples, dtype=float)
    m = x.size
    _check_grid_size(m)
    fx = np.fft.fft(x)
    mult = np.empty(m, dtype=complex)
    mult[0] = 0.0
    mult[1:m // 2] = -1j
    mult[m // 2] = 0.0
    mult[m // 2 + 1:] = 1j
    return np.fft.ifft(fx * mult).real


def singular_log_series(alpha, t: np.ndarray, k_terms: int) -> np.ndarray:
    """Band-limited truncation of -2*alpha*log|2 sin(t/2)|, which expands as
    2*alpha * sum_{k>=1} cos(kt)/k."""
    av = _symbol_value(alpha)
    t = np.asarray(t, dtype=float)
    k = np.arange(1, k_terms + 1)
    return 2.0 * av * (np.cos(np.multiply.outer(t, k)) / k).sum(axis=-1)


def singular_log_conjugate(alpha, t: np.ndarray, k_terms: int) -> np.ndarray:
    """Closed-form conjugate of the truncated series above:
    2*alpha * sum_{k<=K} sin(kt)/k.  The grid transform must reproduce this;
    it is how the singular part of log g_alpha is conjugated analytically
    instead of through the grid."""
    av = _symbol_value(alpha)
    t = np.asarray(t, dtype=float)
    k = np.arange(1, k_terms + 1)
    return 2.0 * av * (np.sin(np.multiply.outer(t, k)) / k).sum(axis=-1)


def _half_sinc(t: np.ndarray) -> np.ndarray:
    # sin(t/2)/(t/2), strictly positive on [-pi, pi]
    return np.sinc(t / (2.0 * math.pi))


def smooth_part(alpha, t, trunc: SinaiTruncation = DEFAULT_TRUNCATION) -> np.ndarray:
    """Samples of psi_alpha^{-2} = g_alpha * |1-e^{it}|^{2*alpha}: the strictly
    positive smooth remainder once the singular factor is peeled off.

    Evaluated in the cancellation-free form
    C * (sin(t/2)/(t/2))^s * (1 + |t|^s * S(t)), s = 2 + 2*alpha,
    whose t -> 0 limit is the norming constant C itself.
    """
    av = _symbol_value(alpha)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(np.abs(t) > math.pi * (1 + 1e-12)):
        raise ValueError("torus argument expected in [-pi, pi]")
    s = 2.0 + 2.0 * av
    c = norming_constant(av + 0.5, trunc)
    out = np.full(t.shape, c)
    nz = t != 0.0
    tn = t[nz]
    lattice = lattice_sum_regular(np.abs(tn), s, trunc)
    out[nz] = c * _half_sinc(tn) ** s * (1.0 + np.abs(tn) ** s * lattice)
    return out


def split_symbol(alpha, grid_size: int,
                 trunc: SinaiTruncation = DEFAULT_TRUNCATION):
    """Split g_alpha into its pure power singularity and smooth remainder.

    Returns (singular_exponent, smooth_samples) with
    g_alpha(t) = |1-e^{it}|^{singular_exponent} * smooth(t); the exponent is
    -2*alpha and the samples live on the midpoint grid of ``grid_size``.
    """
    av = _symbol_value(alpha)
    _check_grid_size(grid_size)
    return -2.0 * av, _smooth_samples(av, int(math.log2(grid_size)), trunc)


def _smooth_samples(av: float, log2_m: int, trunc: SinaiTruncation) -> np.ndarray:
    # smooth_part depends on |t| only and the midpoint grid is symmetric:
    # evaluate the positive half and mirror it, so the samples are exactly even
    m = 1 << log2_m
    half = smooth_part(av, torus_grid(log2_m)[m // 2:], trunc)
    return np.concatenate((half[::-1], half))


def _outer_root(av: float, log2_m: int, trunc: SinaiTruncation):
    """Smooth-remainder samples on the midpoint grid and the outer root r of
    their reciprocal psi^2 = 1/smooth; one lattice pass over m/2 points."""
    smooth = _smooth_samples(av, log2_m, trunc)
    return smooth, analytic_sqrt(1.0 / smooth)


def _coeffs_from_midpoint_samples(x: np.ndarray) -> np.ndarray:
    m = x.size
    step = 2.0 * math.pi / m
    k = np.arange(m)
    # signed frequencies: bins above m/2 alias to k - m
    k_signed = np.where(k <= m // 2, k, k - m)
    phase = np.exp(1j * k_signed * (math.pi - 0.5 * step))
    return phase * np.fft.fft(x) / m


def analytic_sqrt(f_samples: np.ndarray,
                  anti_analytic_tol: float = 1e-8) -> FourierCoeffs:
    """One-sided square root of a positive function on the midpoint grid.

    Returns coefficients of q analytic in the disc with q * conj(q) = f,
    q(0) > 0 (outer normalization).  Coefficients beyond m/4 are discarded;
    the relative mass found at negative frequencies is recorded and a warning
    is raised if it exceeds ``anti_analytic_tol`` (non-smooth input).
    """
    f = np.asarray(f_samples, dtype=float)
    m = f.size
    _check_grid_size(m)
    if not np.all(np.isfinite(f)) or np.any(f <= 0.0):
        raise ValueError("samples must be finite and strictly positive")
    log_f = np.log(f)
    conj = hilbert_transform(log_f)
    q = np.exp(0.5 * log_f + 0.5j * conj)
    coeffs = _coeffs_from_midpoint_samples(q)
    scale = np.max(np.abs(coeffs))
    residual = float(np.max(np.abs(coeffs[m // 2 + 1:])) / scale)
    if residual > anti_analytic_tol:
        warnings.warn(
            f"negative-frequency content {residual:.2e} above tolerance; "
            "input may be insufficiently smooth for the requested accuracy",
            RuntimeWarning, stacklevel=2)
    return FourierCoeffs(coeffs[:m // 4 + 1], residual)


def whitening_coeffs(alpha, log2_m: int = DEFAULT_LOG2_GRID,
                     trunc: SinaiTruncation = DEFAULT_TRUNCATION):
    """Assemble the one-sided root of 1/g_alpha: q_alpha = w_alpha * r_alpha.

    Returns (w, r, q): binomial coefficients of (1-z)^alpha, the outer-root
    coefficients of psi^2 = 1/smooth, and their convolution q_hat, all
    indexed 0..m/4.  The coefficients are real (even symbol); the imaginary
    residue is checked before it is dropped.
    """
    av = _symbol_value(alpha)
    r = _outer_root(av, log2_m, trunc)[1]
    w, q = _whiten(av, r)
    return w, r, q


def _whiten(av: float, r: FourierCoeffs):
    # q_hat = w_hat * r_hat over 0..k_max, after checking r_hat is real
    imag = np.max(np.abs(r.values.imag)) / max(np.max(np.abs(r.values)), 1e-300)
    if imag > 1e-10:
        warnings.warn(f"outer-root coefficients carry imaginary residue {imag:.2e}",
                      RuntimeWarning, stacklevel=2)
    r_real = r.values.real
    k_max = r_real.size - 1
    w = w_hat_seq(av, k_max)
    # zero-padded to the full linear-convolution length, so nothing wraps
    size = scipy.fft.next_fast_len(2 * k_max + 1, real=True)
    q = scipy.fft.irfft(scipy.fft.rfft(w, size) * scipy.fft.rfft(r_real, size), size)
    return w, q[:k_max + 1]


def factorization_identity_error(alpha, r: FourierCoeffs,
                                 log2_m: int = DEFAULT_LOG2_GRID,
                                 trunc: SinaiTruncation = DEFAULT_TRUNCATION) -> float:
    """Max relative error of |q|^2 * g_alpha = 1 over the midpoint grid,
    with q = w_alpha(t) * r(t) and r from its stored (truncated)
    coefficients.  Since |w_alpha|^2 * g_alpha is the smooth remainder, this
    is max | |r(t)|^2 * smooth(t) - 1 |."""
    av = _symbol_value(alpha)
    return _identity_error(r, _smooth_samples(av, log2_m, trunc), log2_m)


def _identity_error(r: FourierCoeffs, smooth: np.ndarray, log2_m: int) -> float:
    return float(np.max(np.abs(np.abs(r.sample(log2_m)) ** 2 * smooth - 1.0)))


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of log|coefficients| against log k."""
    slope: float
    target: float
    window: tuple
    shrunk: bool = False


def _log_log_slope(values: np.ndarray, k_lo: int, k_hi: int):
    k = np.unique(np.geomspace(k_lo, k_hi, 200).astype(int))
    mag = np.abs(values[k])
    keep = mag > 0.0
    k, mag = k[keep], mag[keep]
    if k.size < 10:
        raise ValueError("too few usable coefficients in the fit window")
    slope = np.polyfit(np.log(k), np.log(mag), 1)[0]
    return float(slope)


def r_coefficient_decay(alpha, k_max: Optional[int] = None,
                        log2_m: int = DEFAULT_LOG2_GRID,
                        trunc: SinaiTruncation = DEFAULT_TRUNCATION) -> DecayFit:
    """Fitted decay exponent of the outer-root coefficients over a decade;
    the expected rate is -3 - 2*alpha.

    If the coefficients sink into the double-precision noise floor inside the
    window, the window is shrunk (with a warning) until they clear it.
    """
    av = _symbol_value(alpha)
    return _r_decay_fit(av, _outer_root(av, log2_m, trunc)[1], k_max)


def _r_decay_fit(av: float, r: FourierCoeffs, k_max: Optional[int]) -> DecayFit:
    mags = np.abs(r.values.real)
    k_hi = r.values.size - 1 if k_max is None else min(k_max, r.values.size - 1)
    floor = 1e-13 * np.max(mags)
    shrunk = False
    while k_hi >= 40 and np.min(mags[max(k_hi // 10, 2):k_hi + 1]) < floor:
        k_hi //= 2
        shrunk = True
    if shrunk:
        warnings.warn("decay-fit window shrunk: coefficients reached the "
                      "double-precision noise floor", RuntimeWarning, stacklevel=3)
    k_lo = max(k_hi // 10, 2)
    slope = _log_log_slope(mags, k_lo, k_hi)
    return DecayFit(slope, -3.0 - 2.0 * av, (k_lo, k_hi), shrunk)


@dataclass(frozen=True)
class QCheckReport:
    """Diagnostics of the whitening-coefficient asymptotics.

    q_hat(k) tracks c_alpha * w_hat(k); the residual must decay near
    k^{-(2+alpha)}, one power faster than w_hat itself.  ``passed`` applies
    the fitted-slope criterion; ``failed_floor`` flags a residual no better
    than trivial cancellation.  ``r_decay`` is the decay fit of the same
    outer-root coefficients (see r_coefficient_decay).
    """
    alpha: float
    c_alpha: float
    residual_slope: float
    slope_target: float
    window: tuple
    passed: bool
    failed_floor: bool
    identity_error: float
    r_decay: DecayFit


def q_coefficient_check(alpha, k_max: int = 10_000,
                        log2_m: int = DEFAULT_LOG2_GRID,
                        trunc: SinaiTruncation = DEFAULT_TRUNCATION) -> QCheckReport:
    """Build q_hat = w_hat * r_hat, estimate c_alpha = r(0), and fit the decay
    of the residual q_hat - c_alpha * w_hat over k in [100, k_max].  The grid
    identity and the r-hat decay fit come from the same outer root.

    Truncating r at m/4 leaves an identity error of about m^-(2+2 alpha): at
    alpha = -0.4 it is 2.0e-6, 8.8e-7 and 3.8e-7 at m = 2^16, 2^17 and 2^18,
    so a 1e-6 identity tolerance holds on the default 2^16 grid only for
    alpha above about -0.375 (8.0e-7 at -0.37, 1.08e-6 at -0.38).
    """
    av = _symbol_value(alpha)
    m = 1 << log2_m
    if k_max > m // 4:
        raise ValueError("k_max must not exceed a quarter of the grid")
    smooth, r = _outer_root(av, log2_m, trunc)
    w, q = _whiten(av, r)
    c_alpha = float(r.at_zero().real)
    if not math.isfinite(c_alpha) or c_alpha == 0.0:
        raise ArithmeticError("outer-root limit at t=0 must be finite nonzero")
    residual = q - c_alpha * w
    k_lo = 100
    slope = _log_log_slope(residual, k_lo, k_max)
    target = -(2.0 + av) + 0.2
    floor = -1.0 - av - 0.1
    return QCheckReport(av, c_alpha, slope, -(2.0 + av), (k_lo, k_max),
                        passed=slope <= target, failed_floor=slope > floor,
                        identity_error=_identity_error(r, smooth, log2_m),
                        r_decay=_r_decay_fit(av, r, None))


@dataclass(frozen=True)
class WAsymptoticsReport:
    """Empirical limit of k^{1+alpha} * w_hat(k) against the two candidate
    closed forms; ``matches`` names the closer one."""
    alpha: float
    k: int
    measured: float
    classical: float       # 1 / Gamma(-alpha)
    alternative: float     # 1 / Gamma(-(1+alpha))
    matches: str = field(init=False)

    def __post_init__(self):
        err_c = abs(self.measured - self.classical)
        err_a = abs(self.measured - self.alternative)
        object.__setattr__(self, "matches",
                           "classical" if err_c <= err_a else "alternative")


def w_asymptotics(alpha, k: int = 100_000) -> WAsymptoticsReport:
    """Measure the constant in w_hat(k) ~ const * k^{-1-alpha} and report it
    next to 1/Gamma(-alpha) and 1/Gamma(-(1+alpha)); the winner is determined
    empirically, neither is assumed."""
    av = _symbol_value(alpha)
    if av == 0.0:
        raise ValueError("asymptotic constant is degenerate at alpha = 0")
    measured = w_hat(av, k) * float(k) ** (1.0 + av)
    classical = 1.0 / scipy.special.gamma(-av)
    alternative = 1.0 / scipy.special.gamma(-(1.0 + av))
    return WAsymptoticsReport(av, int(k), measured, classical, alternative)
