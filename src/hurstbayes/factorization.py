"""One-sided (Wiener-Hopf) square roots of the noise symbol.

The reciprocal symbol 1/g_alpha factors as |q(e^{it})|^2 with q analytic in
the disc: q_alpha = w_alpha * r_alpha, where w_alpha(t) = (1 - e^{it})^alpha
carries the singularity exactly through its binomial coefficients and
r_alpha is the outer square root of the smooth positive remainder,
constructed as exp((log psi^2 + i H0 log psi^2)/2) with H0 the conjugate
function on the torus.

All grid work in this module uses the midpoint grid t_j = -pi + (j+1/2)*2pi/m
(never sampling t = 0, where the symbol is singular); m is a power of two,
and coefficients beyond m/4 are discarded as an aliasing guard.  The four
alpha-to-report functions (``whitening_coeffs``,
``factorization_identity_error``, ``r_coefficient_decay`` and
``q_coefficient_check``) all work on the one grid m = 2^``DEFAULT_LOG2_GRID``
= 2^16; only ``torus_grid``, ``split_symbol`` and ``FourierCoeffs.sample``
take a grid size.  An outer root whose discarded negative-frequency share
exceeds ``_ANTI_ANALYTIC_TOL`` = 1e-8 warns.

Every symbol factored here is even, so the outer root is built from the
N = m/2 positive midpoints t_i = pi(i+1/2)/N alone, with real cosine and
sine transforms of length N: a DCT-II of log psi^2, shifted one place and
fed to a DST-III, gives its conjugate; q = exp(log psi^2 / 2) (cos, sin) of
half that conjugate; and a DCT-II of Re q with a DST-II of Im q gives the
real coefficients, C_k + S_k at k >= 0 and the discarded negative-frequency
content C_k - S_k.  On the other half of the grid q(-t) = conj q(t).
Those transforms are built here on numpy's real FFT (Makhoul's reordering
for the DCT-II and its inverse for the DCT-III; each DST is a DCT of the
sign-alternated or reversed input), and the Gamma-function constants come
from ``math``, so the module needs numpy alone.

The smooth remainder depends on |t| only, so its lattice sums are evaluated
once, on those positive points.  One outer root r is built from them per
exponent and feeds every diagnostic: the grid identity |q|^2 g_alpha = 1 is
checked as max | |r(t)|^2 * smooth(t) - 1 | over the positive points (|r|^2
is even), since |w|^2 g_alpha equals smooth identically, and the q-residual
and r-decay fits read the same coefficients.  The smooth samples and r
depend on the exponent alone, so each is built once per exponent per
process and kept for the last ``_OUTER_ROOT_CACHE`` = 8 exponents (about
384 KiB each); they are shared by every caller, so their arrays, and the r
that ``whitening_coeffs`` returns, are read-only.  The anti-analytic
warning is checked on every call, cached or not.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .symbols import _symbol_value, lattice_sum_regular, norming_constant
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
_ANTI_ANALYTIC_TOL = 1e-8


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
    """Real one-sided coefficients values[k], k = 0..K, of an analytic
    function that is the outer root of an even symbol.

    ``anti_analytic`` records the relative size of the negative-frequency
    content that was discarded; for a genuinely analytic construction it sits
    at roundoff level.
    """
    values: np.ndarray
    anti_analytic: float = 0.0

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError("coefficients of the root of an even symbol are real")
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("coefficients must form a nonempty vector")
        object.__setattr__(self, "values", v)

    @property
    def k_max(self) -> int:
        return self.values.size - 1

    def sample(self, log2_m: int) -> np.ndarray:
        """Evaluate the truncated series on the midpoint grid of 2^log2_m.

        The m/2 positive midpoints come from one cosine and one sine
        transform (so K must stay below m/2); real coefficients make the
        negative half their complex conjugates, mirrored.
        """
        n = (1 << log2_m) // 2
        if n < self.values.size:
            raise ValueError("grid too small for the stored coefficients")
        re, im = _half_grid_values(self.values, n)
        half = re + 1j * im
        return np.concatenate((half[::-1].conj(), half))

    def at_zero(self) -> float:
        """Function value at t = 0 (sum of the coefficients)."""
        return float(np.sum(self.values))


def w_hat_seq(alpha, k_max: int) -> np.ndarray:
    """Coefficients (-1)^k binom(alpha, k) of (1-z)^alpha for k = 0..k_max,
    by the stable ratio recurrence."""
    av = _symbol_value(alpha)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    k = np.arange(1.0, k_max + 1)
    return np.concatenate(([1.0], np.cumprod((k - 1.0 - av) / k)))


# w_hat switches from Gamma values to Stirling's series at this k
_STIRLING_K = 30


def _stirling_series(z: float) -> float:
    # log Gamma(z) - ((z - 1/2) log z - z + log(2 pi)/2), z >= 29.5; the next
    # term, 1/(1188 z^9), is below 1e-16
    z2 = 1.0 / (z * z)
    return (1.0 / 12.0 - z2 * (1.0 / 360.0 - z2 * (1.0 / 1260.0 - z2 / 1680.0))) / z


def _log_gamma_ratio_rest(k: int, av: float) -> float:
    # log Gamma(k - av) - log Gamma(k + 1) + (1 + av) log k: the Stirling
    # difference with log(k - av) and log(k + 1) split as log k + log1p
    return ((k - av - 0.5) * math.log1p(-av / k) - (k + 0.5) * math.log1p(1.0 / k)
            + 1.0 + av + _stirling_series(k - av) - _stirling_series(k + 1.0))


def w_hat(alpha, k: int) -> float:
    """Single coefficient (-1)^k binom(alpha, k) of (1-z)^alpha, in closed
    form: Gamma(k - alpha) / (Gamma(-alpha) k!), which is 0 for k >= 1 at
    alpha = 0.

    Below ``_STIRLING_K`` the Gamma values are taken directly; above it the
    ratio Gamma(k - alpha) / k! comes from Stirling's series, written so that
    its O(1) parts cancel before the large log k term is added (a difference
    of two lgamma values near 1e6 would lose about 1e-10 at k = 1e5)."""
    av = _symbol_value(alpha)
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1.0
    if av == 0.0:
        return 0.0
    if k < _STIRLING_K:
        return math.gamma(k - av) / (math.gamma(-av) * math.gamma(k + 1.0))
    return math.exp(_log_gamma_ratio_rest(k, av)) * float(k) ** (-1.0 - av) / math.gamma(-av)


def hilbert_transform(samples: np.ndarray) -> np.ndarray:
    """Conjugate function on a uniform torus grid: multiplier -i*sgn(k),
    zero at k = 0 and at the Nyquist bin."""
    x = np.asarray(samples, dtype=float)
    m = x.size
    _check_grid_size(m)
    fx = np.fft.rfft(x)
    fx[0] = 0.0
    fx[-1] = 0.0
    return np.fft.irfft(-1j * fx, n=m)


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
    # sin(t/2)/(t/2) at nonzero t, strictly positive on [-pi, pi]
    half = 0.5 * t
    return np.sin(half) / half


def smooth_part(alpha, t) -> np.ndarray:
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
    c = norming_constant(av + 0.5)
    out = np.full(t.shape, c)
    nz = t != 0.0
    tn = t[nz]
    lattice = lattice_sum_regular(np.abs(tn), s)
    out[nz] = c * _half_sinc(tn) ** s * (1.0 + np.abs(tn) ** s * lattice)
    return out


def split_symbol(alpha, grid_size: int):
    """Split g_alpha into its pure power singularity and smooth remainder.

    Returns (singular_exponent, smooth_samples) with
    g_alpha(t) = |1-e^{it}|^{singular_exponent} * smooth(t); the exponent is
    -2*alpha and the samples live on the midpoint grid of ``grid_size``.
    """
    av = _symbol_value(alpha)
    _check_grid_size(grid_size)
    half = _smooth_half(av, int(math.log2(grid_size)))
    return -2.0 * av, np.concatenate((half[::-1], half))


@lru_cache(maxsize=4)
def _positive_midpoints(log2_m: int) -> np.ndarray:
    # the m/2 positive midpoints pi(i+1/2)/(m/2), read-only since shared
    m = 1 << log2_m
    t = torus_grid(log2_m)[m // 2:].copy()
    t.flags.writeable = False
    return t


def _smooth_half(av: float, log2_m: int) -> np.ndarray:
    # smooth_part depends on |t| only: its samples on the m/2 positive
    # midpoints determine it on the whole (symmetric) grid
    return smooth_part(av, _positive_midpoints(log2_m))


# exponents whose outer root stays built: 8 x (256 + 128) KiB at m = 2^16
_OUTER_ROOT_CACHE = 8


@lru_cache(maxsize=_OUTER_ROOT_CACHE)
def _outer_root(av: float):
    """Smooth-remainder samples on the m/2 positive midpoints of the default
    grid and the outer root r of their reciprocal psi^2 = 1/smooth; one
    lattice pass per exponent per process.  Both arrays are shared by every
    caller, hence read-only; the anti-analytic check is the caller's, so it
    warns on every call, not on the first alone."""
    smooth = _smooth_half(av, DEFAULT_LOG2_GRID)
    r = _even_outer_root(1.0 / smooth)
    for a in (smooth, r.values):
        a.flags.writeable = False
    return smooth, r


@lru_cache(maxsize=8)
def _dct_twiddles(n: int):
    # e^{-i pi k / 2n}, k = 0..n/2 (the rfft bins Makhoul's DCT-II reads),
    # and its conjugate for the inverse; read-only since shared
    tw = np.exp(-0.5j * math.pi / n * np.arange(n // 2 + 1))
    pair = (tw, tw.conj())
    for a in pair:
        a.flags.writeable = False
    return pair


def _dct2(x: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-II of even length n, 2 sum_i x_i cos(pi k(2i+1)/2n),
    from one length-n real FFT of the even-then-reversed-odd reordering.

    With z_k = e^{-i pi k/2n} V_k (V the FFT of the reordering), the result
    is 2 Re z_k at k <= n/2 and -2 Im z_{n-k} above."""
    n = x.size
    h = n // 2
    z = np.fft.rfft(np.concatenate((x[::2], x[::-2])))
    z *= _dct_twiddles(n)[0]
    out = np.empty(n)
    np.multiply(z.real, 2.0, out=out[:h + 1])
    np.multiply(z.imag[h - 1:0:-1], -2.0, out=out[h + 1:])
    return out


def _dst2(x: np.ndarray) -> np.ndarray:
    """Unnormalized DST-II, 2 sum_i x_i sin(pi (k+1)(2i+1)/2n): the DCT-II of
    (-1)^i x_i, reversed."""
    flipped = x.copy()
    flipped[1::2] *= -1.0
    return _dct2(flipped)[::-1]


def _dct3(x: np.ndarray, n: int) -> np.ndarray:
    """Unnormalized DCT-III of x zero-padded to even length n,
    x_0 + 2 sum_{j>=1} x_j cos(pi j(2k+1)/2n): the inverse of Makhoul's
    reordering, one length-n inverse real FFT."""
    h = n // 2
    c = np.zeros(n + 1)
    c[:x.size] = x
    # (c_k - i c_{n-k}) e^{i pi k/2n} at k = 0..n/2, with c_n = 0
    spec = np.empty(h + 1, dtype=complex)
    spec.real = c[:h + 1]
    np.negative(c[n:h - 1:-1], out=spec.imag)
    spec *= _dct_twiddles(n)[1]
    v = np.fft.irfft(spec, n)
    out = np.empty(n)
    out[::2] = v[:h]
    out[1::2] = v[:h - 1:-1]
    out *= n
    return out


def _dst3(x: np.ndarray, n: int) -> np.ndarray:
    """Unnormalized DST-III of x zero-padded to even length n,
    (-1)^k x_{n-1} + 2 sum_{j<n-1} x_j sin(pi (j+1)(2k+1)/2n): (-1)^k times
    the DCT-III of the reversed padded input."""
    padded = np.zeros(n)
    padded[:x.size] = x
    out = _dct3(padded[::-1], n)
    out[1::2] *= -1.0
    return out


def _half_grid_conjugate(x: np.ndarray) -> np.ndarray:
    """hilbert_transform of an even function, from and on its N positive
    midpoints t_i = pi(i+1/2)/N.

    The DCT-II gives 2 sum_i x_i cos(k t_i), N times the cosine coefficient
    of frequency k; shifted one place it feeds the DST-III sine series
    sum_{k=1}^{N-1} (...) sin(k t_i).  The Nyquist term is zero, as in
    hilbert_transform."""
    n = x.size
    return _dst3(_dct2(x)[1:], n) / (2 * n)


def _half_grid_values(coeffs: np.ndarray, n: int):
    """(Re, Im) of sum_k coeffs[k] e^{ikt}, real coeffs with k < n, on the n
    positive midpoints t_i = pi(i+1/2)/n: a DCT-III and a DST-III."""
    re = 0.5 * (_dct3(coeffs, n) + coeffs[0])
    im = 0.5 * _dst3(coeffs[1:], n)
    return re, im


def _even_outer_root(f_half: np.ndarray) -> FourierCoeffs:
    # f_half samples an even positive function on the n = m/2 positive
    # midpoints; q(-t) = conj q(t), so the coefficients are real
    n = f_half.size
    log_f = np.log(f_half)
    half_conj = 0.5 * _half_grid_conjugate(log_f)
    modulus = np.exp(0.5 * log_f)
    # 2 sum_i (Re q cos(k t_i) + Im q sin(k t_i)), k = 0..n; C_n = 0 and
    # S_0 = 0 on the midpoints
    c = np.append(_dct2(modulus * np.cos(half_conj)), 0.0)
    s = np.insert(_dst2(modulus * np.sin(half_conj)), 0, 0.0)
    positive = (c + s) / (2 * n)
    negative = (c[1:n] - s[1:n]) / (2 * n)
    scale = max(np.max(np.abs(positive)), np.max(np.abs(negative)))
    residual = float(np.max(np.abs(negative)) / scale)
    # a copy, so the discarded upper half is not kept alive behind a view
    return FourierCoeffs(positive[:n // 2 + 1].copy(), residual)


def _checked_root(r: FourierCoeffs) -> FourierCoeffs:
    # warns on behalf of the public function that called it (stacklevel 3:
    # that function's caller)
    if r.anti_analytic > _ANTI_ANALYTIC_TOL:
        warnings.warn(
            f"negative-frequency content {r.anti_analytic:.2e} above tolerance; "
            "input may be insufficiently smooth for the requested accuracy",
            RuntimeWarning, stacklevel=3)
    return r


def analytic_sqrt(f_samples: np.ndarray) -> FourierCoeffs:
    """One-sided square root of an even positive function on the midpoint
    grid.

    Returns the real coefficients of q analytic in the disc with
    q * conj(q) = f, q(0) > 0 (outer normalization).  f must be even,
    f(-t) = f(t) to 1e-12 of its maximum, else ValueError; only its m/2
    samples at positive t are used, through the cosine/sine construction in
    the module docstring.  Coefficients beyond m/4 are discarded; the
    relative mass found at negative frequencies is recorded and a warning is
    raised if it exceeds ``_ANTI_ANALYTIC_TOL`` (non-smooth input).
    """
    f = np.asarray(f_samples, dtype=float)
    m = f.size
    _check_grid_size(m)
    if not np.all(np.isfinite(f)) or np.any(f <= 0.0):
        raise ValueError("samples must be finite and strictly positive")
    if np.max(np.abs(f - f[::-1])) > 1e-12 * np.max(f):
        raise ValueError("samples must be even: f(-t) = f(t) on the midpoint grid")
    return _checked_root(_even_outer_root(f[m // 2:]))


def whitening_coeffs(alpha):
    """Assemble the one-sided root of 1/g_alpha: q_alpha = w_alpha * r_alpha.

    Returns (w, r, q): binomial coefficients of (1-z)^alpha, the outer-root
    coefficients of psi^2 = 1/smooth, and their convolution q_hat, all
    indexed 0..m/4.  The coefficients are real, since the symbol is even.
    r is built once per exponent per process and shared by every caller:
    its ``values`` are read-only.  w and q are the caller's own.
    """
    av = _symbol_value(alpha)
    r = _checked_root(_outer_root(av)[1])
    w, q = _whiten(av, r)
    return w, r, q


def _whiten(av: float, r: FourierCoeffs, k_max: Optional[int] = None):
    # q_hat = w_hat * r_hat over 0..k_max (default: every stored r_hat);
    # q_hat[k] reads w_hat and r_hat at indices <= k only
    k_max = r.k_max if k_max is None else k_max
    w = w_hat_seq(av, k_max)
    # zero-padded to the full linear-convolution length, so nothing wraps
    size = 1 << (2 * k_max).bit_length()
    q = np.fft.irfft(np.fft.rfft(w, size) * np.fft.rfft(r.values[:k_max + 1], size), size)
    return w, q[:k_max + 1]


def factorization_identity_error(alpha, r: FourierCoeffs) -> float:
    """Max relative error of |q|^2 * g_alpha = 1 over the midpoint grid,
    with q = w_alpha(t) * r(t) and r from its stored (truncated)
    coefficients.  Since |w_alpha|^2 * g_alpha is the smooth remainder, this
    is max | |r(t)|^2 * smooth(t) - 1 |, taken over the positive midpoints:
    both factors are even."""
    av = _symbol_value(alpha)
    return _identity_error(r, _outer_root(av)[0])


def _identity_error(r: FourierCoeffs, smooth_half: np.ndarray) -> float:
    re, im = _half_grid_values(r.values, smooth_half.size)
    return float(np.max(np.abs((re * re + im * im) * smooth_half - 1.0)))


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
    x = np.log(k)
    x -= x.mean()
    return float(np.dot(x, np.log(mag)) / np.dot(x, x))


def r_coefficient_decay(alpha, k_max: Optional[int] = None) -> DecayFit:
    """Fitted decay exponent of the outer-root coefficients over a decade;
    the expected rate is -3 - 2*alpha.

    If the coefficients sink into the double-precision noise floor inside the
    window, the window is shrunk (with a warning) until they clear it.
    """
    av = _symbol_value(alpha)
    return _r_decay_fit(av, _checked_root(_outer_root(av)[1]), k_max)


def _r_decay_fit(av: float, r: FourierCoeffs, k_max: Optional[int]) -> DecayFit:
    mags = np.abs(r.values)
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


def q_coefficient_check(alpha, k_max: int = 10_000) -> QCheckReport:
    """Build q_hat = w_hat * r_hat, estimate c_alpha = r(0), and fit the decay
    of the residual q_hat - c_alpha * w_hat over k in [100, k_max].  The grid
    identity and the r-hat decay fit come from the same outer root.

    Truncating r at m/4 leaves an identity error of about m^-(2+2 alpha): at
    alpha = -0.4 it is 2.0e-6, 8.8e-7 and 3.8e-7 at m = 2^16, 2^17 and 2^18,
    so a 1e-6 identity tolerance holds on the default 2^16 grid only for
    alpha above about -0.375 (8.0e-7 at -0.37, 1.08e-6 at -0.38).
    """
    av = _symbol_value(alpha)
    if k_max > (1 << DEFAULT_LOG2_GRID) // 4:
        raise ValueError("k_max must not exceed a quarter of the grid")
    smooth, r = _outer_root(av)
    _checked_root(r)
    # the slope fit reads q_hat up to k_max only
    w, q = _whiten(av, r, k_max)
    c_alpha = r.at_zero()
    if not math.isfinite(c_alpha) or c_alpha == 0.0:
        raise ArithmeticError("outer-root limit at t=0 must be finite nonzero")
    residual = q - c_alpha * w
    k_lo = 100
    slope = _log_log_slope(residual, k_lo, k_max)
    target = -(2.0 + av) + 0.2
    floor = -1.0 - av - 0.1
    return QCheckReport(av, c_alpha, slope, -(2.0 + av), (k_lo, k_max),
                        passed=slope <= target, failed_floor=slope > floor,
                        identity_error=_identity_error(r, smooth),
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
    classical = 1.0 / math.gamma(-av)
    alternative = 1.0 / math.gamma(-(1.0 + av))
    return WAsymptoticsReport(av, int(k), measured, classical, alternative)
