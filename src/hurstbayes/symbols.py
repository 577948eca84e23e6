"""Spectral symbols of fractional Gaussian noise and their ratio integrals.

Unit-variance fractional Gaussian noise with Hurst parameter ``h`` has
autocovariance ``gamma(j) = (|j+1|**(2h) - 2|j|**(2h) + |j-1|**(2h)) / 2`` and
spectral density on the torus

    f_h(t) = C_h * |e^{it} - 1|**2 * sum_k |t - 2 pi k|**(-(2h+1)),

normalised here so that f_h integrates to ``gamma(0) = 1`` against the
normalised measure ``dt / (2 pi)``.  The centred parameter ``alpha = h - 1/2``
indexes the same family as ``g_alpha = f_{1/2 + alpha}``; near the origin
``g_alpha(t)`` behaves like ``|t|**(-2 alpha)``, a zero for ``h < 1/2`` and an
integrable pole for ``h > 1/2``.

Evaluation separates the k = 0 lattice term from the rest:

    f_h(t) = C_h * |t|**(1-2h) * sinc(t/2)**2 * (1 + |t|**(2h+1) * S_reg(t))

with ``S_reg`` the regular (k != 0) part of the lattice sum.  This form has no
cancellation or overflow down to denormal ``t``, which matters because the
symbol integrals probe far below 1e-20.  ``C_h`` is the closed form
``sin(pi h) * Gamma(2h + 1)``.  ``S_reg`` is defined by the direct sum to
``_K_MAX`` = 256 with a third-order Euler-Maclaurin tail correction, which
keeps the slowly converging sums for small ``h`` at full double accuracy.
That one truncation is the package's only lattice policy.  The sum runs only
at the 20 Chebyshev nodes of an interpolant in t**2, cached per exponent and
log weight; every other t costs one Chebyshev evaluation.  S_reg is analytic
in t**2 out to its singularity at t = 2 pi, so the interpolant converges like
13.9**-k and matches the direct sum within 3e-15 relative on [-pi, pi].

The ratio integral F(alpha) = fint g_beta / g_alpha and its first two
alpha-derivatives are integrals of t**(c-1) times lattice factors with
c = 1 + 2(alpha - beta) > 0.  All three come from one set of four lattice
sums on the fixed 976-node rule of ``_quadrature.log_power_rule`` in
x = -log t, under 2 ms per triple on a 2-CPU host.  Toeplitz covariances
always use the closed-form autocovariance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._quadrature import adaptive_simpson, log_power_rule

__all__ = [
    "HurstParam", "SymbolParam", "AutocovSeq",
    "sinai_density", "autocov", "autocov_seq",
    "norming_constant", "f_ratio_integral", "f_ratio_derivatives",
    "FRatioDerivatives",
]

_TWO_PI = 2.0 * math.pi
# direct lattice terms k = 1.._K_MAX, then the Euler-Maclaurin tail
_K_MAX = 256


@dataclass(frozen=True)
class HurstParam:
    """Hurst parameter, strictly inside (0, 1)."""
    h: float

    def __post_init__(self):
        h = float(self.h)
        if not (math.isfinite(h) and 0.0 < h < 1.0):
            raise ValueError(f"Hurst parameter must lie in (0, 1), got {self.h!r}")
        object.__setattr__(self, "h", h)

    @property
    def symbol(self) -> "SymbolParam":
        return SymbolParam(self.h - 0.5)


@dataclass(frozen=True)
class SymbolParam:
    """Centred symbol parameter ``alpha = h - 1/2`` in (-1/2, 1/2)."""
    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not (math.isfinite(a) and -0.5 < a < 0.5):
            raise ValueError(f"symbol parameter must lie in (-1/2, 1/2), got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)

    @property
    def hurst(self) -> HurstParam:
        return HurstParam(self.alpha + 0.5)


def _hurst_value(h) -> float:
    if isinstance(h, HurstParam):
        return h.h
    return HurstParam(float(h)).h


def _symbol_value(a) -> float:
    if isinstance(a, SymbolParam):
        return a.alpha
    if isinstance(a, HurstParam):
        raise TypeError("expected a centred symbol parameter, got a Hurst parameter")
    return SymbolParam(float(a)).alpha


def _tail_integral(v, s, w):
    # int_v^inf x**(-s) log(x)**w dx, for s > 1, w in {0, 1, 2}
    e = s - 1.0
    if w == 0:
        return v ** (-e) / e
    lv = np.log(v)
    if w == 1:
        return v ** (-e) * (lv / e + 1.0 / e ** 2)
    return v ** (-e) * (lv * lv / e + 2.0 * lv / e ** 2 + 2.0 / e ** 3)


def _term(v, s, w):
    if w == 0:
        return v ** (-s)
    if w == 1:
        return v ** (-s) * np.log(v)
    return v ** (-s) * np.log(v) ** 2


def _term_deriv(v, s, w):
    # d/dv of v**(-s) * log(v)**w
    if w == 0:
        return -s * v ** (-s - 1.0)
    lv = np.log(v)
    if w == 1:
        return v ** (-s - 1.0) * (1.0 - s * lv)
    return v ** (-s - 1.0) * lv * (2.0 - s * lv)


def _lattice_sum_direct(t, s: float, log_weight: int = 0):
    """The regular lattice sum by direct summation to ``_K_MAX`` plus a
    third-order Euler-Maclaurin tail; the reference that the interpolant is
    built from."""
    t = np.asarray(t, dtype=float)
    w = int(log_weight)
    kk = _TWO_PI * np.arange(1, _K_MAX + 1, dtype=float)
    vm = kk - t[..., None]
    vp = kk + t[..., None]
    out = _term(vm, s, w).sum(axis=-1) + _term(vp, s, w).sum(axis=-1)
    # Euler-Maclaurin tail starting at m0 = _K_MAX + 1:
    #   sum_{m >= m0} phi(m) = int_{m0}^inf phi + phi(m0)/2 - phi'(m0)/12 + ...
    m0 = _TWO_PI * (_K_MAX + 1.0)
    vm, vp = m0 - t, m0 + t
    tail = (_tail_integral(vm, s, w) + _tail_integral(vp, s, w)) / _TWO_PI
    tail = tail + 0.5 * (_term(vm, s, w) + _term(vp, s, w))
    tail = tail - _TWO_PI / 12.0 * (_term_deriv(vm, s, w) + _term_deriv(vp, s, w))
    return out + tail


# S_reg is even in t and analytic in u = t**2 for |u| < 4 pi^2: the k = +-1
# terms are singular at t = +-2 pi.  The map x = 2 t**2 / pi**2 - 1 takes
# [0, pi] onto [-1, 1] and the singularity to x = 7, so the Chebyshev
# coefficients in x decay like rho**-k with rho = 7 + 4 sqrt(3) ~ 13.9 (the
# Bernstein-ellipse bound).  rho**-14 is already 2**-53; five more terms pay
# for the growth of |t - 2 pi|**-s (s < 4) towards the ellipse.  Measured
# against the direct sum over 1 < s < 4 and w in {0, 1, 2}, degree 19 is
# within 3e-15 relative; higher degrees only interpolate more of the direct
# sum's own rounding noise (8e-15 at degree 20, 1e-14 at 23).
_CHEB_DEGREE = 19


@lru_cache(maxsize=1024)
def _lattice_chebyshev(s: float, log_weight: int) -> np.ndarray:
    # Chebyshev coefficients of S_reg in x = 2 t**2 / pi**2 - 1, interpolated
    # from the direct sum at the degree + 1 Chebyshev points
    def direct(x):
        return _lattice_sum_direct(math.pi * np.sqrt(0.5 * (x + 1.0)), s, log_weight)

    coef = np.polynomial.chebyshev.chebinterpolate(direct, _CHEB_DEGREE)
    coef.flags.writeable = False
    return coef


def lattice_sum_regular(t, s: float, log_weight: int = 0):
    """``sum_{k != 0} |t - 2 pi k|**(-s) * log(|t - 2 pi k|)**log_weight`` for
    t in [-pi, pi], vectorised over ``t``.

    Evaluated from a Chebyshev interpolant in t**2 of the direct sum (to
    ``_K_MAX`` plus an Euler-Maclaurin tail), built once per
    ``(s, log_weight)`` and cached; it matches the direct sum to a few
    ulps.  Raises ``ValueError`` for non-finite ``t`` or ``|t| > pi``.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("lattice sum needs finite t")
    if np.any(np.abs(t) > math.pi * (1.0 + 1e-12)):
        raise ValueError("lattice sum is only defined here for t in [-pi, pi]")
    coef = _lattice_chebyshev(float(s), int(log_weight))
    return np.polynomial.chebyshev.chebval(2.0 * (t / math.pi) ** 2 - 1.0, coef)


def lattice_sum(t, s: float, log_weight: int = 0):
    """Full lattice sum including the k = 0 term (which is singular at t = 0)."""
    t = np.asarray(t, dtype=float)
    return _term(np.abs(t), s, int(log_weight)) + lattice_sum_regular(t, s, log_weight)


def _half_sinc_sq(t):
    # (sin(t/2) / (t/2))**2, exact 1 at t = 0
    return np.sinc(np.asarray(t, dtype=float) / _TWO_PI) ** 2


def _density_core(t, s: float):
    """``|e^{it}-1|^2 * lattice_sum(t)`` in the cancellation-free form
    ``|t|**(2-s) * sinc(t/2)**2 * (1 + |t|**s * S_reg(t))``; valid on
    [-pi, pi], with the correct limits at t = 0 for s <= 2."""
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    with np.errstate(over="ignore"):
        correction = at ** s * lattice_sum_regular(t, s)
    return at ** (2.0 - s) * _half_sinc_sq(t) * (1.0 + correction)


# The package takes C_h from its closed form; this quadrature of the
# lattice-sum density is the tests' check that the closed form normalizes it,
# and perfbench/tracing.py reads its cache_info() by name.
@lru_cache(maxsize=512)
def _norming_quadrature(h: float) -> float:
    # C_h normalises (1/2pi) int f_h = 1; by symmetry integrate on (0, pi).
    # The integrand behaves like t**(2-s) at 0 (barely integrable as h -> 1),
    # so substitute t = v**p with p large enough that the v-integrand opens
    # like v**2; the lone power of v is assembled directly, which keeps the
    # evaluation finite down to v = 0.
    s = 2.0 * h + 1.0
    p = max(2, int(math.ceil(3.0 / (3.0 - s))))
    expo = p * (3.0 - s) - 1.0

    def integrand(v):
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        pos = v > 0.0
        vp = v[pos]
        with np.errstate(under="ignore"):
            t = vp ** p
        correction = t ** s * lattice_sum_regular(t, s)
        out[pos] = p * vp ** expo * _half_sinc_sq(t) * (1.0 + correction)
        return out

    upper = math.pi ** (1.0 / p)
    integral = adaptive_simpson(integrand, 0.0, upper, tol=1e-12) / math.pi
    if not (math.isfinite(integral) and integral > 0.0):
        raise ArithmeticError(f"normalisation quadrature failed for h={h}")
    return 1.0 / integral


def norming_constant(h) -> float:
    """Constant C_h making the density integrate to 1 over the torus.

    Unfolding the lattice sum over the whole line and using
    int_0^inf (1 - cos u) u**(-1-2h) du = -Gamma(-2h) cos(pi h) gives the
    closed form sin(pi h) * Gamma(2h + 1).
    """
    hv = _hurst_value(h)
    return math.sin(math.pi * hv) * math.gamma(2.0 * hv + 1.0)


# Recurrence up to x >= 12, then the asymptotic series, whose first omitted
# Bernoulli term is below 1e-17 there.
_POLYGAMMA_SHIFT = 12.0


def _digamma(x: float) -> float:
    """psi(x) for x > 0."""
    acc = 0.0
    while x < _POLYGAMMA_SHIFT:
        acc -= 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    series = r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r * (
        1 / 132 - r * (691 / 32760 - r / 12))))))
    return acc + math.log(x) - 0.5 / x - series


def _trigamma(x: float) -> float:
    """psi'(x) for x > 0."""
    acc = 0.0
    while x < _POLYGAMMA_SHIFT:
        acc += 1.0 / (x * x)
        x += 1.0
    r = 1.0 / (x * x)
    series = r * (1 / 6 - r * (1 / 30 - r * (1 / 42 - r * (1 / 30 - r * (
        5 / 66 - r * (691 / 2730 - r * 7 / 6))))))
    return acc + (1.0 + 0.5 / x + series) / x


def _log_norming_deriv(h: float, order: int) -> float:
    # d/dh log C_h for the closed form sin(pi h) * Gamma(2h + 1)
    if order == 1:
        return math.pi / math.tan(math.pi * h) + 2.0 * _digamma(2.0 * h + 1.0)
    return (-math.pi ** 2 / math.sin(math.pi * h) ** 2
            + 4.0 * _trigamma(2.0 * h + 1.0))


def sinai_density(h, lam):
    """Spectral density f_h(lam) for lam in [-pi, pi].

    At lam = 0 the density is 0 for h < 1/2, equals C_h for h = 1/2, and is a
    pole for h > 1/2 (raises).  Vectorised over ``lam``.
    """
    hv = _hurst_value(h)
    lam_in = np.asarray(lam, dtype=float)
    scalar = lam_in.ndim == 0
    lam_a = np.atleast_1d(lam_in)
    if not np.all(np.isfinite(lam_a)):
        raise ValueError("frequency must be finite")
    if np.any(np.abs(lam_a) > math.pi * (1.0 + 1e-12)):
        raise ValueError("frequency outside [-pi, pi]")
    if hv > 0.5 and np.any(lam_a == 0.0):
        raise ValueError("density has a singular point at 0 for h > 1/2")
    c = norming_constant(hv)
    vals = c * _density_core(lam_a, 2.0 * hv + 1.0)
    return float(vals[0]) if scalar else vals.reshape(lam_in.shape)


def autocov(h, lag):
    """Closed-form autocovariance at integer lag(s); gamma(0) = 1."""
    hv = _hurst_value(h)
    j = np.abs(np.asarray(lag, dtype=float))
    th = 2.0 * hv
    g = 0.5 * ((j + 1.0) ** th - 2.0 * j ** th + np.abs(j - 1.0) ** th)
    return float(g) if g.ndim == 0 else g


@dataclass(frozen=True)
class AutocovSeq:
    """Autocovariances gamma(0..n-1) of one symbol; gamma(0) = 1."""
    h: float
    gammas: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
        if g.ndim != 1 or g.size < 1:
            raise ValueError("need a 1-d autocovariance sequence")
        if abs(g[0] - 1.0) > 1e-12:
            raise ValueError("autocovariance must be normalised to gamma(0) = 1")
        object.__setattr__(self, "gammas", g)

    @property
    def n(self) -> int:
        return self.gammas.size


def autocov_seq(h, n: int) -> AutocovSeq:
    hv = _hurst_value(h)
    if n < 1:
        raise ValueError("need at least one lag")
    return AutocovSeq(hv, autocov(hv, np.arange(n)))


class FRatioDerivatives(NamedTuple):
    value: float
    d1: float
    d2: float


def _ratio_weights(ha: float, hb: float) -> tuple:
    # (x, t, t**sa, T_a, ratio, scale), shared by the value-only F and the
    # triple.  The ratio g_hb / g_ha on the fixed rule in x = -log t is
    #   (C_hb / C_ha) * t**(sa - sb) * (1 + T_b) / (1 + T_a),  T_x = t**s_x S_reg,
    # and t**(sa - sb) is the rule's t**(c - 1); F = scale * sum(ratio).
    sa, sb = 2.0 * ha + 1.0, 2.0 * hb + 1.0
    x, w = log_power_rule(1.0 + sa - sb)
    t = np.exp(-x)
    pa, pb = t ** sa, t ** sb
    t0 = pa * lattice_sum_regular(t, sa, 0)
    ratio = w * (1.0 + pb * lattice_sum_regular(t, sb, 0)) / (1.0 + t0)
    scale = norming_constant(hb) / norming_constant(ha) / math.pi
    return x, t, pa, t0, ratio, scale


def _ratio_value(ha: float, hb: float) -> float:
    # F = fint g_hb / g_ha alone: the same number as _ratio_triple(...).value
    *_, ratio, scale = _ratio_weights(ha, hb)
    return scale * float(ratio.sum())


def _ratio_triple(ha: float, hb: float) -> FRatioDerivatives:
    # F = fint g_hb / g_ha and its first two derivatives in ha.  With
    # u = d/dalpha log g_alpha the derivatives are -fint (g/g) u and
    # fint (g/g) (u**2 - u').  For the k = 0 separated lattice sum
    # S = t**(-sa) * (1 + T_a):
    #   dS/dh / S  = -2 (log t + t**sa * L1) / (1 + T_a)
    #   d2S/dh2 /S =  4 (log**2 t + t**sa * L2) / (1 + T_a)
    # with L_w the log-weighted regular sums; log t is -x.
    x, t, pa, t0, ratio, scale = _ratio_weights(ha, hb)
    sa = 2.0 * ha + 1.0
    l1 = pa * lattice_sum_regular(t, sa, 1)
    l2 = pa * lattice_sum_regular(t, sa, 2)
    ds = 2.0 * (x - l1) / (1.0 + t0)
    d2s = 4.0 * (x * x + l2) / (1.0 + t0)
    u = _log_norming_deriv(ha, 1) + ds
    du = _log_norming_deriv(ha, 2) + d2s - ds * ds
    return FRatioDerivatives(scale * float(ratio.sum()),
                             -scale * float(ratio @ u),
                             scale * float(ratio @ (u * u - du)))


def f_ratio_integral(alpha, beta) -> float:
    """Normalised torus integral of ``g_beta / g_alpha``.

    Finite exactly when ``alpha - beta > -1/2``; equals 1 when the parameters
    coincide.  The arc factor |e^{it}-1|^2 cancels in the ratio, so only the
    lattice sums and norming constants enter.  The endpoint behaviour
    |t|**(2(alpha-beta)) is the weight of the fixed rule in x = -log t
    (``_quadrature.log_power_rule``), so no adaptive step is taken.
    """
    a = _symbol_value(alpha)
    b = _symbol_value(beta)
    if a - b <= -0.5:
        raise ValueError("ratio integral diverges: need alpha - beta > -1/2")
    if a == b:
        return 1.0
    return _ratio_value(a + 0.5, b + 0.5)


def f_ratio_derivatives(alpha, h_hat) -> FRatioDerivatives:
    """Value and first two alpha-derivatives of ``F(alpha) = fint g_bhat / g_alpha``
    with ``bhat = h_hat - 1/2`` held fixed.

    Differentiation happens under the integral sign: with u = d/dalpha log
    g_alpha the derivatives are -fint (g/g) u and fint (g/g) (u^2 - u'); u
    combines the log-derivative of the closed-form norming constant with
    log-weighted lattice sums.  All three integrals share one set of lattice
    sums on the fixed rule.  The margin requirement alpha - bhat > -1/2 + 1e-3
    keeps the differentiated integrals uniformly convergent.
    """
    a = _symbol_value(alpha)
    bh = _hurst_value(h_hat) - 0.5
    if a - bh <= -0.5 + 1e-3:
        raise ValueError("need alpha - (h_hat - 1/2) > -1/2 + 1e-3 for stable derivatives")
    res = _ratio_triple(a + 0.5, bh + 0.5)
    if a == bh:
        return res._replace(value=1.0)
    return res
