"""Toeplitz systems for the symbol family: solves, log-determinants,
quadratic forms, and the asymptotic envelope for inverse entries.

The primary factorisation is one Levinson-Durbin pass, which yields the
reflection coefficients, the prediction-error variances (whose product is the
determinant) and the last forward predictor.  That predictor fixes T^{-1}
through the Gohberg-Semencul formula, so once the matrix is factored a
quadratic form <y, T^{-1} y> costs two FFT convolutions and a solve four,
O(n log n) each, without materialising the matrix.  A dense
Cholesky fallback (``numpy.linalg.cholesky``, then two ``numpy.linalg.solve``
calls per solve) engages if a reflection coefficient reaches magnitude
1 - 1e-12; for the fractional Gaussian autocovariances this never happens in
the supported range, but the escape hatch keeps near-degenerate inputs honest.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _levinson
from .symbols import AutocovSeq, autocov_seq, sinai_density, _hurst_value

__all__ = [
    "ToeplitzSystem", "NotPositiveDefiniteError", "build_system", "quad_form",
    "whittle_quad_form", "inverse_entry", "InverseKernelSpec",
    "inverse_kernel_prediction", "logdet_and_quad", "toeplitz_matrix",
]


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a Toeplitz matrix is not numerically positive definite."""

    def __init__(self, order: int):
        self.order = order
        super().__init__(f"Toeplitz matrix is not positive definite at order {order}")


@dataclass
class ToeplitzSystem:
    """Factored symmetric positive-definite Toeplitz matrix.

    ``pred_var`` holds the prediction-error variances sigma^2_0..sigma^2_{n-1}
    (non-increasing, positive); ``logdet`` is their log-sum.  ``reflection``
    holds the n-1 reflection coefficients, NaN on the dense fallback path
    where the recursion did not complete.  ``predictor`` holds the order n-1
    forward predictor that every product with T^{-1} is built from, None on
    that path.
    """
    gammas: np.ndarray
    reflection: np.ndarray
    pred_var: np.ndarray
    logdet: float
    used_dense: bool = False
    _chol: object = field(default=None, repr=False)
    predictor: object = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.gammas.size

    def solve(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise ValueError(f"right-hand side must have length {self.n}")
        if self.used_dense:
            # L L^T x = y by two solves with the dense Cholesky factor L
            return np.linalg.solve(self._chol.T, np.linalg.solve(self._chol, y))
        return _levinson.semencul_solve(self.predictor, self.pred_var[-1], y)


def toeplitz_matrix(gammas) -> np.ndarray:
    """The dense symmetric Toeplitz matrix with first row ``gammas``."""
    g = np.asarray(gammas, dtype=float)
    i = np.arange(g.size)
    return g[np.abs(i[:, None] - i)]


def _dense_factor(gammas: np.ndarray, failed_order: int):
    # the fallback's lower Cholesky factor, from numpy's LAPACK potrf
    try:
        chol = np.linalg.cholesky(toeplitz_matrix(gammas))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(failed_order) from exc
    diag = np.diag(chol)
    pred_var = diag ** 2
    logdet = 2.0 * float(np.sum(np.log(diag)))
    return chol, pred_var, logdet


def build_system(cov, n: int | None = None) -> ToeplitzSystem:
    """Factor the n x n Toeplitz matrix of an autocovariance sequence.

    ``cov`` may be an :class:`AutocovSeq`, a raw first row, or a Hurst value
    (in which case the closed-form autocovariance is generated).
    """
    if isinstance(cov, AutocovSeq):
        gammas = cov.gammas
    elif isinstance(cov, (float, int)) and not isinstance(cov, bool):
        if n is None:
            raise ValueError("n is required when passing a Hurst parameter")
        gammas = autocov_seq(cov, n).gammas
    else:
        gammas = np.asarray(cov, dtype=float)
    if n is not None:
        if n < 1 or n > gammas.size:
            raise ValueError("n must lie in 1..len(gammas)")
        gammas = gammas[:n]
    gammas = np.ascontiguousarray(gammas, dtype=float)
    refl, sig, status, pred = _levinson.durbin(gammas)
    if status == 0:
        return ToeplitzSystem(gammas, refl, sig, float(np.sum(np.log(sig))),
                              predictor=pred)
    warnings.warn(
        f"Levinson recursion near breakdown at order {status}; using dense Cholesky",
        RuntimeWarning, stacklevel=2)
    chol, pred_var, logdet = _dense_factor(gammas, status)
    nan_refl = np.full(gammas.size - 1, np.nan)
    return ToeplitzSystem(gammas, nan_refl, pred_var, logdet,
                          used_dense=True, _chol=chol)


def quad_form(system: ToeplitzSystem, y) -> float:
    """Quadratic form <y, T^{-1} y>; nonnegative, 0 only for y = 0."""
    y = np.asarray(y, dtype=float)
    if y.shape != (system.n,):
        raise ValueError(f"right-hand side must have length {system.n}")
    if system.used_dense:
        q = float(np.dot(y, system.solve(y)))
    else:
        lt, ut = _levinson.semencul_halves(system.predictor, y)
        q = float((np.dot(lt, lt) - np.dot(ut, ut)) / system.pred_var[-1])
    if q < 0.0:
        if q > -1e-10 * max(1.0, float(np.dot(y, y))):
            return 0.0
        raise ArithmeticError(f"quadratic form came out negative ({q}); system ill-conditioned")
    return q


def logdet_and_quad(gammas, y) -> tuple[float, float]:
    """(log det T, <y, T^{-1} y>) for one Toeplitz matrix: :func:`build_system`
    then :func:`quad_form`, one Levinson-Durbin pass per call."""
    system = build_system(gammas)
    return system.logdet, quad_form(system, y)


def _autocorrelate(y: np.ndarray) -> np.ndarray:
    n = y.size
    m = 1 << int(math.ceil(math.log2(2 * n)))
    fy = np.fft.rfft(y, m)
    r = np.fft.irfft(fy * np.conj(fy), m)[:n]
    return r


def _reciprocal_coeffs(hv: float, n: int, m: int) -> np.ndarray:
    # midpoint grid never samples the origin, where 1/f may vanish or blow up
    step = 2.0 * math.pi / m
    t = -math.pi + (np.arange(m) + 0.5) * step
    recip = 1.0 / sinai_density(hv, t)
    phase = np.exp(1j * np.arange(n) * (math.pi - 0.5 * step))
    return np.real(phase * np.fft.fft(recip)[:n]) / m


def whittle_quad_form(h, y, grid_factor: int = 8) -> float:
    """Quadratic form <y, T_n(1/f_h) y>, the Whittle surrogate for
    <y, T_n(f_h)^{-1} y>.

    Fourier coefficients of 1/f_h come from a midpoint discrete transform on a
    grid of at least ``grid_factor * n`` points (power of two), which never
    samples the origin where 1/f_h may vanish or blow up.
    """
    hv = _hurst_value(h)
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 1:
        raise ValueError("empty sample")
    if grid_factor < 8:
        raise ValueError("reciprocal-symbol grid must be at least 8n")
    m = 1 << max(10, int(math.ceil(math.log2(grid_factor * n))))
    coeff = _reciprocal_coeffs(hv, n, m)
    check = _reciprocal_coeffs(hv, n, 2 * m)
    if np.max(np.abs(coeff - check)) > 1e-5 * abs(coeff[0]):
        warnings.warn("reciprocal-symbol coefficients change under grid doubling; "
                      "grid is underresolved, consider a larger grid_factor",
                      RuntimeWarning, stacklevel=2)
    r = _autocorrelate(y)
    q = float(coeff[0] * r[0] + 2.0 * np.dot(coeff[1:], r[1:]))
    return max(q, 0.0)


def inverse_entry(system: ToeplitzSystem, i: int, j: int) -> float:
    """Entry (i, j) of T^{-1}, 1-based indices (matching the kernel below)."""
    n = system.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"indices must lie in 1..{n}")
    e = np.zeros(n)
    e[j - 1] = 1.0
    return float(system.solve(e)[i - 1])


@dataclass(frozen=True)
class InverseKernelSpec:
    """Parameters of the inverse-entry envelope for T_n(g_{-alpha})^{-1}.

    ``alpha`` is the kernel exponent: the matrix symbol is g_{-alpha}, i.e.
    Hurst parameter 1/2 - alpha.  alpha = 0 (the identity) is excluded.
    """
    alpha: float
    n: int

    def __post_init__(self):
        if not (0.0 < abs(self.alpha) < 0.5):
            raise ValueError("kernel exponent must satisfy 0 < |alpha| < 1/2")
        if self.n < 2:
            raise ValueError("need n >= 2")

    @property
    def hurst(self) -> float:
        return 0.5 - self.alpha


def _envelope_base(alpha: float, n: int, x: float, y: float) -> float:
    # defined on the triangle y >= max(x, 1-x); two additive regimes:
    # an interior power of the gap and a boundary-weighted power
    xt = 1.0 - x
    val = 0.0
    if max(x, xt) <= y < 0.5 * (x + 1.0):
        val += max(abs(y - x), 1.0 / n) ** (-1.0 + 2.0 * alpha)
    if y >= max(xt, 0.5 * (x + 1.0)):
        val += (y - x) ** (-1.0 + alpha) * x ** alpha * (1.0 - y) ** alpha
    return val


def _symmetrised(alpha: float, n: int, x: float, y: float) -> float:
    # extend the triangle kernel to the whole unit square by the reflection
    # symmetries of the inverse matrix (symmetry and persymmetry)
    xt = 1.0 - x
    if y >= max(x, xt):
        return _envelope_base(alpha, n, x, y)
    if xt <= y < x:
        return _envelope_base(alpha, n, y, x)
    if x <= y < xt:
        return _envelope_base(alpha, n, 1.0 - y, 1.0 - x)
    return _envelope_base(alpha, n, xt, 1.0 - y)


def inverse_kernel_prediction(spec: InverseKernelSpec, i: int, j: int) -> float:
    """Order-of-magnitude envelope for |T_n(g_{-alpha})^{-1}_{ij}|, 1-based.

    Off the diagonal the envelope is ``n**(-1+2 alpha)`` times the reflected
    two-regime kernel evaluated at the clamped scaled coordinates
    ``x = clamp(i, 1, n-1)/n`` (and likewise for j).
    """
    n = spec.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"indices must lie in 1..{n}")
    if i == j:
        return 1.0
    x = min(max(i, 1), n - 1) / n
    y = min(max(j, 1), n - 1) / n
    return n ** (-1.0 + 2.0 * spec.alpha) * _symmetrised(spec.alpha, n, x, y)
