"""The Levinson-Durbin recursion and the products with T^{-1} built from it.

Durbin is the one recursion here: it yields the reflection coefficients, the
prediction-error variances and the order n-1 forward predictor of a
symmetric Toeplitz matrix T.  Every product with T^{-1} (quadratic forms,
solves) follows from that predictor by the Gohberg-Semencul formula in
O(n log n), with no second O(n^2) pass.

The recursion is compiled with numba when available (the default); a
vectorised numpy kernel keeps the package importable without a working JIT.
Both kernels return a ``status``: 0 for success, otherwise the 1-based
order at which the recursion lost positive definiteness (reflection
magnitude >= 1 - 1e-12 or nonpositive prediction variance).
"""
from __future__ import annotations

import math

import numpy as np

_BREAKDOWN = 1.0 - 1e-12
# OpenBLAS runs a dot product on several threads above about 10^4 entries,
# which makes a long numpy Durbin pass many times slower, worst when another
# process holds the other CPUs; the kernel sums its dots over chunks no
# longer than this, so one pass stays on one thread
DOT_CHUNK = 8192
_dot = np.dot


def _chunked_dot(a, b):
    # the sum of chunk dots; orders up to DOT_CHUNK take one _dot directly
    acc = 0.0
    for i in range(0, a.size, DOT_CHUNK):
        acc += _dot(a[i:i + DOT_CHUNK], b[i:i + DOT_CHUNK])
    return acc


def _durbin_py(gam):
    n = gam.shape[0]
    refl = np.zeros(max(n - 1, 0))
    sig = np.empty(n)
    # ar[n - 1 - j] holds predictor coefficient a[j]: stored reversed, the
    # inner product and the symmetric update read contiguous slices
    ar = np.zeros(n)
    sig[0] = gam[0]
    if gam[0] <= 0.0:
        return refl, sig, ar[:0:-1], 1
    s = sig[0]
    for m in range(1, n):
        seg = ar[n - m + 1:]
        if m <= DOT_CHUNK:
            dot = _dot(seg, gam[1:m])
        else:
            dot = _chunked_dot(seg, gam[1:m])
        k = (gam[m] - dot) / s
        if not math.isfinite(k) or abs(k) >= _BREAKDOWN:
            return refl, sig, ar[:0:-1], m
        seg -= k * seg[::-1]
        ar[n - m] = k
        refl[m - 1] = k
        s = s * (1.0 - k * k)
        sig[m] = s
        if s <= 0.0:
            return refl, sig, ar[:0:-1], m
    return refl, sig, ar[:0:-1], 0


try:  # pragma: no cover - exercised indirectly
    from numba import njit

    @njit(cache=True, nogil=True)
    def _durbin_jit(gam):
        n = gam.shape[0]
        refl = np.zeros(max(n - 1, 0))
        sig = np.empty(n)
        a = np.zeros(max(n - 1, 0))
        sig[0] = gam[0]
        if gam[0] <= 0.0:
            return refl, sig, a, 1
        for m in range(1, n):
            acc = gam[m]
            for j in range(1, m):
                acc -= a[j - 1] * gam[m - j]
            k = acc / sig[m - 1]
            if not np.isfinite(k) or abs(k) >= _BREAKDOWN:
                return refl, sig, a, m
            half = (m - 1) // 2
            for j in range(half):
                u = a[j] - k * a[m - 2 - j]
                v = a[m - 2 - j] - k * a[j]
                a[j] = u
                a[m - 2 - j] = v
            if (m - 1) % 2 == 1:
                a[half] -= k * a[half]
            a[m - 1] = k
            refl[m - 1] = k
            sig[m] = sig[m - 1] * (1.0 - k * k)
            if sig[m] <= 0.0:
                return refl, sig, a, m
        return refl, sig, a, 0

    # the benchmark worker still counts compiled signatures under the name
    # of the fused solve kernel this module used to carry
    _solve_jit = _durbin_jit
    HAVE_JIT = True
except Exception:  # pragma: no cover
    _durbin_jit = _solve_jit = None
    HAVE_JIT = False


def durbin(gam):
    """Reflection coefficients, prediction variances, status and the order
    n-1 forward predictor a_1..a_{n-1} (x_t is predicted by
    sum_j a_j x_{t-j}; valid when status is 0) of a symmetric
    positive-definite Toeplitz matrix given its first row ``gam``."""
    gam = np.ascontiguousarray(gam, dtype=float)
    if HAVE_JIT:
        refl, sig, pred, status = _durbin_jit(gam)
    else:
        refl, sig, pred, status = _durbin_py(gam)
    return refl, sig, int(status), pred


def _fft_len(n):
    # room for a full linear convolution of two length-n sequences, so
    # nothing wraps around into the first n entries
    return 1 << (2 * n - 2).bit_length()


def _factor_spectra(pred, m):
    # first columns of L and U: (1, -a_1, .., -a_{n-1}), (0, a_{n-1}, .., a_1)
    return (np.fft.rfft(np.concatenate(([1.0], -pred)), m),
            np.fft.rfft(np.concatenate(([0.0], pred[::-1])), m))


def semencul_halves(pred, y):
    """Half-products L^T y and U^T y of the Gohberg-Semencul formula.

    With ``pred`` the order n-1 forward predictor a_1..a_{n-1} from
    :func:`durbin` and var its prediction variance,
    var * T^{-1} = L L^T - U U^T, where L and U are lower triangular Toeplitz
    with first columns (1, -a_1, .., -a_{n-1}) and (0, a_{n-1}, .., a_1).
    Persymmetry gives L^T y = J L J y (J reverses a vector), so each half is
    one zero-padded FFT convolution with J y, and
    <y, T^{-1} y> = (|L^T y|^2 - |U^T y|^2) / var.
    """
    m = _fft_len(y.size)
    return _halves(*_factor_spectra(pred, m), y, m)


def _halves(fl, fu, y, m):
    n = y.size
    fy = np.fft.rfft(y[::-1], m)
    return (np.fft.irfft(fl * fy, m)[n - 1::-1],
            np.fft.irfft(fu * fy, m)[n - 1::-1])


def semencul_solve(pred, var, y):
    """T^{-1} y = (L L^T y - U U^T y) / var: the half-products of
    :func:`semencul_halves` and two more FFT convolutions, O(n log n)."""
    n = y.size
    m = _fft_len(n)
    fl, fu = _factor_spectra(pred, m)
    lt, ut = _halves(fl, fu, y, m)
    return np.fft.irfft(fl * np.fft.rfft(lt, m) - fu * np.fft.rfft(ut, m),
                        m)[:n] / var


def levinson_solve(gam, y):
    """Solve ``T x = y`` for symmetric Toeplitz ``T`` with first row ``gam``,
    returning (x, prediction variances, status): one Durbin pass, then the
    Gohberg-Semencul products of its last predictor.  x is NaN unless status
    is 0."""
    gam = np.ascontiguousarray(gam, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    if y.shape != gam.shape:
        raise ValueError("right-hand side length must match the Toeplitz order")
    _, sig, status, pred = durbin(gam)
    if status:
        return np.full(gam.size, np.nan), sig, status
    return semencul_solve(pred, sig[-1], y), sig, status
