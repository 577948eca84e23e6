"""Levinson-Durbin kernels.

Compiled with numba when available (the default); a vectorised numpy fallback
keeps the package importable without a working JIT.  Both paths return a
``status``: 0 for success, otherwise the 1-based order at which the recursion
lost positive definiteness (reflection magnitude >= 1 - 1e-12 or nonpositive
prediction variance).
"""
from __future__ import annotations

import math

import numpy as np

_BREAKDOWN = 1.0 - 1e-12


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
        k = (gam[m] - np.dot(seg, gam[1:m])) / s
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


def _solve_py(gam, y):
    n = gam.shape[0]
    x = np.zeros(n)
    sig = np.empty(n)
    sig[0] = gam[0]
    if gam[0] <= 0.0:
        return x, sig, 1
    a = np.zeros(max(n - 1, 0))
    x[0] = y[0] / gam[0]
    for m in range(1, n):
        acc = gam[m] - np.dot(a[:m - 1], gam[m - 1:0:-1])
        k = acc / sig[m - 1]
        if not np.isfinite(k) or abs(k) >= _BREAKDOWN:
            return x, sig, m
        a[:m - 1] = a[:m - 1] - k * a[:m - 1][::-1]
        a[m - 1] = k
        sig[m] = sig[m - 1] * (1.0 - k * k)
        if sig[m] <= 0.0:
            return x, sig, m
        mu = (y[m] - np.dot(gam[1:m + 1], x[m - 1::-1])) / sig[m]
        x[:m] = x[:m] - mu * a[m - 1::-1]
        x[m] = mu
    return x, sig, 0


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

    @njit(cache=True, nogil=True)
    def _solve_jit(gam, y):
        n = gam.shape[0]
        x = np.zeros(n)
        sig = np.empty(n)
        sig[0] = gam[0]
        if gam[0] <= 0.0:
            return x, sig, 1
        a = np.zeros(max(n - 1, 0))
        x[0] = y[0] / gam[0]
        for m in range(1, n):
            acc = gam[m]
            for j in range(1, m):
                acc -= a[j - 1] * gam[m - j]
            k = acc / sig[m - 1]
            if not np.isfinite(k) or abs(k) >= _BREAKDOWN:
                return x, sig, m
            half = (m - 1) // 2
            for j in range(half):
                u = a[j] - k * a[m - 2 - j]
                v = a[m - 2 - j] - k * a[j]
                a[j] = u
                a[m - 2 - j] = v
            if (m - 1) % 2 == 1:
                a[half] -= k * a[half]
            a[m - 1] = k
            sig[m] = sig[m - 1] * (1.0 - k * k)
            if sig[m] <= 0.0:
                return x, sig, m
            mu = y[m]
            for j in range(1, m + 1):
                mu -= gam[j] * x[m - j]
            mu /= sig[m]
            for j in range(m):
                x[j] -= mu * a[m - 1 - j]
            x[m] = mu
        return x, sig, 0

    HAVE_JIT = True
except Exception:  # pragma: no cover
    _durbin_jit = None
    _solve_jit = None
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


def levinson_solve(gam, y):
    """Solve ``T x = y`` for symmetric Toeplitz ``T`` with first row ``gam``,
    returning (x, prediction variances, status) from a single fused pass."""
    gam = np.ascontiguousarray(gam, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    if y.shape != gam.shape:
        raise ValueError("right-hand side length must match the Toeplitz order")
    if HAVE_JIT:
        x, sig, status = _solve_jit(gam, y)
    else:
        x, sig, status = _solve_py(gam, y)
    return x, sig, int(status)
