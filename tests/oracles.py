"""Independent oracles for the test suite.

Everything here recomputes package quantities through a different route:
Hurwitz-zeta closed forms for the lattice sums, tanh-sinh quadrature in
mpmath for the ratio integrals, weighted Clenshaw-Curtis quadrature for
spectral autocovariances, dense linear algebra for Toeplitz answers,
one einsum tensor contraction per Wick pairing for quadratic-form moments,
and complex FFTs over the whole midpoint grid for outer square roots.
None of it imports the module under test's internals beyond public entry
points needed to build inputs.
"""
import math
from string import ascii_letters

import mpmath as mp
import numpy as np
import scipy.integrate
import scipy.linalg

TWO_PI = 2.0 * math.pi


def norming_oracle(h: float) -> mp.mpf:
    """Normalizer of the folded spectral density: sin(pi h) Gamma(2h + 1)."""
    h = mp.mpf(h)
    return mp.sin(mp.pi * h) * mp.gamma(2 * h + 1)


def lattice_oracle(t: float, s: float, log_weight: int = 0) -> float:
    """sum_{k != 0} |t - 2 pi k|^{-s} log^w |t - 2 pi k| via Hurwitz zeta.

    The two half-lattices are (2 pi)^{-s} zeta(s, 1 -+ t/(2 pi)); log weights
    come from s-derivatives of the same expression.
    """
    t = mp.mpf(t)
    s0 = mp.mpf(s)
    a_minus = 1 - t / TWO_PI
    a_plus = 1 + t / TWO_PI

    def half_sum(ss):
        return TWO_PI ** (-ss) * (mp.zeta(ss, a_minus) + mp.zeta(ss, a_plus))

    if log_weight == 0:
        return float(half_sum(s0))
    # sum v^{-s} log^w v = (-1)^w d^w/ds^w sum v^{-s}
    return float((-1) ** log_weight * mp.diff(half_sum, s0, log_weight))


def density_oracle(h: float, t: float) -> mp.mpf:
    """Spectral density at t in (-pi, pi], full-lattice form in mpmath."""
    h = mp.mpf(h)
    t = mp.mpf(t)
    s = 2 * h + 1
    lattice = abs(t) ** (-s) + mp.mpf(lattice_oracle(float(t), float(s)))
    return norming_oracle(h) * (2 * mp.sin(abs(t) / 2)) ** 2 * lattice


def f_ratio_oracle(alpha: float, beta: float, digits: int = 20) -> float:
    """(2 pi)^{-1} int g_beta / g_alpha over the torus, tanh-sinh in mpmath.

    alpha, beta are centered exponents (Hurst value minus 1/2); the integrand
    opens like t^{2(alpha-beta)} at zero, integrable for alpha - beta > -1/2.
    Near that boundary most of the mass sits at tiny t, so the integral is
    taken in x = -log t, split at x = 0, 10 and 100.
    """
    ha, hb = alpha + 0.5, beta + 0.5

    def integrand(x):
        t = mp.exp(-x)
        return t * density_oracle(hb, t) / density_oracle(ha, t)

    with mp.workdps(digits):
        val = mp.quad(integrand, [-mp.log(mp.pi), 0, 10, 100, mp.inf]) / mp.pi
    return float(val)


def autocov_spectral_oracle(h: float, lag: int, tol: float = 1e-9) -> float:
    """gamma_h(lag) as (1/pi) int_0^pi f_h(t) cos(lag t) dt.

    Splits off a neighbourhood of the t = 0 power singularity and lets the
    oscillatory weight rule handle the rest.
    """
    def f(t):
        return float(density_oracle(h, t))

    cut = 0.1
    head, _ = scipy.integrate.quad(lambda t: f(t) * math.cos(lag * t),
                                   0.0, cut, epsabs=tol, epsrel=tol, limit=200)
    if lag == 0:
        tail, _ = scipy.integrate.quad(f, cut, math.pi,
                                       epsabs=tol, epsrel=tol, limit=200)
    else:
        tail, _ = scipy.integrate.quad(f, cut, math.pi, weight="cos", wvar=lag,
                                       epsabs=tol, epsrel=tol, limit=200)
    return (head + tail) / math.pi


def dense_logdet_quad(gammas: np.ndarray, y: np.ndarray) -> tuple:
    """(log det T, <y, T^{-1} y>) by dense Cholesky."""
    cov = scipy.linalg.toeplitz(np.asarray(gammas, dtype=float))
    chol = scipy.linalg.cho_factor(cov, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
    quad = float(np.dot(y, scipy.linalg.cho_solve(chol, y)))
    return logdet, quad


def dense_inverse(gammas: np.ndarray) -> np.ndarray:
    return scipy.linalg.inv(scipy.linalg.toeplitz(np.asarray(gammas, dtype=float)))


def gaussian_log_likelihood(y: np.ndarray, cov: np.ndarray) -> float:
    """Exact N(0, cov) log density at y, dense route, constants included."""
    n = y.size
    chol = scipy.linalg.cho_factor(cov, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
    quad = float(np.dot(y, scipy.linalg.cho_solve(chol, y)))
    return -0.5 * (n * math.log(TWO_PI) + logdet + quad)


def perfect_matchings(slots: tuple) -> list:
    """Every perfect matching of ``slots`` as a list of (p, q) pairs."""
    if not slots:
        return [[]]
    head, rest = slots[0], slots[1:]
    return [[(head, q)] + tail for i, q in enumerate(rest)
            for tail in perfect_matchings(rest[:i] + rest[i + 1:])]


def isserlis_einsum_oracle(a: np.ndarray, c: np.ndarray, n: int) -> float:
    """E<xi, A xi>^n for xi ~ N(0, C) by Wick pairing, each pairing's
    network contracted as a whole by ``np.einsum``: factor t puts
    A[i_{2t}, i_{2t+1}] on slots 2t, 2t + 1, and each matched pair (p, q)
    with p < q contributes C[i_p, i_q]."""
    if n == 0:
        return 1.0
    letters = ascii_letters[:2 * n]
    a_subs = [letters[2 * t] + letters[2 * t + 1] for t in range(n)]
    operands = [a] * n + [c] * n
    total = 0.0
    for matching in perfect_matchings(tuple(range(2 * n))):
        c_subs = [letters[p] + letters[q] for p, q in matching]
        total += float(np.einsum(",".join(a_subs + c_subs) + "->", *operands,
                                 optimize=True))
    return total


def outer_root_full_grid(f: np.ndarray) -> tuple:
    """Outer square root of positive samples f on the whole midpoint grid
    t_j = -pi + (j + 1/2) 2 pi / m: conjugate of log f by an rfft Hilbert
    multiplier -i sgn(k), q = exp((log f + i conj) / 2) as a complex exp, and
    its Fourier coefficients by a complex FFT with the midpoint phase.

    Returns (coefficients 0..m/4, complex; largest negative-frequency
    coefficient relative to the largest of all)."""
    m = f.size
    log_f = np.log(f)
    spectrum = np.fft.rfft(log_f)
    spectrum[0] = spectrum[-1] = 0.0
    conj = np.fft.irfft(-1j * spectrum, n=m)
    q = np.exp(0.5 * log_f + 0.5j * conj)
    k = np.arange(m)
    k_signed = np.where(k <= m // 2, k, k - m)
    coeffs = np.exp(1j * k_signed * (math.pi - math.pi / m)) * np.fft.fft(q) / m
    scale = np.max(np.abs(coeffs))
    return coeffs[:m // 4 + 1], float(np.max(np.abs(coeffs[m // 2 + 1:])) / scale)
