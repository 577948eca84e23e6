"""Exact Bayesian posterior for the Hurst parameter of an FGN sample.

For raw increments y observed at spacing 1/n the unnormalized log posterior at
Hurst value u is

    log prior(u) + n u log n - (1/2) logdet T_n(f_u) - (1/2) n^{2u} Q_n(y, u),

with Q_n the Toeplitz quadratic form; the sample's own scaling enters only
through Q_n, never through a plug-in estimate of H.  The posterior is
evaluated exactly on an adaptive grid: a coarse scan, then ``_REFINE_ROUNDS``
= 2 rounds of ``_REFINE_NODES`` = 64 nodes spanning +-``_WINDOW_CELLS`` = 8
cells around the mode, and up to 3 more while the mode's neighbourhood is
sparsely sampled; each node costs one Durbin pass.  A Gaussian large-n
approximation with the exact centering alpha_n and curvature c_n is provided
alongside for comparison.

The exponent surrogate kappa(a) = n a log n - (n/2) n^{2(a - h)} F(a) and its
derivatives drive the asymptotics: alpha_n is the root of kappa', located
inside an explicit bracket built from the extrema of the limit ratio F at
``_SCAN_POINTS`` = 48 points of (h - 1/2 + ``EPS_MARGIN``, ``GRID_MAX``],
with ``EPS_MARGIN`` = 0.05 and ``GRID_MAX`` = 1 - 1e-3.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .symbols import _hurst_value, _ratio_value, autocov_seq, f_ratio_derivatives
# lattice_sum_regular, norming_constant, build_system and whittle_quad_form
# are not called here; perfbench/tracing.py wraps these names
from .symbols import lattice_sum_regular, norming_constant  # noqa: F401
from .toeplitz import build_system, whittle_quad_form  # noqa: F401
from .toeplitz import logdet_and_quad

__all__ = [
    "PosteriorGrid", "AsymptoticSummary", "log_posterior", "posterior_grid",
    "map_estimate", "posterior_moments", "credible_interval",
    "kappa_value", "kappa_prime", "kappa_second",
    "solve_alpha_n", "normal_approx_cdf", "EPS_MARGIN", "MAX_POSTERIOR_N",
]

# margin cutting out the neighbourhood of h - 1/2 where the ratio integral
# blows up
EPS_MARGIN = 0.05
# points of the scan for the extrema of F that bound alpha_n's bracket
_SCAN_POINTS = 48

GRID_MIN = 1e-3
GRID_MAX = 1.0 - 1e-3
_MIN_NODES = 64
# refinement after the coarse scan: each round evaluates _REFINE_NODES nodes
# spanning +-_WINDOW_CELLS cells of the last round around its mode
_REFINE_ROUNDS = 2
_REFINE_NODES = 64
_WINDOW_CELLS = 8

# cost ceiling of the exact grid: an estimate evaluates about 250-330 nodes
# and each costs one O(n^2) Durbin pass, so longer samples are refused
MAX_POSTERIOR_N = 1 << 16


def _logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))), shifted by the maximum so nothing overflows."""
    top = float(np.max(values))
    if not math.isfinite(top):
        return top
    return top + float(np.log(np.sum(np.exp(values - top))))


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.empty_like(nodes)
    w[0] = 0.5 * (nodes[1] - nodes[0])
    w[-1] = 0.5 * (nodes[-1] - nodes[-2])
    w[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    return w


class _NormalizationError(ValueError):
    """The log densities lie so far from 0 that a float ``log_norm`` cannot
    normalize them to the checked tolerance."""


@dataclass(frozen=True)
class PosteriorGrid:
    """Unnormalized log posterior on a sorted grid plus trapezoid weights.

    ``log_norm`` makes weights * exp(log_density - log_norm) sum to one;
    all downstream functionals are invariant under constants added to
    ``log_density``.
    """
    nodes: np.ndarray
    log_density: np.ndarray
    log_norm: float
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=float)
        logd = np.ascontiguousarray(self.log_density, dtype=float)
        w = np.ascontiguousarray(self.weights, dtype=float)
        if nodes.size < _MIN_NODES:
            raise ValueError(f"need at least {_MIN_NODES} grid nodes")
        if not (nodes.size == logd.size == w.size):
            raise ValueError("grid arrays must share a length")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] < GRID_MIN - 1e-12 or nodes[-1] > GRID_MAX + 1e-12:
            raise ValueError(f"nodes must lie within [{GRID_MIN}, {GRID_MAX}]")
        total = float(np.sum(w * np.exp(logd - self.log_norm)))
        if abs(total - 1.0) > 1e-10:
            raise _NormalizationError("normalization is inconsistent")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "log_density", logd)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_log_density(cls, nodes, log_density) -> "PosteriorGrid":
        nodes = np.asarray(nodes, dtype=float)
        logd = np.asarray(log_density, dtype=float)
        w = _trapezoid_weights(nodes)
        log_norm = _logsumexp(logd + np.log(w))
        return cls(nodes, logd, log_norm, w)

    def density(self) -> np.ndarray:
        """Normalized density values at the nodes."""
        return np.exp(self.log_density - self.log_norm)


def _log_prior_values(prior, nodes: np.ndarray) -> np.ndarray:
    if prior is None:
        return np.zeros(nodes.size)
    vals = np.asarray([float(prior(u)) for u in nodes])
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
        raise ValueError("prior must be finite and positive on the grid")
    return np.log(vals)


def _check_sample(y) -> np.ndarray:
    """The sample as a contiguous float vector; rejects input the likelihood
    cannot score (empty, longer than ``MAX_POSTERIOR_N``, non-finite, or with
    an overflowing |y|^2) and warns on an all-zero sample."""
    y = np.ascontiguousarray(y, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise ValueError("need a nonempty sample vector")
    if y.size > MAX_POSTERIOR_N:
        raise ValueError(f"sample has {y.size} values; the exact posterior "
                         f"grid is capped at n <= {MAX_POSTERIOR_N}")
    if not np.all(np.isfinite(y)):
        raise ValueError("sample contains non-finite values")
    with np.errstate(over="ignore"):
        norm2 = float(np.dot(y, y))
    if not math.isfinite(norm2):
        raise ValueError("sample scale overflows: |y|^2 is not finite; "
                         "rescale the sample")
    if not np.any(y):
        warnings.warn("all-zero sample: posterior reflects only the prior and "
                      "determinant terms", RuntimeWarning, stacklevel=3)
    return y


def _sample_grid(y: np.ndarray, nodes: np.ndarray,
                 logd: np.ndarray) -> PosteriorGrid:
    """The normalized grid of a sample's log posterior.  A badly scaled
    sample (FGN increments at n = 512 multiplied by 1e4 already are) drives
    the log densities to a magnitude where one ulp of ``log_norm`` exceeds
    the normalization tolerance; that is reported as the sample's scale, not
    as a grid fault."""
    try:
        return PosteriorGrid.from_log_density(nodes, logd)
    except _NormalizationError:
        rms = math.sqrt(float(np.dot(y, y)) / y.size)
        raise ValueError(
            f"sample scale (rms {rms:.3g}) puts the log posterior near "
            f"{float(np.max(logd)):.3g}, too far from 0 to normalize in "
            "floating point; rescale the sample") from None


def _log_kernel_nodes(y: np.ndarray,
                      nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the log likelihood kernel node by node, dropping failures."""
    n = y.size
    ln_n = math.log(n)
    out = np.full(nodes.size, -np.inf)
    ok = np.zeros(nodes.size, dtype=bool)
    for i, u in enumerate(nodes):
        gam = autocov_seq(u, n).gammas
        try:
            logdet, q = logdet_and_quad(gam, y)
            if not (math.isfinite(q) and math.isfinite(logdet)):
                raise ArithmeticError(f"non-finite quadratic form ({q}) or "
                                      f"log-determinant ({logdet})")
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            warnings.warn(f"dropping grid node u={u:.6f}: {exc}",
                          RuntimeWarning, stacklevel=3)
            continue
        # n^{2u} Q in log space so large n and u near 1 cannot overflow
        quad = math.exp(2.0 * u * ln_n + math.log(q)) if q > 0.0 else 0.0
        out[i] = n * u * ln_n - 0.5 * logdet - 0.5 * quad
        ok[i] = True
    return out, ok


def log_posterior(y, nodes,
                  prior: Optional[Callable[[float], float]] = None) -> PosteriorGrid:
    """Exact unnormalized log posterior of H on the supplied grid.

    ``prior`` is a density on (0, 1); None means uniform.  ``nodes`` must be
    a 1-d sequence of at least ``_MIN_NODES`` = 64 distinct values inside
    [1e-3, 1 - 1e-3], else ``ValueError`` before any Durbin pass.  A sample
    longer than ``MAX_POSTERIOR_N``, with non-finite values or with an
    overflowing scale is rejected.  Nodes where the Toeplitz factorization
    fails or gives a non-finite term are dropped with a warning; everything
    failing is an error.
    """
    y = _check_sample(y)
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1:
        raise ValueError("grid nodes must form a 1-d sequence")
    nodes = np.unique(nodes)
    if nodes.size < _MIN_NODES:
        raise ValueError(f"need at least {_MIN_NODES} distinct grid nodes, "
                         f"got {nodes.size}")
    if not (GRID_MIN <= nodes[0] and nodes[-1] <= GRID_MAX):
        raise ValueError(f"grid nodes must lie within [{GRID_MIN}, {GRID_MAX}]")
    logk, ok = _log_kernel_nodes(y, nodes)
    if not np.any(ok):
        raise RuntimeError("every grid node failed to factorize")
    nodes, logk = nodes[ok], logk[ok]
    logd = logk + _log_prior_values(prior, nodes)
    return _sample_grid(y, nodes, logd)


def _refine_window(nodes: np.ndarray, idx: int):
    lo = nodes[max(idx - _WINDOW_CELLS, 0)]
    hi = nodes[min(idx + _WINDOW_CELLS, nodes.size - 1)]
    return np.linspace(lo, hi, _REFINE_NODES)


def _divided_differences(x: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """First and second divided differences f[x0, x1] and f[x0, x1, x2] of
    three points; both depend on differences of f only."""
    d1 = (f[1] - f[0]) / (x[1] - x[0])
    d2 = (f[2] - f[1]) / (x[2] - x[1])
    return d1, (d2 - d1) / (x[2] - x[0])


def _mode_spread(nodes: np.ndarray, logd: np.ndarray) -> tuple[float, float]:
    """Mode location and a curvature-based sd estimate from grid values."""
    idx = int(np.argmax(logd))
    mode = float(nodes[idx])
    if 0 < idx < nodes.size - 1:
        _, dd = _divided_differences(nodes[idx - 1:idx + 2],
                                     logd[idx - 1:idx + 2])
        if dd < 0.0:
            # the log density's curvature is twice the second difference
            return mode, 1.0 / math.sqrt(-2.0 * dd)
    return mode, float(nodes[-1] - nodes[0])


def posterior_grid(y, prior: Optional[Callable[[float], float]] = None,
                   grid_min: float = GRID_MIN, grid_max: float = GRID_MAX,
                   coarse: int = 128) -> PosteriorGrid:
    """Adaptive posterior evaluation: a scan of ``coarse`` nodes, then
    ``_REFINE_ROUNDS`` refinement rounds of ``_REFINE_NODES`` nodes spanning
    +-``_WINDOW_CELLS`` current cells around the mode.  The returned grid
    merges every evaluated node, each scored by exactly one Durbin pass even
    where windows share nodes.  A sample longer than ``MAX_POSTERIOR_N``
    is rejected with ``ValueError`` before any Durbin pass.  A sample scaled
    so badly that its log posterior cannot be normalized is rejected with
    ``ValueError`` as soon as the coarse scan shows it."""
    if not (GRID_MIN - 1e-12 <= grid_min < grid_max <= GRID_MAX + 1e-12):
        raise ValueError("grid bounds must satisfy 1e-3 <= min < max <= 1-1e-3")
    if coarse < _MIN_NODES:
        raise ValueError(f"coarse grid needs at least {_MIN_NODES} nodes")
    y = _check_sample(y)
    evaluated: dict[float, float] = {}

    def run_round(points: np.ndarray):
        # a window end can be a node of the last round: score only new nodes
        fresh = points[[float(u) not in evaluated for u in points]]
        logk, ok = _log_kernel_nodes(y, fresh)
        for u, val, good in zip(fresh, logk, ok):
            if good:
                evaluated[float(u)] = float(val)
        kept = points[[float(u) in evaluated for u in points]]
        return kept, np.array([evaluated[float(u)] for u in kept])

    kept, vals = run_round(np.linspace(grid_min, grid_max, coarse))
    if kept.size == 0:
        raise RuntimeError("every grid node failed to factorize")
    if kept.size >= _MIN_NODES:
        # a badly scaled sample already shows in the coarse round's log
        # densities: reject it here rather than after every refinement
        _sample_grid(y, kept, vals)
    # _REFINE_ROUNDS rounds, then up to 3 more until the mode neighbourhood
    # is densely sampled (>= 32 nodes within +-5 sd), which the fixed
    # windows can undershoot at large n
    for done in range(_REFINE_ROUNDS + 3):
        if kept.size == 0:
            break
        if done >= _REFINE_ROUNDS:
            nodes = np.array(sorted(evaluated))
            logk = np.array([evaluated[u] for u in nodes])
            mode, sd = _mode_spread(nodes, logk)
            if np.sum(np.abs(nodes - mode) <= 5.0 * sd) >= 32:
                break
        kept, vals = run_round(_refine_window(kept, int(np.argmax(vals))))
    nodes = np.array(sorted(evaluated))
    logk = np.array([evaluated[u] for u in nodes])
    logd = logk + _log_prior_values(prior, nodes)
    return _sample_grid(y, nodes, logd)


def _parabola_vertex(x: np.ndarray, f: np.ndarray) -> float:
    """Vertex of the parabola through three points with x[1] the largest f,
    clamped to [x[0], x[2]]; x[1] itself when the points are not concave."""
    d1, dd = _divided_differences(x, f)
    if dd >= 0.0:
        return float(x[1])
    vertex = 0.5 * (x[0] + x[1]) - d1 / (2.0 * dd)
    return float(min(max(vertex, x[0]), x[2]))


def map_estimate(grid: PosteriorGrid) -> float:
    """Posterior mode, refined by a parabola through the top three nodes.
    A mode on the grid boundary is returned as-is with a warning."""
    idx = int(np.argmax(grid.log_density))
    if idx == 0 or idx == grid.nodes.size - 1:
        warnings.warn("posterior mode at grid boundary", RuntimeWarning,
                      stacklevel=2)
        return float(grid.nodes[idx])
    return _parabola_vertex(grid.nodes[idx - 1:idx + 2],
                            grid.log_density[idx - 1:idx + 2])


def posterior_moments(grid: PosteriorGrid) -> tuple[float, float]:
    """Trapezoid posterior mean and variance."""
    dens = grid.weights * grid.density()
    mean = float(np.dot(dens, grid.nodes))
    var = float(np.dot(dens, (grid.nodes - mean) ** 2))
    return mean, var


def credible_interval(grid: PosteriorGrid, level: float) -> tuple[float, float]:
    """Central credible interval from the piecewise-linear trapezoid CDF."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie strictly between 0 and 1")
    dens = grid.density()
    x = grid.nodes
    seg = 0.5 * (dens[1:] + dens[:-1]) * np.diff(x)
    cdf = np.concatenate([[0.0], np.cumsum(seg)])
    cdf /= cdf[-1]
    tail = 0.5 * (1.0 - level)

    def invert(p: float) -> float:
        j = int(np.searchsorted(cdf, p, side="right")) - 1
        j = min(max(j, 0), x.size - 2)
        span = cdf[j + 1] - cdf[j]
        frac = 0.0 if span <= 0.0 else (p - cdf[j]) / span
        return float(x[j] + frac * (x[j + 1] - x[j]))

    return invert(tail), invert(1.0 - tail)


# ---------------------------------------------------------------------------
# large-n exponent surrogate and its root


def _ratio_triplet(alpha_hurst: float, h_hat: float, ratio_fn):
    if ratio_fn is not None:
        return ratio_fn(alpha_hurst, h_hat)
    return f_ratio_derivatives(alpha_hurst - 0.5, h_hat)


def _check_alpha_domain(alpha: float, h: float):
    if not (h - 0.5 + EPS_MARGIN < alpha < 1.0):
        raise ValueError(
            f"alpha must lie in ({h - 0.5 + EPS_MARGIN:.4f}, 1) for this h_hat")


def kappa_value(alpha: float, n: int, h_hat, ratio_fn=None) -> float:
    """Exponent surrogate kappa(a) = n a log n - (n/2) n^{2(a-h)} F(a)."""
    h = _hurst_value(h_hat)
    _check_alpha_domain(alpha, h)
    ln_n = math.log(n)
    f = _ratio_triplet(alpha, h, ratio_fn).value
    return n * alpha * ln_n - 0.5 * n * math.exp(2.0 * (alpha - h) * ln_n) * f


def kappa_prime(alpha: float, n: int, h_hat, ratio_fn=None) -> float:
    """d/da of the exponent surrogate:
    n log n (1 - n^{2(a-h)} (F(a) + F'(a)/(2 log n)))."""
    h = _hurst_value(h_hat)
    _check_alpha_domain(alpha, h)
    ln_n = math.log(n)
    der = _ratio_triplet(alpha, h, ratio_fn)
    phi = der.value + der.d1 / (2.0 * ln_n)
    return n * ln_n * (1.0 - math.exp(2.0 * (alpha - h) * ln_n) * phi)


def kappa_second(alpha: float, n: int, h_hat, ratio_fn=None) -> float:
    """Second derivative: -n log^2 n * n^{2(a-h)} *
    (2 F + 2 F'/log n + F''/(2 log^2 n))."""
    h = _hurst_value(h_hat)
    _check_alpha_domain(alpha, h)
    ln_n = math.log(n)
    der = _ratio_triplet(alpha, h, ratio_fn)
    psi = 2.0 * der.value + 2.0 * der.d1 / ln_n + der.d2 / (2.0 * ln_n ** 2)
    return -n * ln_n ** 2 * math.exp(2.0 * (alpha - h) * ln_n) * psi


@dataclass(frozen=True)
class AsymptoticSummary:
    """Root and curvature of the exponent surrogate.

    ``alpha_n`` centers the Gaussian approximation, ``c_n`` rescales its
    curvature (c_n -> 1), ``predicted_sd`` = 1/(sqrt(c_n n) log n), and
    ``m_const`` bounds |alpha_n - h_hat| by m_const / log^2 n.
    """
    alpha_n: float
    c_n: float
    predicted_sd: float
    bracket: tuple
    m_const: float
    h_hat: float
    n: int

    def __post_init__(self):
        lo, hi = self.bracket
        if not (lo < self.alpha_n < hi):
            raise ValueError("root must lie strictly inside its bracket")
        if not (self.c_n > 0.0 and math.isfinite(self.c_n)):
            raise ValueError("curvature scale must be positive finite")


def _scan_domain(h: float) -> tuple:
    # integrability needs alpha > h - 1/2 + EPS_MARGIN; the posterior grid
    # spans [GRID_MIN, GRID_MAX], so the scan interval is the intersection
    return max(h - 0.5 + EPS_MARGIN + 1e-6, GRID_MIN), GRID_MAX


@lru_cache(maxsize=64)
def _ratio_extrema(h: float):
    """Grid extrema of alpha -> F(alpha) over (h - 1/2 + EPS_MARGIN,
    GRID_MAX], each value from the same fixed-rule ratio integral as
    ``f_ratio_derivatives``."""
    lo, hi = _scan_domain(h)
    vals = np.array([_ratio_value(a, h)
                     for a in np.linspace(lo, hi, _SCAN_POINTS)])
    if not np.all(np.isfinite(vals)):
        raise ArithmeticError("ratio scan produced non-finite values")
    return float(vals.min()), float(vals.max())


_ALPHA_XTOL = 1e-13
_ALPHA_MAXITER = 100


def _newton_root(f, slope, lo: float, hi: float, start: float) -> float:
    """Root of a decreasing f with f(lo) > 0 > f(hi): Newton steps on
    ``slope``, a bisection whenever a step would leave the shrinking bracket,
    until a Newton step or the bracket is below ``_ALPHA_XTOL``."""
    a = start if lo < start < hi else 0.5 * (lo + hi)
    for _ in range(_ALPHA_MAXITER):
        fa = f(a)
        if fa == 0.0:
            return a
        if fa > 0.0:
            lo = a
        else:
            hi = a
        da = slope(a)
        step = a - fa / da if da < 0.0 else math.nan
        if abs(step - a) <= _ALPHA_XTOL:
            # a last step may round onto the bracket end it came from
            return min(max(step, lo), hi)
        if not (lo < step < hi):
            step = 0.5 * (lo + hi)
        if hi - lo <= _ALPHA_XTOL:
            return step
        a = step
    raise RuntimeError(f"root of kappa' not found in {_ALPHA_MAXITER} steps")


def solve_alpha_n(n: int, h_hat, ratio_fn=None) -> AsymptoticSummary:
    """Locate the unique root alpha_n of kappa' and package the asymptotics.

    The bracket [h - (log 2 + log M)/log n, h + (log 2 - log m)/log n] comes
    from the extrema m, M of the limit ratio F at ``_SCAN_POINTS`` points of
    (h - 1/2 + EPS_MARGIN, GRID_MAX]; the root is then pinned by Newton steps
    on kappa'' from h, safeguarded by bisection inside the bracket.  If the
    bracket shows no sign change it is widened once before giving up.
    """
    if n < 8:
        raise ValueError("asymptotic summary needs n >= 8")
    h = _hurst_value(h_hat)
    ln_n = math.log(n)
    dom_lo, dom_hi = _scan_domain(h)
    if ratio_fn is None:
        m_f, big_m = _ratio_extrema(h)
    else:
        grid = np.linspace(dom_lo, dom_hi, _SCAN_POINTS)
        vals = np.array([ratio_fn(a, h).value for a in grid])
        m_f, big_m = float(vals.min()), float(vals.max())
    if not (0.0 < m_f <= big_m) or not math.isfinite(big_m):
        raise ArithmeticError("ratio extrema must be finite and positive")

    # kappa' and kappa'' at one alpha share one ratio triple
    @lru_cache(maxsize=1)
    def triple(a, hv):
        return _ratio_triplet(a, hv, ratio_fn)

    def clip(a):
        return min(max(a, dom_lo), dom_hi)

    def kp(a):
        return kappa_prime(a, n, h, triple)

    def kpp(a):
        return kappa_second(a, n, h, triple)

    widen = 1.0
    for attempt in range(2):
        lo = clip(h - widen * (math.log(2.0) + math.log(big_m)) / ln_n)
        hi = clip(h + widen * (math.log(2.0) - math.log(m_f)) / ln_n)
        if lo < hi and kp(lo) > 0.0 > kp(hi):
            break
        widen = 2.0
    else:
        raise RuntimeError("no sign change of kappa' inside the widened bracket")
    alpha_n = _newton_root(kp, kpp, lo, hi, h)
    c_n = -kpp(alpha_n) / (2.0 * n * ln_n ** 2)
    predicted_sd = 1.0 / (math.sqrt(c_n * n) * ln_n)
    m_const = math.log(2.0) + math.log(max(big_m, 1.0 / m_f))
    return AsymptoticSummary(alpha_n, c_n, predicted_sd, (lo, hi),
                             m_const, h, int(n))


def normal_approx_cdf(t: float, summary: AsymptoticSummary, n: int) -> float:
    """Gaussian approximation to the posterior CDF:
    Phi((t - alpha_n) sqrt(c_n n) log n)."""
    z = (t - summary.alpha_n) * math.sqrt(summary.c_n * n) * math.log(n)
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
