"""Internal quadrature helpers shared by the symbol and harness layers.

Two workhorses live here: a breadth-first adaptive Simpson rule that accepts
vectorised integrands, and a composite Gauss-Legendre rule on geometrically
graded panels for integrands with an endpoint power or log singularity.
"""
from __future__ import annotations

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when a quadrature rule cannot reach the requested tolerance."""


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-8,
                     max_rounds: int = 48, initial_panels: int = 8) -> float:
    """Adaptive Simpson integral of ``f`` on [a, b].

    ``f`` must accept a 1-d numpy array and return values of the same shape.
    ``tol`` is an absolute tolerance on the whole integral; each panel is
    accepted when its Richardson error estimate is below the width-prorated
    share of ``tol``.  Panels are refined breadth first so every round costs
    one vectorised call to ``f``.  Panels still open at the final round are
    taken as-is; the call fails only if their combined error estimate busts
    the overall budget (a per-width share below the roundoff floor must not
    stall an otherwise converged integral).
    """
    if not b > a:
        raise ValueError("empty integration interval")
    edges = np.linspace(a, b, initial_panels + 1)
    xa, xb = edges[:-1].copy(), edges[1:].copy()
    fe = f(edges)
    fa, fb = fe[:-1].copy(), fe[1:].copy()
    xm = 0.5 * (xa + xb)
    fm = f(xm)
    total = 0.0
    span = b - a
    for round_idx in range(max_rounds):
        width = xb - xa
        s1 = width / 6.0 * (fa + 4.0 * fm + fb)
        xl = 0.5 * (xa + xm)
        xr = 0.5 * (xm + xb)
        fl = f(xl)
        fr = f(xr)
        s2 = width / 12.0 * (fa + 4.0 * fl + 2.0 * fm + 4.0 * fr + fb)
        err = (s2 - s1) / 15.0
        done = np.abs(err) <= tol * (width / span)
        if round_idx == max_rounds - 1:
            leftover = float(np.sum(np.abs(err[~done])))
            if leftover > tol:
                raise QuadratureError(
                    "adaptive Simpson stalled with %d open panels "
                    "(combined error %.3e, tol %.3e)"
                    % (int(np.sum(~done)), leftover, tol))
            done[:] = True
        total += float(np.sum(s2[done] + err[done]))
        keep = ~done
        if not keep.any():
            return total
        # split surviving panels at their midpoints
        xa = np.concatenate([xa[keep], xm[keep]])
        xb = np.concatenate([xm[keep], xb[keep]])
        fa = np.concatenate([fa[keep], fm[keep]])
        fb = np.concatenate([fm[keep], fb[keep]])
        xm = np.concatenate([xl[keep], xr[keep]])
        fm = np.concatenate([fl[keep], fr[keep]])
    raise AssertionError("unreachable")


def graded_gl_rule(b: float, exponent: float = 0.0, nodes_per_panel: int = 16,
                   digits: float = 13.0, ratio: float = 0.5):
    """Nodes and weights for ``int_0^b`` of a function like ``t**exponent``
    (times something smooth) with ``exponent > -1``.

    Panels shrink geometrically toward 0 so Gauss-Legendre stays spectrally
    accurate on each panel; the number of panels is chosen so the neglected
    stub [0, eps] contributes below ``10**-digits`` for the given exponent.
    """
    if exponent <= -1.0:
        raise ValueError("endpoint exponent must exceed -1")
    decay = 1.0 + min(exponent, 1.0)
    n_geo = int(np.ceil(digits * np.log(10.0) / (decay * np.log(1.0 / ratio)))) + 4
    rel = b * ratio ** np.arange(n_geo + 1)
    edges = np.concatenate([[0.0], rel[::-1]])
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
