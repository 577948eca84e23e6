"""Internal quadrature helpers shared by the symbol and harness layers.

Every symbol integral in the package has the form ``int_0^pi t**(c-1) phi(t)
dt`` with c > 0, where phi is built from lattice sums that tend to a
polynomial in log t as t -> 0.  ``log_power_rule`` is the one fixed rule for
all of them, written in x = -log t.  ``adaptive_simpson`` is used only by the
norming-constant quadrature that the tests compare the closed form against.
"""
from __future__ import annotations

import math
from functools import lru_cache

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


# Past x = _CUT (t = e**-40) every lattice factor t**s * S_reg(t), s > 1, is
# below 2**-53 of 1, so phi is a polynomial of degree <= 2 in x there and the
# 16-point Gauss-Laguerre tail integrates it exactly against e**(-c x).  On
# [-log pi, _CUT] phi is analytic in x; 16-point Gauss-Legendre panels of
# width 0.69 resolve it and e**(-c x) to rounding for every c in (0, 3).
_PANELS = 60
_PANEL_NODES = 16
_CUT = 40.0
_TAIL_NODES = 16


@lru_cache(maxsize=1)
def _base_rule():
    gx, gw = np.polynomial.legendre.leggauss(_PANEL_NODES)
    edges = np.linspace(-math.log(math.pi), _CUT, _PANELS + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * gx).ravel()
    w = (half[:, None] * gw).ravel()
    lx, lw = np.polynomial.laguerre.laggauss(_TAIL_NODES)
    return x, w, lx, lw


def log_power_rule(c: float):
    """Nodes ``x`` and weights ``w`` with
    ``sum(w * phi(exp(-x))) ~ int_0^pi t**(c-1) * phi(t) dt`` for c > 0.

    The integral is taken in x = -log t, where it reads
    ``int_{-log pi}^inf e**(-c x) phi(e**-x) dx``: Gauss-Legendre panels up to
    x = 40, then Gauss-Laguerre in c (x - 40).  The same 976 nodes serve every
    c, down to c -> 0; callers take log t as -x, exact where t underflows.
    """
    c = float(c)
    if not c > 0.0:
        raise ValueError("endpoint exponent c must be positive")
    x, w, lx, lw = _base_rule()
    nodes = np.concatenate([x, _CUT + lx / c])
    weights = np.concatenate([w * np.exp(-c * x), lw * (math.exp(-c * _CUT) / c)])
    return nodes, weights
