"""Spectral factorization of the singular symbol into whitening coefficients.

The symbol g_alpha = |1-e^{it}|^{-2 alpha} smooth(t) splits into a pure
binomial power part w and an analytic outer root r of the smooth part;
their convolution q whitens the process.  Three fingerprints identify a
correct factorization: q conj(q) g_alpha = 1 on the grid, the coefficient
decay exponents, and the classical 1/Gamma(-alpha) tail constant of w.
One q_coefficient_check report carries the first two, all read from a
single outer root.

Run: python3 demos/04_symbol_factorization.py
"""
import math
import warnings

from hurstbayes import q_coefficient_check, w_asymptotics

for alpha in (0.25, -0.25):
    print(f"alpha = {alpha:+.2f}  (Hurst {alpha + 0.5:.2f})")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fast r-hat decay can hit the noise floor
        rep = q_coefficient_check(alpha)
    print(f"  outer-root constant C_alpha = {rep.c_alpha:.6f}")
    print(f"  max |q conj(q) g - 1| on grid = {rep.identity_error:.2e}")
    print(f"  q-hat residual decay: slope {rep.residual_slope:+.3f} "
          f"(bound {rep.slope_target:+.3f} + 0.2)")
    fit = rep.r_decay
    print(f"  r-hat decay: slope {fit.slope:+.3f} (target {fit.target:+.3f})")

    tail = w_asymptotics(alpha)
    print(f"  w-hat tail constant: {tail.measured:+.6f} vs "
          f"1/Gamma(-alpha) = {1.0 / math.gamma(-alpha):+.6f} "
          f"[{tail.matches}]")
    print()
