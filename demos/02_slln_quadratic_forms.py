"""Law of large numbers for Toeplitz quadratic forms.

Draw xi ~ N(0, T_n(g_beta)) and watch n^{-1} <xi, T_n(g_alpha)^{-1} xi>
settle on the ratio integral (2 pi)^{-1} int g_beta / g_alpha, which is
finite exactly when alpha - beta > -1/2.  The divergent regime is shown
alongside: there the statistic just grows.

Run: python3 demos/02_slln_quadratic_forms.py
"""
from hurstbayes import (autocov_seq, build_system, f_ratio_integral, quad_form,
                        replicate_rng, sample_fgn)

ALPHA, BETA = 0.2, -0.1
limit = f_ratio_integral(ALPHA, BETA)
print(f"convergent pair (alpha, beta) = ({ALPHA}, {BETA}); "
      f"limit F = {limit:.6f}")
print(f"{'n':>6} {'statistic':>12} {'rel gap':>10}")
for n in (256, 1024, 4096):
    system = build_system(autocov_seq(ALPHA + 0.5, n))
    xi = sample_fgn(BETA + 0.5, n, spacing=1.0, rng=replicate_rng(7, n)).increments
    stat = quad_form(system, xi) / n
    print(f"{n:>6} {stat:>12.6f} {abs(stat / limit - 1):>10.2%}")

ALPHA, BETA = -0.4, 0.3  # alpha - beta = -0.7 <= -1/2: no finite limit
print(f"\ndivergent pair (alpha, beta) = ({ALPHA}, {BETA}); the same "
      "statistic now grows without bound")
# one draw spreads about as widely as its mean here, so average ten
print(f"{'n':>6} {'mean of 10':>12}")
for n in (256, 1024, 4096):
    system = build_system(autocov_seq(ALPHA + 0.5, n))
    draws = [sample_fgn(BETA + 0.5, n, spacing=1.0, rng=replicate_rng(7, 10 * n + k))
             for k in range(10)]
    print(f"{n:>6} {sum(quad_form(system, d.increments) for d in draws) / (10 * n):>12.3f}")
