"""Evaluate the closed-form measurement-count guarantees.

Five printed bounds say how many subgaussian rows preserve the NSP of a
composition with high probability.  Their constants are enormous (a
standard Gaussian setup at n = 100 already asks for ~3e8 rows), which is
why the experiment harness sweeps small empirical m grids instead; these
calculators reproduce the formulas verbatim for comparison.
"""

import math

from nsplab import (
    BoundInputs,
    FORMULA_IDS,
    bounds_table,
    m_min,
    success_probability,
)

b = BoundInputs(
    eta=1.0, gamma=0.5, rho=1.0,
    alpha=math.sqrt(2 / math.pi), sigma=1.0, C=1.0,
    s=2, n=100, kappa=1.0,
)

print("inputs: eta=1, gamma=0.5, rho=1, standard Gaussian rows, s=2, n=100")
print(f"{'formula':>15} {'m_min':>12} {'rate':>12} {'prob@m_min':>11}")
for row in bounds_table(b, width=3.0):
    print(f"{row['formula_id']:>15} {row['m_min']:>12.4g} {row['rate']:>12.4g} "
          f"{row['prob_at_m']:>11.4g}")

print("\nhomogeneity: doubling eta divides every bound by 4")
for fid in FORMULA_IDS:
    w = 3.0 if fid == "thm_S" else None
    b2 = BoundInputs(eta=2.0, gamma=0.5, rho=1.0, alpha=b.alpha, sigma=1.0,
                     C=1.0, s=2, n=100, kappa=1.0)
    print(f"  {fid:>15}: ratio = {m_min(fid, b, width=w) / m_min(fid, b2, width=w):.1f}")

print("\nsuccess probability grows like 1 - exp(-m * rate):")
for m in (1000, 10_000, 100_000):
    p = success_probability("thm_main_gauss", b, m)
    print(f"  m = {m:>7}: probability {p:.4f}")

