"""Estimate the Gaussian width of the NSP-violating image set.

Per Gaussian draw g, the supremum of <D^T g, x> over the violating set
reduces (by permutation and sign symmetry) to a projection onto a convex
cone, computed exactly from one closed-form multiplier per draw.  Two closed
forms bracket the estimates: a sparsity-aware bound ~ sqrt(s log(n/s)) and a
crude operator norm bound ~ sqrt(n).
"""

from nsplab import (
    ConeParams,
    RngStream,
    crude_width_bound,
    make_dictionary,
    theory_width_bound,
    unit_ball_width,
    width_DS_gamma_mc,
)

rng = RngStream(7)
SAMPLES = 4000

print("== sanity: identity dictionary, whole sphere ==")
D = make_dictionary("identity", 10, 10)
est = width_DS_gamma_mc(D, ConeParams(1.0, 10, 10), SAMPLES, rng.substream("id"))
print(f"estimated width {est.mean:.4f} +- {est.std_error:.4f}")
print(f"exact expected norm of a 10-dim Gaussian: {unit_ball_width(10):.4f}")

print("\n== sparsity shrinks the set ==")
header = f"{'s':>3} {'gamma':>6} {'mc':>8} {'theory':>8} {'crude':>8}"
print(header)
D = make_dictionary("gaussian_unit_norm", 16, 32, rng.substream("dict"))
crude = crude_width_bound(D)
for s in (1, 2, 3):
    for gamma in (0.5, 1.0):
        cone = ConeParams(gamma, s, 32)
        mc = width_DS_gamma_mc(D, cone, SAMPLES, rng.substream("mc", s, gamma))
        theory = theory_width_bound(cone, D.rho)
        print(f"{s:>3} {gamma:>6.2f} {mc.mean:>8.3f} {theory:>8.3f} {crude:>8.3f}")

print("\nthe Monte Carlo mean sits far below the closed-form bounds; the crude")
print("sqrt(n) bound shows why the sparsity-aware estimate matters for")
print("measurement counts.")
