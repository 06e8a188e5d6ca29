"""Recover dictionary-sparse signals by l1 minimization.

min ||x||_1 subject to ||y - B x||_2 <= eps, solved two ways: an exact LP
reformulation for the noiseless case and an operator-splitting iteration
for any noise radius.  When the composition certifies the NSP, recovery of
planted sparse coefficients is exact, and the certified error bound holds
on noisy instances.
"""

import numpy as np

from nsplab import (
    RecoveryBoundInputs,
    RecoveryProblem,
    RngStream,
    SgammaParams,
    certify_nsp,
    estimate_eta,
    evaluate_recovery,
    make_dictionary,
    solve_bp_lp,
    solve_l1_synthesis,
)
from nsplab.subgaussian import make_spec, sample_measurement_matrix

rng = RngStream(99)

D = make_dictionary("gaussian_unit_norm", 12, 18, rng.substream("dict"))
spec = make_spec("std_gaussian", 12)
phi = sample_measurement_matrix(spec, 9, 12, rng.substream("phi"))
B = phi @ D.matrix

cert = certify_nsp(B, s=1)
print(f"composition 9 x 18: gamma_star = {cert.gamma_star:.4f} ({cert.verdict})")

print("\n== noiseless recovery of a planted 1-sparse coefficient ==")
x0 = np.zeros(18)
x0[4] = 1.5
y = B @ x0
lp = solve_bp_lp(B, y)
admm = solve_l1_synthesis(RecoveryProblem(B, y, 0.0))
print(f"LP:        err {np.abs(lp.x_hat - x0).max():.2e}, objective {lp.objective:.6f}")
print(f"splitting: err {np.abs(admm.x_hat - x0).max():.2e}, objective {admm.objective:.6f} "
      f"({admm.iterations} iterations)")

print("\n== noisy recovery against the certified bound ==")
gamma = 0.5 * (cert.gamma_star + 1.0)
eta = estimate_eta(B, SgammaParams(gamma, 1), restarts=20, rng=rng.substream("eta"))
eps = 0.05
y_noisy = y + eps * rng.substream("noise").unit_vector(9)
res = solve_l1_synthesis(RecoveryProblem(B, y_noisy, eps))
report = evaluate_recovery(
    x0, res, D.matrix, RecoveryBoundInputs(gamma, eta.eta_upper, eps, C=1.0, sigma=1.0, s=1)
)
print(f"eps = {eps}: coefficient error {report.err_x:.4f} "
      f"<= bound {report.coefficient_bound:.4f}")
print(f"residual {res.residual_norm:.6f} <= eps + tolerance")

print("\n== recovery must fail without the NSP ==")
base = rng.substream("bad").normal((6, 9))
Bbad = np.column_stack([base, 2.0 * base[:, 0]])
certb = certify_nsp(Bbad, 1)
x0 = np.zeros(10)
x0[list(certb.witness_support)] = certb.witness[list(certb.witness_support)]
res = solve_bp_lp(Bbad, Bbad @ x0)
print(f"failed certificate (gamma_star = {certb.gamma_star:.3f}): planted witness")
print(f"comes back with error {np.abs(res.x_hat - x0).max():.3f} (recovery broken)")
