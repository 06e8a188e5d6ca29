"""Recover dictionary-sparse signals by l1 minimization.

min ||x||_1 subject to ||y - B x||_2 <= eps, solved by a LASSO homotopy,
exact for any noise radius, basis pursuit (eps = 0) included.  When the
composition certifies the NSP, recovery of planted sparse coefficients is
exact, and on noisy instances the solution meets the measurement ball.
"""

import numpy as np

from nsplab import (
    RngStream,
    certify_nsp,
    make_dictionary,
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
path = solve_l1_synthesis(B, y)
print(f"homotopy: err {np.abs(path.x_hat - x0).max():.2e}, objective {path.objective:.6f} "
      f"({path.iterations} path steps, {path.status})")

print("\n== noisy recovery ==")
eps = 0.05
y_noisy = y + eps * rng.substream("noise").unit_vector(9)
res = solve_l1_synthesis(B, y_noisy, eps)
print(f"eps = {eps}: coefficient error {np.linalg.norm(res.x_hat - x0):.4f}")
print(f"residual {res.residual_norm:.6f} = eps ({res.status})")

print("\n== recovery must fail without the NSP ==")
base = rng.substream("bad").normal((6, 9))
Bbad = np.column_stack([base, 2.0 * base[:, 0]])
certb = certify_nsp(Bbad, 1)
x0 = np.zeros(10)
x0[list(certb.witness_support)] = certb.witness[list(certb.witness_support)]
res = solve_l1_synthesis(Bbad, Bbad @ x0)
print(f"failed certificate (gamma_star = {certb.gamma_star:.3f}): planted witness")
print(f"comes back with error {np.abs(res.x_hat - x0).max():.3f} (recovery broken)")
