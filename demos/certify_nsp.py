"""Certify the stable null space property of dictionaries and compositions.

A matrix has the NSP of order s when every nonzero kernel vector carries
less l1 mass on any s coordinates than on the rest.  The worst head/tail
mass ratio is attained at a circuit, a kernel vector of minimal support, so
the certifier enumerates the circuits, each read off a table of the kernel
basis's maximal minors, and reports gamma_star, the largest ratio: below 1 the
property holds, and the witness shows where it is tightest.
"""

import numpy as np

from nsplab import (
    RngStream,
    certify_nsp,
    estimate_eta,
    make_dictionary,
    operator_norm,
    SgammaParams,
)

rng = RngStream(2024)

print("== a matrix that holds ==")
A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
cert = certify_nsp(A, s=1)
print(f"gamma_star = {cert.gamma_star:.6f}  verdict = {cert.verdict}")
print(f"witness support {cert.witness_support}, witness {np.round(cert.witness, 4)}")

print("\n== a matrix that fails ==")
cert = certify_nsp(np.array([[1.0, 1.0]]), s=1)
print(f"gamma_star = {cert.gamma_star:.6f}  verdict = {cert.verdict}")
print("(the kernel vector (1, -1) splits its mass evenly: the tie fails)")

print("\n== random overcomplete dictionary ==")
D = make_dictionary("gaussian_unit_norm", d=10, n=14, rng=rng.substream("dict"))
cert = certify_nsp(D.matrix, s=1)
print(f"10 x 14 unit-norm dictionary: gamma_star = {cert.gamma_star:.4f} ({cert.verdict})")
print(f"route {cert.method!r}, {cert.evaluated} circuit candidates evaluated")
print(f"rho = {D.rho:.3f}, operator norm = {operator_norm(D.matrix):.3f}")

print("\n== the equivalent lower-bound form ==")
# holding the NSP is the same as ||D x||_2 staying away from zero on the
# set of unit vectors that violate the mass inequality at level gamma
gamma = 0.5 * (cert.gamma_star + 1.0)
eta = estimate_eta(D.matrix, SgammaParams(gamma, 1), restarts=20, rng=rng.substream("eta"))
print(f"at gamma = {gamma:.4f}: estimated inf ||D x||_2 over the violating set")
print(f"  eta_upper = {eta.eta_upper:.4f}  (an upper bound: the search is nonconvex)")

print("\n== a sensing map applied to the dictionary ==")
phi = rng.substream("phi").normal((8, 10))
# the NSP of the composition phi @ D is what l1-synthesis recovery needs
comp = certify_nsp(phi @ D.matrix, s=1)
print(f"composition verdict = {comp.verdict}")
print(f"composition gamma_star = {comp.gamma_star:.4f}, tightest at {comp.witness_support}")
