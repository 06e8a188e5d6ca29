"""Subgaussian row distributions: parameters and sampling.

A row distribution is tagged with (alpha, sigma): alpha lower-bounds
E|<phi, z>| over unit z and sigma gives the Gaussian-type tail
Pr(|<phi, z>| >= t) <= 2 exp(-t^2 / (2 sigma^2)).  The empirical-width
constant C is 1 for Gaussian rows; for rademacher rows no universal value is
published, so C is a required explicit input there.  kappa is the condition
number of the row covariance, 1 for the isotropic kinds; for gaussian_sigma
it comes from the same eigendecomposition as alpha and sigma.  The spec is
the whole row law: the sampler reads the dimension from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import as_matrix
from .rng import RngStream

KINDS = ("std_gaussian", "gaussian_sigma", "rademacher")

EIG_FLOOR = 1e-12  # below this, a covariance eigenvalue counts as non-positive


@dataclass(frozen=True)
class SubgaussianSpec:
    kind: str
    dim: int
    alpha: float
    sigma: float
    width_constant: float           # the C in W_m(S) <= C sigma w(S)
    kappa: float = 1.0              # covariance condition number lambda_max / lambda_min
    sqrt_covariance: np.ndarray | None = None


def make_spec(kind, d, covariance=None, width_constant=None) -> SubgaussianSpec:
    """Build a row-distribution spec with its (alpha, sigma, C) parameters."""
    if kind not in KINDS:
        raise DomainError(f"unknown subgaussian kind {kind!r}")
    if d < 1:
        raise DomainError("dimension must be at least 1")
    if kind == "std_gaussian":
        if covariance is not None:
            raise DomainError("std_gaussian takes no covariance")
        return SubgaussianSpec(kind, d, math.sqrt(2.0 / math.pi), 1.0, 1.0)
    if kind == "rademacher":
        if covariance is not None:
            raise DomainError("rademacher takes no covariance")
        if width_constant is None or not (width_constant > 0):
            raise DomainError(
                "rademacher rows need an explicit positive width constant C"
            )
        # Khintchine lower constant 1/sqrt(2); Hoeffding tail gives sigma = 1.
        return SubgaussianSpec(kind, d, 1.0 / math.sqrt(2.0), 1.0, float(width_constant))
    # gaussian_sigma
    if covariance is None:
        raise DomainError("gaussian_sigma requires a covariance matrix")
    S = as_matrix(covariance)
    if S.shape != (d, d):
        raise DomainError(f"covariance has shape {S.shape}, expected {(d, d)}")
    if not np.allclose(S, S.T, atol=1e-10):
        raise DomainError("covariance must be symmetric")
    evals, evecs = np.linalg.eigh(0.5 * (S + S.T))
    if evals[0] <= EIG_FLOOR:
        raise DomainError(f"covariance must be positive definite (min eig {evals[0]:.3e})")
    sqrt_cov = (evecs * np.sqrt(evals)) @ evecs.T
    alpha = math.sqrt(evals[0]) * math.sqrt(2.0 / math.pi)
    sigma = math.sqrt(evals[-1])
    kappa = float(evals[-1] / evals[0])
    sqrt_cov.flags.writeable = False
    return SubgaussianSpec(kind, d, alpha, sigma, 1.0, kappa, sqrt_cov)


def sample_measurement_matrix(spec: SubgaussianSpec, m, rng: RngStream) -> np.ndarray:
    """m x spec.dim matrix with rows drawn iid from the spec's distribution."""
    if m < 1:
        raise DomainError("m must be at least 1")
    if spec.kind == "rademacher":
        return rng.signs((m, spec.dim))
    G = rng.normal((m, spec.dim))
    if spec.kind == "std_gaussian":
        return G
    return G @ spec.sqrt_covariance  # rows are Sigma^{1/2} g
