"""Small-ball lower bounds and measurement-count calculators.

The row-count formulas and success probabilities are implemented digit for
digit as printed, in five variants:

  thm_S          general subgaussian rows, width form (needs w(D S))
  thm_main       general subgaussian rows, sparsity form
  cor_non        correlated Gaussian rows N(0, Sigma), condition number kappa
  cor_sgauss     standard Gaussian rows
  thm_main_gauss sharpened correlated Gaussian estimate

Note: cor_non's success rate kappa^2/(4^5 pi^2) improves as kappa grows,
which is suspicious (the general thm_S rate degrades with kappa); it is kept
as printed, and thm_S supplies the conservative cross-check.

All logs are natural.  The constants are loose by design: for n = 100 the
standard Gaussian bound already asks for ~3x10^8 rows, so experiments sweep
empirical m grids instead (see the harness) while these calculators report
the formulas verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .nsp import SgammaParams, in_S_gamma
from .numerics import as_matrix
from .rng import RngStream
from .subgaussian import SubgaussianSpec, sample_measurement_matrix
from .width import WidthEstimate, _projection_values

FORMULA_IDS = ("thm_S", "thm_main", "cor_non", "cor_sgauss", "thm_main_gauss")

_SAMPLE_BLOCK = 100_000


@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by the measurement-count formulas."""

    eta: float
    gamma: float
    rho: float
    alpha: float
    sigma: float
    C: float
    s: int
    n: int
    kappa: float | None = None

    def __post_init__(self):
        if not (self.eta > 0 and self.rho > 0 and self.alpha > 0 and self.sigma > 0 and self.C > 0):
            raise DomainError("eta, rho, alpha, sigma, C must all be positive")
        if not (0.0 < self.gamma < 1.0):
            raise DomainError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not (1 <= self.s <= self.n):
            raise DomainError("need 1 <= s <= n")
        if self.kappa is not None and not (self.kappa >= 1.0):
            raise DomainError("kappa must be at least 1 when given")

    def _need_kappa(self, formula_id):
        if self.kappa is None:
            raise DomainError(f"{formula_id} requires kappa")
        return self.kappa


def m_min(formula_id: str, b: BoundInputs, width: float | None = None) -> float:
    """Minimal row count of the selected bound, exactly as printed."""
    if formula_id not in FORMULA_IDS:
        raise DomainError(f"unknown formula id {formula_id!r}")
    log_ns = math.log(math.sqrt(2.0) * b.n / b.s)
    if formula_id == "thm_S":
        if width is None:
            raise DomainError("thm_S requires the width of D S")
        if width < 0:
            raise DomainError("width must be nonnegative")
        return 4.0**8 / b.eta**2 * (b.sigma**6 / b.alpha**6) * b.C**2 * width**2
    if formula_id == "thm_main":
        return (
            36.0 * 4.0**8 / b.eta**2
            * (b.sigma**6 / b.alpha**6)
            * (b.rho / b.gamma**2)
            * b.C**2
            * b.s
            * log_ns
        )
    if formula_id == "cor_non":
        kappa = b._need_kappa("cor_non")
        return 9.0 * 2.0**15 * math.pi**3 / b.eta**2 * (b.rho * kappa**3 / b.gamma**2) * b.s * log_ns
    if formula_id == "cor_sgauss":
        return 9.0 * 2.0**15 * math.pi**3 / b.eta**2 * (b.rho / b.gamma**2) * b.s * log_ns
    # thm_main_gauss
    kappa = b._need_kappa("thm_main_gauss")
    return (
        18.0 * 2.0**9 * math.pi * math.e / b.eta**2
        * (b.rho * kappa / b.gamma**2)
        * b.s
        * math.log(2.0 * b.n)
    )


def success_rate(formula_id: str, b: BoundInputs) -> float:
    """Per-measurement exponent: success probability is 1 - exp(-m * rate)."""
    if formula_id in ("thm_S", "thm_main"):
        return b.alpha**4 / (64.0**2 * b.sigma**4)
    if formula_id == "cor_non":
        return b._need_kappa("cor_non") ** 2 / (4.0**5 * math.pi**2)  # as printed
    if formula_id == "cor_sgauss":
        return 1.0 / (4.0**5 * math.pi**2)
    if formula_id == "thm_main_gauss":
        return 1.0 / (128.0 * math.e * math.pi)
    raise DomainError(f"unknown formula id {formula_id!r}")


def success_probability(formula_id: str, b: BoundInputs, m: int) -> float:
    if m < 1:
        raise DomainError("m must be at least 1")
    return 1.0 - math.exp(-m * success_rate(formula_id, b))


class MendelsonBound(NamedTuple):
    value: float
    probability: float


def mendelson_lower_bound(b: BoundInputs, width: float, m: int, t: float) -> MendelsonBound:
    """Small-ball lower bound on inf ||Phi D x||_2 over the set:

        (alpha eta / 64)(alpha/sigma)^2 sqrt(m) - 2 C sigma width - (alpha eta / 4) t

    holding with probability at least 1 - exp(-t^2/2).
    """
    if not (t > 0.0):
        raise DomainError("t must be positive")
    value = (
        b.alpha * b.eta / 64.0 * (b.alpha / b.sigma) ** 2 * math.sqrt(m)
        - 2.0 * b.C * b.sigma * width
        - b.alpha * b.eta / 4.0 * t
    )
    return MendelsonBound(value, 1.0 - math.exp(-(t**2) / 2.0))


def estimate_Q(
    spec: SubgaussianSpec,
    D,
    probes,
    p: SgammaParams,
    xi: float,
    samples: int,
    rng: RngStream,
) -> float:
    """Empirical marginal small-ball probability for a dictionary matrix D.

    For each probe x the frequency of |<D x, phi>| >= xi is estimated on a
    shared batch of rows; the minimum over probes is returned.  Probes are a
    finite stand-in for the infimum over S_gamma, so this is an UPPER bound
    on the true Q.
    """
    if xi < 0.0:
        raise DomainError("xi must be nonnegative")
    if samples < 1:
        raise DomainError("samples must be at least 1")
    M = as_matrix(D)
    X = np.column_stack([np.asarray(x, dtype=float) for x in probes])
    for i in range(X.shape[1]):
        if not in_S_gamma(X[:, i], p, tol=1e-8):
            raise DomainError(f"probe {i} is not a member of S_gamma")
    V = M @ X  # (d, num_probes)
    counts = np.zeros(X.shape[1])
    done = 0
    while done < samples:
        block = min(_SAMPLE_BLOCK, samples - done)
        phi = sample_measurement_matrix(spec, block, spec.dim, rng)
        counts += (np.abs(phi @ V) >= xi).sum(axis=0)
        done += block
    return float((counts / samples).min())


def estimate_W(
    spec: SubgaussianSpec,
    D,
    p: SgammaParams,
    m: int,
    samples: int,
    rng: RngStream,
) -> WidthEstimate:
    """Empirical mean width for a d x n dictionary matrix D: per sample draw
    m rows f_i = D^T phi_i and signs eps_i, form h = m^{-1/2} sum eps_i f_i,
    and take the supremum over S_gamma by the cone projection of h D."""
    if m < 1:
        raise DomainError("m must be at least 1")
    if samples < 1:
        raise DomainError("samples must be at least 1")
    M = as_matrix(D)
    d = M.shape[0]
    v = np.empty(samples)
    block_cap = max(1, _SAMPLE_BLOCK // m)
    for i in range(0, samples, block_cap):
        block = min(block_cap, samples - i)
        phi = sample_measurement_matrix(spec, block * m, d, rng).reshape(block, m, d)
        eps = rng.signs((block, m))
        h = np.einsum("bm,bmd->bd", eps, phi) / math.sqrt(m)
        _projection_values(h, M, p, v[i : i + block])
    se = float(v.std(ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0
    return WidthEstimate(float(v.mean()), se, int(samples), "empirical_width", None)


def bounds_table(b: BoundInputs, width: float | None = None, m: int | None = None) -> list:
    """Rows {formula_id, m_min, rate, prob_at_m} for all five formulas.

    Formulas whose extra input (width, kappa) is missing get a None m_min;
    prob_at_m defaults to the probability at ceil(m_min) when m is omitted.
    """
    rows = []
    for fid in FORMULA_IDS:
        try:
            mm = m_min(fid, b, width=width)
        except DomainError:
            mm = None
        try:
            rate = success_rate(fid, b)
        except DomainError:
            rate = None
        at = m
        if at is None and mm is not None and mm > 0:
            at = int(math.ceil(mm))
        prob = None
        if rate is not None and at is not None and at >= 1:
            prob = success_probability(fid, b, at)
        rows.append({"formula_id": fid, "m_min": mm, "rate": rate, "prob_at_m": prob})
    return rows
