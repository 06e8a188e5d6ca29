"""Measurement-count calculators: the paper's row-count formulas.

Each formula follows from a small-ball lower bound on inf ||Phi D x||_2 over
S_gamma.  The module keeps only the formulas, plain floats over BoundInputs;
the small-ball bound itself is a test oracle that checks the thm_S
derivation.  The row counts and success probabilities are implemented digit
for digit as printed, in five variants:

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

import functools
import math
from dataclasses import dataclass

from .errors import DomainError

FORMULA_IDS = ("thm_S", "thm_main", "cor_non", "cor_sgauss", "thm_main_gauss")


class _MissingInput(DomainError):
    """A formula's extra input, the width or kappa, was not given."""


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
        if not all(0.0 < v < math.inf for v in (self.eta, self.rho, self.alpha, self.sigma, self.C)):
            raise DomainError("eta, rho, alpha, sigma, C must all be positive and finite")
        if not (0.0 < self.gamma < 1.0):
            raise DomainError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not (1 <= self.s <= self.n):
            raise DomainError("need 1 <= s <= n")
        if self.kappa is not None and not (1.0 <= self.kappa < math.inf):
            raise DomainError("kappa must be finite and at least 1 when given")

    def _need_kappa(self, formula_id):
        if self.kappa is None:
            raise _MissingInput(f"{formula_id} requires kappa")
        return self.kappa


def _in_float_range(formula):
    """Refuse with a DomainError a formula value that leaves the float range,
    as finite inputs far from 1 make it do (eta = 1e-200, kappa = 1e200)."""

    @functools.wraps(formula)
    def checked(formula_id, *args, **kwargs):
        try:
            value = formula(formula_id, *args, **kwargs)
        except ArithmeticError:  # a power overflows, or a denominator underflows to 0
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(f"{formula_id}: {formula.__name__} leaves the float range at these inputs")
        return value

    return checked


@_in_float_range
def m_min(formula_id: str, b: BoundInputs, width: float | None = None) -> float:
    """Minimal row count of the selected bound, exactly as printed."""
    if formula_id not in FORMULA_IDS:
        raise DomainError(f"unknown formula id {formula_id!r}")
    log_ns = math.log(math.sqrt(2.0) * b.n / b.s)
    if formula_id == "thm_S":
        if width is None:
            raise _MissingInput("thm_S requires the width of D S")
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


@_in_float_range
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


@_in_float_range
def success_probability(formula_id: str, b: BoundInputs, m: int) -> float:
    if m < 1:
        raise DomainError("m must be at least 1")
    return 1.0 - math.exp(-m * success_rate(formula_id, b))


def bounds_table(b: BoundInputs, width: float | None = None, m: int | None = None) -> list:
    """Rows {formula_id, m_min, rate, prob_at_m} for all five formulas.  The
    keys, in this order, are the CSV columns of `nsplab bounds` and of the
    bounds_table campaign.

    Formulas whose extra input (width, kappa) is missing get a None m_min
    (and cor_non a None rate); every other DomainError propagates.
    prob_at_m defaults to the probability at ceil(m_min) when m is omitted,
    and is None where that m_min is 0 (a zero width); an m below 1 raises.
    """
    rows = []
    for fid in FORMULA_IDS:
        try:
            mm = m_min(fid, b, width=width)
        except _MissingInput:
            mm = None
        try:
            rate = success_rate(fid, b)
        except _MissingInput:
            rate = None
        at = m
        if at is None and mm is not None and mm > 0:
            at = int(math.ceil(mm))
        prob = None
        if rate is not None and at is not None:
            prob = success_probability(fid, b, at)
        rows.append({"formula_id": fid, "m_min": mm, "rate": rate, "prob_at_m": prob})
    return rows
