"""Gaussian width machinery for the NSP-violating set.

w(S) = E sup_{x in S} <g, x> for standard Gaussian g.  For the violating set
S_gamma the supremum per draw reduces, via permutation and sign invariance,
to a maximization over the convex cone

    K = {u >= 0, sum_{l<=s} u_l >= gamma sum_{l>s} u_l}

intersected with the unit sphere, which equals the norm of the Euclidean
projection onto K of the rearranged vector h* (the magnitudes of h, largest
first).  cone_projection_values takes raw rows h = D^T g and rearranges each
once.  The projection is then exact: max(h* + lam* a, 0), with the
multiplier lam* in closed form from prefix sums of h*, whose head and tail
the rearrangement has already sorted (see _cone_multiplier).  By Moreau
decomposition the same number is the distance from h* to the polar cone,
the one-dimensional "dual" minimum, so one route serves both.  Closed-form
bounds cover the quantity deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .errors import DomainError
from .numerics import as_matrix, nonincreasing_rearrangement, operator_norm
from .rng import RngStream

_MC_BLOCK = 20_000


@dataclass(frozen=True)
class ConeParams:
    """Cone K_{gamma,s} inside R^n."""

    gamma: float
    s: int
    n: int

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise DomainError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not (1 <= self.s <= self.n):
            raise DomainError(f"need 1 <= s <= n, got s={self.s}, n={self.n}")

    def halfspace_normal(self) -> np.ndarray:
        a = np.full(self.n, -self.gamma)
        a[: self.s] = 1.0
        return a


@dataclass(frozen=True)
class WidthEstimate:
    mean: float
    std_error: float
    samples: int
    estimator: str           # cone_projection_exact | empirical_width
    theory_bound: float | None = None

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "samples": self.samples,
            "estimator": self.estimator,
            "theory_bound": self.theory_bound,
        }


def unit_ball_width(n: int) -> float:
    """E ||g||_2 = sqrt(2) Gamma((n+1)/2) / Gamma(n/2)."""
    if n < 1:
        raise DomainError("n must be at least 1")
    return math.sqrt(2.0) * math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))


def _cone_multiplier(H: np.ndarray, c: ConeParams) -> np.ndarray:
    """Per-row KKT multiplier lam* >= 0 with P_K h = max(h + lam* a, 0).

    Each row h must be a rearrangement: nonnegative and nonincreasing.
    Projecting h onto K = {u >= 0, a.u >= 0}, a = (1,...,1, -gamma,...,-gamma)
    with s ones, is min ||u - h||^2 / 2 over K.  A multiplier lam >= 0 on
    a.u >= 0 leaves the orthant projection u(lam) = max(h + lam a, 0); KKT asks
    a.u(lam) >= 0 with equality when lam > 0.  Put

        phi(lam) = a.max(h + lam a, 0)
                 = sum_head max(h_i + lam, 0) - gamma sum_tail max(h_j - gamma lam, 0).

    Each term is nondecreasing in lam, so lam* is 0 when phi(0) >= 0 and the
    first root of phi otherwise: lam* = max(0, inf{lam : phi(lam) >= 0}).

    A sum of positive parts is the best partial sum of the largest entries,
    and a rearranged row lists its head and its tail each largest first.  With
    H_q the sum of the first q head entries (q = 0..s) and T_r that of the
    first r tail entries (r = 0..n-s),

        phi(lam) = max_q (H_q + q lam) - gamma max_r (T_r - r gamma lam)
                 = max_q min_r [H_q - gamma T_r + (q + r gamma^2) lam].

    So phi(lam) >= 0 iff some q has every r satisfied.  The pair (0, 0) reads
    0 >= 0; every other pair asks lam >= (gamma T_r - H_q) / (q + r gamma^2).
    Hence

        lam* = max(0, min_q max_{(q,r) != (0,0)} (gamma T_r - H_q) / (q + r gamma^2)),

    and lam* = 0 when s = n (no tail: every u >= 0 lies in K).  The loop runs
    over q and reuses one (rows, n-s+1) buffer, which keeps memory linear in n
    and the peak flat while the caller still holds its raw rows.
    """
    s, n, gamma = c.s, c.n, c.gamma
    if s == n:
        return np.zeros(H.shape[0])
    zero = np.zeros((H.shape[0], 1))
    Hq = np.hstack([zero, H[:, :s].cumsum(axis=1)])
    gT = gamma * np.hstack([zero, H[:, s:].cumsum(axis=1)])
    r = np.arange(n - s + 1)
    lam = (gT[:, 1:] / (r[1:] * gamma**2)).max(axis=1)  # q = 0; (0, 0) asks nothing
    ratio = np.empty_like(gT)
    for q in range(1, s + 1):
        np.subtract(gT, Hq[:, q, None], out=ratio)
        ratio /= q + r * gamma**2
        lam = np.minimum(lam, ratio.max(axis=1))
    return np.maximum(lam, 0.0)


def project_cone_batch(Hstar, c: ConeParams) -> np.ndarray:
    """Row-wise Euclidean projection of rearranged rows onto K: max(h* + lam* a, 0), exact."""
    Hstar = np.atleast_2d(np.asarray(Hstar, dtype=float))
    return np.maximum(Hstar + _cone_multiplier(Hstar, c)[:, None] * c.halfspace_normal(), 0.0)


def cone_projection_values(H, c: ConeParams) -> np.ndarray:
    """Per-row sup over S_gamma of <h, x>: the projection norm of the rearranged row h*."""
    return np.linalg.norm(project_cone_batch(nonincreasing_rearrangement(H), c), axis=1)


# Same number by Moreau decomposition (||P_K h|| = dist(h, polar K)); the name
# stays because bench/tracer.py looks it up in this module when it installs.
dual_surrogate_values = cone_projection_values


def width_DS_gamma_mc(D, c: ConeParams, samples: int, rng: RngStream) -> WidthEstimate:
    """Monte Carlo estimate of w(D S_gamma) via exact per-draw cone projection."""
    if samples < 100:
        raise DomainError("need at least 100 samples")
    M = D.matrix if isinstance(D, Dictionary) else as_matrix(D)
    if c.n != M.shape[1]:
        raise DomainError(f"cone has n = {c.n}, dictionary has {M.shape[1]} columns")
    rho = D.rho if isinstance(D, Dictionary) else float(np.max(np.sum(M**2, axis=0)))
    vals = []
    done = 0
    while done < samples:
        block = min(_MC_BLOCK, samples - done)
        vals.append(cone_projection_values(rng.normal((block, M.shape[0])) @ M, c))
        done += block
    v = np.concatenate(vals)
    se = float(v.std(ddof=1) / math.sqrt(v.size))
    theory = theory_width_bound(c, rho) if rho > 0.0 else 0.0
    return WidthEstimate(float(v.mean()), se, samples, "cone_projection_exact", theory)


def theory_width_bound(c: ConeParams, rho: float) -> float:
    """Closed-form bound 6 gamma^{-1} sqrt(s rho log(sqrt(2) n / s))."""
    if not (rho > 0.0):
        raise DomainError(f"rho must be positive, got {rho}")
    arg = math.sqrt(2.0) * c.n / c.s
    if not (arg > 1.0):
        raise DomainError("log argument must exceed 1")
    return 6.0 / c.gamma * math.sqrt(c.s * rho * math.log(arg))


def crude_width_bound(D) -> float:
    """Operator-norm bound 2 ||D||_2 w(B_2^{n-1}), n = D's column count: simple
    but carries sqrt(n)."""
    M = D.matrix if isinstance(D, Dictionary) else as_matrix(D)
    opn = D.op_norm if isinstance(D, Dictionary) else operator_norm(M)
    return 2.0 * opn * unit_ball_width(M.shape[1])
