"""Gaussian width machinery for the NSP-violating set.

w(S) = E sup_{x in S} <g, x> for standard Gaussian g.  For the violating set
S_gamma the supremum per draw reduces, via permutation and sign invariance,
to a maximization over the convex cone

    K = {u >= 0, sum_{l<=s} u_l >= gamma sum_{l>s} u_l}

intersected with the unit sphere, which equals the norm of the Euclidean
projection onto K of the rearranged vector.  That projection is exact:
max(h* + lam* a, 0), with the multiplier lam* in closed form from sorted
prefix sums (see _cone_multiplier).  By Moreau decomposition the same number
is the distance from h* to the polar cone, the one-dimensional "dual"
minimum, so one route serves both.  Closed-form bounds cover the quantity
deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .errors import DomainError
from .numerics import (
    as_matrix,
    as_vector,
    nonincreasing_rearrangement,
    operator_norm,
    soft_threshold,
)
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

    Projecting h onto K = {u >= 0, a.u >= 0}, a = (1,...,1, -gamma,...,-gamma)
    with s ones, is min ||u - h||^2 / 2 over K.  A multiplier lam >= 0 on
    a.u >= 0 leaves the orthant projection u(lam) = max(h + lam a, 0); KKT asks
    a.u(lam) >= 0 with equality when lam > 0.  Put

        phi(lam) = a.max(h + lam a, 0)
                 = sum_head max(h_i + lam, 0) - gamma sum_tail max(h_j - gamma lam, 0).

    Each term is nondecreasing in lam, so lam* is 0 when phi(0) >= 0 and the
    first root of phi otherwise: lam* = max(0, inf{lam : phi(lam) >= 0}).

    K is invariant under permutations inside the head and inside the tail, so
    only the sorted entries matter.  A sum of positive parts is the best
    partial sum of the largest entries: with H_q the sum of the q largest head
    entries (q = 0..s) and T_r that of the r largest entries of max(tail, 0)
    (r = 0..n-s; for lam >= 0 a negative tail entry never enters),

        phi(lam) = max_q (H_q + q lam) - gamma max_r (T_r - r gamma lam)
                 = max_q min_r [H_q - gamma T_r + (q + r gamma^2) lam].

    So phi(lam) >= 0 iff some q has every r satisfied.  The pair (0, 0) reads
    0 >= 0; every other pair asks lam >= (gamma T_r - H_q) / (q + r gamma^2).
    Hence

        lam* = max(0, min_q max_{(q,r) != (0,0)} (gamma T_r - H_q) / (q + r gamma^2)),

    and lam* = 0 when s = n (no tail: every u >= 0 lies in K).  The loop runs
    over q, one (rows, n-s+1) array per pass, which keeps memory linear in n.
    """
    s, n, gamma = c.s, c.n, c.gamma
    if s == n:
        return np.zeros(H.shape[0])
    zero = np.zeros((H.shape[0], 1))

    def prefix_sums(X):  # 0, then the running sums of each row's largest entries
        return np.hstack([zero, np.sort(X, axis=1)[:, ::-1].cumsum(axis=1)])

    Hq = prefix_sums(H[:, :s])
    gT = gamma * prefix_sums(np.maximum(H[:, s:], 0.0))
    r = np.arange(n - s + 1)
    lam = (gT[:, 1:] / (r[1:] * gamma**2)).max(axis=1)  # q = 0; (0, 0) asks nothing
    for q in range(1, s + 1):
        lam = np.minimum(lam, ((gT - Hq[:, q, None]) / (q + r * gamma**2)).max(axis=1))
    return np.maximum(lam, 0.0)


def project_cone_batch(H, c: ConeParams) -> np.ndarray:
    """Row-wise Euclidean projection onto K: max(h + lam* a, 0), exact."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    return np.maximum(H + _cone_multiplier(H, c)[:, None] * c.halfspace_normal(), 0.0)


def project_onto_cone(h, c: ConeParams) -> np.ndarray:
    """Euclidean projection of a single vector onto K_{gamma,s}."""
    v = as_vector(h)
    if v.size != c.n:
        raise DomainError(f"vector has length {v.size}, cone lives in R^{c.n}")
    return project_cone_batch(v[None, :], c)[0]


def cone_projection_values(Hstar, c: ConeParams) -> np.ndarray:
    """Per-row sup over K cap sphere of <h*, u>: the projection norm."""
    return np.linalg.norm(project_cone_batch(Hstar, c), axis=1)


# Same number by Moreau decomposition (||P_K h|| = dist(h, polar K)); the name
# stays because bench/tracer.py looks it up in this module when it installs.
dual_surrogate_values = cone_projection_values


def width_DS_gamma_mc(D, c: ConeParams, samples: int, rng: RngStream) -> WidthEstimate:
    """Monte Carlo estimate of w(D S_gamma) via exact per-draw cone projection."""
    if samples < 100:
        raise DomainError("need at least 100 samples")
    M = D.matrix if isinstance(D, Dictionary) else as_matrix(D)
    rho = D.rho if isinstance(D, Dictionary) else float(np.max(np.sum(M**2, axis=0)))
    vals = []
    done = 0
    while done < samples:
        block = min(_MC_BLOCK, samples - done)
        Hstar = nonincreasing_rearrangement(rng.normal((block, M.shape[0])) @ M)
        vals.append(cone_projection_values(Hstar, c))
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


def crude_width_bound(D, n: int) -> float:
    """Operator-norm bound 2 ||D||_2 w(B_2^{n-1}): simple but carries sqrt(n)."""
    M = D.matrix if isinstance(D, Dictionary) else as_matrix(D)
    opn = D.op_norm if isinstance(D, Dictionary) else operator_norm(M)
    return 2.0 * opn * unit_ball_width(n)


@dataclass(frozen=True)
class MomentCheck:
    empirical: float
    bound: float
    std_error: float
    samples: int

    @property
    def ok(self) -> bool:
        return self.empirical <= self.bound + 3.0 * self.std_error


def check_soft_moment(sigma: float, t: float, samples: int, rng: RngStream) -> MomentCheck:
    """Second moment of the soft threshold of a N(0, sigma^2) draw against
    sigma^4 sqrt(2/(pi e)) t^{-2} exp(-t^2/(2 sigma^2))."""
    if not (sigma > 0.0 and t > 0.0):
        raise DomainError("sigma and t must be positive")
    v = soft_threshold(sigma * rng.normal(samples), t) ** 2
    bound = sigma**4 * math.sqrt(2.0 / (math.pi * math.e)) / t**2 * math.exp(
        -(t**2) / (2.0 * sigma**2)
    )
    return MomentCheck(
        float(v.mean()), bound, float(v.std(ddof=1) / math.sqrt(samples)), samples
    )


def check_lemma_key(D, s: int, samples: int, rng: RngStream) -> MomentCheck:
    """Root-mean-square of the s largest rearranged entries of D^T g against
    sqrt(4 rho log(sqrt(2) n / s))."""
    M = D.matrix if isinstance(D, Dictionary) else as_matrix(D)
    d, n = M.shape
    if not (1 <= s <= n):
        raise DomainError(f"need 1 <= s <= n, got s={s}")
    rho = D.rho if isinstance(D, Dictionary) else float(np.max(np.sum(M * M, axis=0)))
    vals = []
    done = 0
    while done < samples:
        block = min(_MC_BLOCK, samples - done)
        Hstar = nonincreasing_rearrangement(rng.normal((block, d)) @ M)
        vals.append(np.sqrt((Hstar[:, :s] ** 2).sum(axis=1) / s))
        done += block
    v = np.concatenate(vals)
    bound = math.sqrt(4.0 * rho * math.log(math.sqrt(2.0) * n / s))
    return MomentCheck(
        float(v.mean()), bound, float(v.std(ddof=1) / math.sqrt(samples)), samples
    )


@dataclass(frozen=True)
class SlepianCheck:
    lhs: float                  # estimated w(F S)
    rhs: float                  # ||F||_2 times estimated w(S)
    lhs_std_error: float
    rhs_std_error: float
    samples: int

    @property
    def ok(self) -> bool:
        slack = 3.0 * math.hypot(self.lhs_std_error, self.rhs_std_error)
        return self.lhs <= self.rhs + slack


def check_slepian_contraction(F, points, samples: int, rng: RngStream) -> SlepianCheck:
    """Contraction w(F S) <= ||F||_2 w(S) on the symmetrized finite set S.

    Draws are shared between the two sides when F is square, which makes the
    inequality hold draw by draw; otherwise the sides use independent streams.
    """
    Fm = as_matrix(F)
    pts = as_matrix(points)
    if pts.shape[1] != Fm.shape[1]:
        raise DomainError("points must live in the domain of F")
    pts = np.vstack([pts, -pts])  # enforce symmetry
    d, n = Fm.shape
    opn = operator_norm(Fm)
    fpts = pts @ Fm.T
    if d == n:
        G = rng.normal((samples, d))
        Gs = G
    else:
        G = rng.substream("lhs").normal((samples, d))
        Gs = rng.substream("rhs").normal((samples, n))
    lhs_vals = (G @ fpts.T).max(axis=1)
    rhs_vals = opn * (Gs @ pts.T).max(axis=1)
    return SlepianCheck(
        float(lhs_vals.mean()),
        float(rhs_vals.mean()),
        float(lhs_vals.std(ddof=1) / math.sqrt(samples)),
        float(rhs_vals.std(ddof=1) / math.sqrt(samples)),
        samples,
    )
