"""Gaussian width machinery for the NSP-violating set.

w(S) = E sup_{x in S} <g, x> for standard Gaussian g.  For the violating set
S_gamma the supremum per draw reduces, via permutation and sign invariance,
to a maximization over the convex cone

    K = {u >= 0, sum_{l<=s} u_l >= gamma sum_{l>s} u_l}

intersected with the unit sphere, which equals the norm of the Euclidean
projection onto K of the rearranged vector h* (the magnitudes of h, largest
first).  cone_projection_values takes raw rows h = D^T g and rearranges each
once.  The projection is then exact: max(h* + lam* a, 0).  The head of h*
never clips, so the multiplier lam* comes from one row of ratios over the
prefix sums of the tail, which the rearrangement has already sorted (see
_project_draw_major).  That one routine works draw-major: a block of rows
is transposed once, so each step is one vector operation across all draws,
and every value keeps the bits a row-by-row computation gives.  By Moreau
decomposition the same number is the distance from h* to the polar cone,
the one-dimensional "dual" minimum, so one route serves both.  Closed-form
bounds cover the quantity deterministically.

The set's parameters are an SgammaParams(gamma, s); n is read from the rows,
and the dictionary D is passed as its d x n matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .nsp import SgammaParams
from .numerics import as_matrix, nonincreasing_rearrangement, operator_norm
from .rng import RngStream

_MC_BLOCK = 20_000
# OpenBLAS threads a gemm above 2^18 multiply-adds (interface/gemm.c).  A
# (rows x d) @ (d x n) Monte Carlo product gains nothing from the second
# thread, which then spins on its core for the rest of the run.
_BLAS_SERIAL_MACS = 2**18


@dataclass(frozen=True)
class WidthEstimate:
    mean: float
    std_error: float


def unit_ball_width(n: int) -> float:
    """E ||g||_2 = sqrt(2) Gamma((n+1)/2) / Gamma(n/2)."""
    if n < 1:
        raise DomainError("n must be at least 1")
    return math.sqrt(2.0) * math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))


def _prefix_sums(X: np.ndarray) -> np.ndarray:
    """Rows 0, 0 + X[0], (0 + X[0]) + X[1], ...: one vector add per row of X,
    in the order of a cumsum along the row (which differs only in the sign
    of a zero sum, and a rearrangement holds no -0.0)."""
    P = np.zeros((X.shape[0] + 1, X.shape[1]))
    for prev, x, nxt in zip(P, X, P[1:]):
        np.add(prev, x, out=nxt)
    return P


def _project_draw_major(X: np.ndarray, p: SgammaParams) -> np.ndarray:
    """Project in place, onto K, the rearranged rows held as the columns of
    the (n, rows) array X, and return X.

    Each row h must be a rearrangement: nonnegative and nonincreasing.
    Projecting h onto K = {u >= 0, a.u >= 0}, a = (1,...,1, -gamma,...,-gamma)
    with s ones, is min ||u - h||^2 / 2 over K.  A multiplier lam >= 0 on
    a.u >= 0 leaves the orthant projection u(lam) = max(h + lam a, 0); KKT asks
    a.u(lam) >= 0 with equality when lam > 0.  Put

        phi(lam) = a.max(h + lam a, 0)
                 = sum_head max(h_i + lam, 0) - gamma sum_tail max(h_j - gamma lam, 0).

    Each term is nondecreasing in lam, so lam* is 0 when phi(0) >= 0 and the
    first root of phi otherwise: lam* = max(0, inf{lam : phi(lam) >= 0}).

    The head never clips (h_i >= 0, lam >= 0), so its sum is H + s lam, H the
    head sum.  A sum of positive parts is the best partial sum of the largest
    entries, and a rearranged row lists its tail largest first.  With T_r the
    sum of the first r tail entries (r = 0..n-s),

        phi(lam) = H + s lam - gamma max_r (T_r - r gamma lam)
                 = min_r [H - gamma T_r + (s + r gamma^2) lam].

    The r = 0 term is nonnegative; each r >= 1 asks
    lam >= (gamma T_r - H) / (s + r gamma^2).  One row binds: with no tail
    (s = n, every u >= 0 lies in K) lam* = 0, and otherwise

        lam* = max(0, max_{r >= 1} (gamma T_r - H) / (s + r gamma^2)).

    This lam* has the bits of the longer form that also minimizes over head
    lengths q < s, with H_q and q for H and s (tests/oracles.py keeps it):
    where the max above, f, is positive at its maximizer r, each q < s entry
    there has a numerator gamma T_r - H_q no smaller and a denominator
    q + r gamma^2 no larger, so by monotone rounding the min over q is f;
    where f <= 0, both clip to 0.

    The work runs draw-major, one draw per column, so every step is a vector
    operation across all draws.  H and T_r are sequential vector adds, the
    order of a row-wise cumsum; the (n-s, rows) ratio table makes a row-wise
    computation's subtractions and divisions in place, and its max over r is
    exact: lam* and the projection have the bits of a row-major computation.
    The caller passes a transposed copy, so the row-major rows can be freed
    first: memory stays at a few copies of the block.  Refuses s > n.
    """
    s, n, gamma = p.s, X.shape[0], p.gamma
    if s > n:
        raise DomainError(f"s = {s} exceeds the row length n = {n}")
    lam = np.zeros(X.shape[1])
    if s < n:
        H = sum(X[:s], np.zeros(X.shape[1]))  # 0 + h_1 + ... + h_s, in prefix order
        ratio = _prefix_sums(X[s:])[1:]
        ratio *= gamma
        ratio -= H
        ratio /= s + np.arange(1, n - s + 1)[:, None] * gamma**2
        np.maximum(ratio.max(axis=0), 0.0, out=lam)
    X[:s] += lam
    X[s:] -= gamma * lam
    return np.maximum(X, 0.0, out=X)


def cone_projection_values(H, p: SgammaParams) -> np.ndarray:
    """Per-row sup over S_gamma of <h, x>: the projection norm of the rearranged row h*."""
    X = _project_draw_major(np.atleast_2d(nonincreasing_rearrangement(H)).T.copy(), p)
    # Summed row-major, in the order np.linalg.norm(..., axis=1) sums.
    return np.sqrt(np.add.reduce(np.square(X, out=X).T.copy(), axis=1))


# Same number by Moreau decomposition (||P_K h|| = dist(h, polar K)); the name
# stays because bench/tracer.py looks it up in this module when it installs.
dual_surrogate_values = cone_projection_values


def _projection_values(G, M, p: SgammaParams, out: np.ndarray) -> None:
    """Write cone_projection_values(G @ M, p) into out, one row block at a
    time: the inner loop of width_DS_gamma_mc.

    A block holds at most _BLAS_SERIAL_MACS multiply-adds (at least 256 rows),
    so BLAS runs each skinny product on one thread, and no temporary spans
    all of G's rows.  Projecting larger blocks (2048-10 000 rows, products
    still cut as here) made the width workload 9-25% slower (2-vCPU x86-64).
    The draws and their order are those of G; only the products are cut
    (README "Numerical notes" on their last bits).
    """
    d, n = M.shape
    rows = max(256, _BLAS_SERIAL_MACS // max(d * n, 1))
    for i in range(0, G.shape[0], rows):
        out[i : i + rows] = cone_projection_values(G[i : i + rows] @ M, p)


def width_DS_gamma_mc(D, p: SgammaParams, samples: int, rng: RngStream) -> WidthEstimate:
    """Monte Carlo estimate of w(D S_gamma) for a d x n matrix D via exact
    per-draw cone projection."""
    if samples < 100:
        raise DomainError("need at least 100 samples")
    M = as_matrix(D)
    v = np.empty(samples)
    for i in range(0, samples, _MC_BLOCK):
        G = rng.normal((min(_MC_BLOCK, samples - i), M.shape[0]))
        _projection_values(G, M, p, v[i : i + G.shape[0]])
    se = float(v.std(ddof=1) / math.sqrt(v.size))
    return WidthEstimate(float(v.mean()), se)


def theory_width_bound(p: SgammaParams, n: int, rho: float) -> float:
    """Closed-form bound 6 gamma^{-1} sqrt(s rho log(sqrt(2) n / s))."""
    if not (rho > 0.0):
        raise DomainError(f"rho must be positive, got {rho}")
    arg = math.sqrt(2.0) * n / p.s
    if not (arg > 1.0):
        raise DomainError("log argument must exceed 1")
    return 6.0 / p.gamma * math.sqrt(p.s * rho * math.log(arg))


def crude_width_bound(D) -> float:
    """Operator-norm bound 2 ||D||_2 w(B_2^{n-1}) for a d x n matrix D: simple
    but carries sqrt(n)."""
    M = as_matrix(D)
    return 2.0 * operator_norm(M) * unit_ball_width(M.shape[1])
