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
the rearrangement has already sorted (see _project_draw_major).  That one
routine works draw-major: a block of rows is transposed once, so each step
is one vector operation across all draws, and every value keeps the bits a
row-by-row computation gives.  By Moreau decomposition the same number is
the distance from h* to the polar cone, the one-dimensional "dual" minimum,
so one route serves both.  Closed-form bounds cover the quantity
deterministically.

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

    and lam* = 0 when s = n (no tail: every u >= 0 lies in K).

    The work runs draw-major, one draw per column, so every step is a vector
    operation across all draws.  The prefix sums are n sequential vector
    adds, the order of a row-wise cumsum; the ratio table is (n-s+1, rows),
    one row per r, with the same subtractions and divisions; the max over r
    and the min over q are exact.  So lam* and the projection have the bits
    of a row-major computation.  The caller passes a transposed copy, so the
    row-major rows it came from can be freed before the tables are built,
    and the loop over q reuses one ratio buffer: memory stays at a few
    copies of the block.  Refuses s > n.
    """
    s, n, gamma = p.s, X.shape[0], p.gamma
    if s > n:
        raise DomainError(f"s = {s} exceeds the row length n = {n}")
    lam = np.zeros(X.shape[1])
    if s < n:
        Hq = _prefix_sums(X[:s])
        gT = _prefix_sums(X[s:])
        gT *= gamma
        r = np.arange(n - s + 1)[:, None]
        np.max(gT[1:] / (r[1:] * gamma**2), axis=0, out=lam)  # q = 0; (0, 0) asks nothing
        ratio = np.empty_like(gT)
        for q in range(1, s + 1):
            np.subtract(gT, Hq[q], out=ratio)
            ratio /= q + r * gamma**2
            np.minimum(lam, ratio.max(axis=0), out=lam)
        np.maximum(lam, 0.0, out=lam)
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
    all of G's rows.  The draws and their order are those of G; only the
    products are cut (README "Numerical notes" on their last bits).
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
