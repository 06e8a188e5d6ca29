"""l1-synthesis recovery: min ||x||_1 subject to ||y - B x||_2 <= eps.

Two routes: an exact LP reformulation for the noiseless case (basis
pursuit), and an operator-splitting iteration for any eps >= 0.  The
splitting alternates a cached least-squares update in x, a shrinkage step,
and a projection of the residual onto the eps-ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import as_matrix, as_vector, operator_norm
from .simplex import LpProblem, solve_lp

_BOUND_SLACK = 1e-6  # evaluate_recovery: absolute slack on both error bounds


@dataclass(frozen=True)
class RecoveryProblem:
    B: np.ndarray                  # sensing composition, m x n
    y: np.ndarray                  # measurements
    eps: float = 0.0               # noise radius

    def __post_init__(self):
        B = as_matrix(self.B)
        y = as_vector(self.y)
        if y.size != B.shape[0]:
            raise DomainError(f"y has length {y.size}, B has {B.shape[0]} rows")
        if self.eps < 0.0:
            raise DomainError("eps must be nonnegative")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class RecoveryResult:
    x_hat: np.ndarray | None
    objective: float | None
    residual_norm: float | None
    iterations: int
    status: str                    # 'converged' | 'max_iter' | 'infeasible'
    penalty_changes: int = 0       # splitting: balancing steps that moved the penalty


@dataclass(frozen=True)
class SplitParams:
    """Knobs of the splitting iteration.

    step is the initial penalty; it adapts by factors of 2 whenever the
    primal/dual residual ratio exceeds 10, but only during the first
    adapt_iters iterations so the penalty settles (perpetual rebalancing can
    cycle).  Convergence needs both residuals below tol_abs plus a
    tol_rel-scaled norm term; the defaults keep the l1 objective within
    about 1e-7 of the exact optimum: the LP value on noiseless problems, the
    certified optimum of the eps-ball problem otherwise.
    """

    step: float = 1.0
    max_iter: int = 50_000
    tol_abs: float = 1e-11
    tol_rel: float = 1e-9
    adapt_iters: int = 1000


def best_s_term_error(x, s: int) -> float:
    """l1 distance to the nearest s-sparse vector: the n-s smallest |x_i| summed."""
    v = np.abs(as_vector(x))
    if not (0 <= s <= v.size):
        raise DomainError(f"s must lie in [0, {v.size}], got {s}")
    if s == 0:
        return float(v.sum())
    return float(np.sort(v)[: v.size - s].sum())


def solve_bp_lp(B, y) -> RecoveryResult:
    """Noiseless basis pursuit by exact LP: split x = x+ - x-, minimize the sum.

    Reports infeasible when y is not in the range of B (within the simplex
    tolerance LP_TOL).
    """
    Bm = as_matrix(B)
    yv = as_vector(y)
    m, n = Bm.shape
    objective = -np.ones(2 * n)  # maximize the negated l1 mass
    constraints = np.hstack([Bm, -Bm])
    problem = LpProblem.build(objective, constraints, yv, ["="] * m)
    res = solve_lp(problem)
    if res.status != "optimal":
        return RecoveryResult(None, None, None, res.iterations, "infeasible")
    x = res.x[:n] - res.x[n:]
    return RecoveryResult(
        x_hat=x,
        objective=float(np.abs(x).sum()),
        residual_norm=float(np.linalg.norm(yv - Bm @ x)),
        iterations=res.iterations,
        status="converged",
    )


def solve_l1_synthesis(p: RecoveryProblem, params: SplitParams = SplitParams()) -> RecoveryResult:
    """Operator-splitting solve of min ||x||_1 s.t. ||y - B x||_2 <= eps.

    Consensus form: z mirrors x for the shrinkage step, r mirrors y - B x
    for the ball projection.  The x update solves a fixed ridge system
    (I + B^T B), cached once; the penalty only enters the shrinkage.

    The stopping rule and residual balancing follow Boyd, Parikh, Chu,
    Peleato & Eckstein (2011), sections 3.3 and 3.4.1.  Each norm is
    sqrt(v @ v), which is what np.linalg.norm computes for a real vector,
    and the dual residual is formed only on the iterations that read it:
    when the primal test passes, or on a balancing iteration.  Every
    iterate is the same float64 value as with the residuals formed each
    time.  penalty_changes counts the balancing steps that moved rho.
    """
    B, y, eps = p.B, p.y, p.eps
    m, n = B.shape
    # Unreachable measurement ball: compare eps with the distance to range(B).
    x_ls, *_ = np.linalg.lstsq(B, y, rcond=None)
    dist = float(np.linalg.norm(y - B @ x_ls))
    if dist > eps + 1e-7 * max(1.0, float(np.linalg.norm(y))) + 1e-9:
        return RecoveryResult(None, None, None, 0, "infeasible")

    rho = params.step
    changes = 0
    Bt = B.T
    solve_ridge = np.linalg.inv(np.eye(n) + Bt @ B)  # small n: cache the inverse
    x = np.zeros(n)
    z = np.zeros(n)
    r = y.copy() if eps >= float(np.linalg.norm(y)) else np.zeros(m)
    u_z = np.zeros(n)
    u_r = np.zeros(m)
    tol_floor = math.sqrt(n + m) * params.tol_abs
    for it in range(1, params.max_iter + 1):
        x = solve_ridge @ ((z - u_z) + Bt @ (y - r + u_r))
        bx = B @ x
        res = y - bx
        z_old, r_old = z, r
        a = x + u_z
        z = np.sign(a) * np.maximum(np.abs(a) - 1.0 / rho, 0.0)
        w = res + u_r
        wn = math.sqrt(w @ w)
        r = w if wn <= eps else (eps / wn) * w
        u_z = u_z + x - z
        u_r = u_r + res - r

        d_x = x - z
        d_r = res - r
        pri = math.hypot(math.sqrt(d_x @ d_x), math.sqrt(d_r @ d_r))
        scale_pri = max(
            math.sqrt(x @ x), math.sqrt(z @ z), math.sqrt(r @ r), math.sqrt(bx @ bx), 1.0
        )
        pri_ok = pri < tol_floor + params.tol_rel * scale_pri
        balance = it % 10 == 0 and it <= params.adapt_iters
        if not (pri_ok or balance):
            continue
        d_z = z - z_old
        d_u = Bt @ (r - r_old)
        dual = rho * math.hypot(math.sqrt(d_z @ d_z), math.sqrt(d_u @ d_u))
        if pri_ok:
            scale_dual = max(rho * math.hypot(math.sqrt(u_z @ u_z), math.sqrt(u_r @ u_r)), 1.0)
            if dual < tol_floor + params.tol_rel * scale_dual:
                return RecoveryResult(
                    x_hat=x,
                    objective=float(np.abs(x).sum()),
                    residual_norm=math.sqrt(res @ res),
                    iterations=it,
                    status="converged",
                    penalty_changes=changes,
                )
        if balance:
            # residual balancing; scaled duals are rescaled with rho
            if pri > 10.0 * dual:
                rho *= 2.0
                u_z /= 2.0
                u_r /= 2.0
                changes += 1
            elif dual > 10.0 * pri:
                rho /= 2.0
                u_z *= 2.0
                u_r *= 2.0
                changes += 1
    return RecoveryResult(
        x_hat=x,
        objective=float(np.abs(x).sum()),
        residual_norm=float(np.linalg.norm(y - B @ x)),
        iterations=params.max_iter,
        status="max_iter",
        penalty_changes=changes,
    )


@dataclass(frozen=True)
class RecoveryBoundInputs:
    gamma: float
    eta: float
    eps: float
    C: float
    sigma: float
    s: int

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise DomainError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not (self.eta > 0.0):
            raise DomainError("eta must be positive")


@dataclass(frozen=True)
class RecoveryReport:
    err_x: float
    err_z: float
    sigma_s: float
    coefficient_bound: float
    signal_bound: float
    ok_x: bool
    ok_z: bool


def evaluate_recovery(x0, result: RecoveryResult, D, b: RecoveryBoundInputs) -> RecoveryReport:
    """Compare achieved errors against the certified worst-case bounds, for a
    dictionary matrix D.

    coefficient bound: (2 gamma + 2)/(1 - gamma) sigma_s(x0) + 2 eps / (C sigma eta);
    signal bound: ||D||_2 times the coefficient bound.
    """
    M = as_matrix(D)
    x0v = as_vector(x0)
    if result.x_hat is None:
        raise DomainError("recovery result carries no solution")
    sigma_s = best_s_term_error(x0v, b.s)
    coeff_bound = (2.0 * b.gamma + 2.0) / (1.0 - b.gamma) * sigma_s + 2.0 * b.eps / (
        b.C * b.sigma * b.eta
    )
    signal_bound = operator_norm(M) * coeff_bound
    err_x = float(np.linalg.norm(result.x_hat - x0v))
    err_z = float(np.linalg.norm(M @ (result.x_hat - x0v)))
    return RecoveryReport(
        err_x=err_x,
        err_z=err_z,
        sigma_s=sigma_s,
        coefficient_bound=coeff_bound,
        signal_bound=signal_bound,
        ok_x=err_x <= coeff_bound + _BOUND_SLACK,
        ok_z=err_z <= signal_bound + _BOUND_SLACK,
    )


def recovery_result_to_json(result: RecoveryResult) -> dict:
    return {
        "status": result.status,
        "objective": result.objective,
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "penalty_changes": result.penalty_changes,
        "x_hat": None if result.x_hat is None else result.x_hat.tolist(),
    }
