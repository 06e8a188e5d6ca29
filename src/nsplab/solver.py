"""l1-synthesis recovery: min ||x||_1 subject to ||y - B x||_2 <= eps.

One route for every eps >= 0, basis pursuit (eps = 0) included: a LASSO
homotopy.  It follows the piecewise-linear path of
min 1/2 ||y - B x||^2 + lam ||x||_1 from lam0 = max|B^T y| down to the lam
where ||y - B x(lam)|| = eps (Osborne, Presnell & Turlach 2000; Donoho &
Tsaig 2008).  The residual norm does not decrease as lam grows, so that
point solves the eps-ball problem, and on each linear piece the stop is
found in closed form.  It is the package's one l1 optimizer: certify_nsp's
LP route solves its support problems as basis pursuit on it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import as_matrix, as_vector, operator_norm

_BOUND_SLACK = 1e-6  # evaluate_recovery: absolute slack on both error bounds
# solve_l1_synthesis: a column joins the path only if its distance to the span
# of the active columns exceeds _SPAN_TOL times its norm, and the returned
# point must meet the optimality conditions to _KKT_TOL (see _kkt_holds).
_SPAN_TOL = 1e-9
_KKT_TOL = 1e-9
# The path ends, with a least-squares polish on the active set, once the next
# event lies below _LAM_FLOOR * lam0.  A rounding-noise coefficient (1e-15) over
# a slope of 1e-3 leaves near 1e-12 lam0, and the active set left behind can
# fail the optimality check (duplicated-column support problems of certify_nsp).
_LAM_FLOOR = 1e-10


@dataclass(frozen=True)
class RecoveryResult:
    x_hat: np.ndarray | None
    objective: float | None
    residual_norm: float | None
    iterations: int                # homotopy path steps
    status: str                    # 'converged' | 'uncertified' | 'infeasible'


def best_s_term_error(x, s: int) -> float:
    """l1 distance to the nearest s-sparse vector: the n-s smallest |x_i| summed."""
    v = np.abs(as_vector(x))
    if not (0 <= s <= v.size):
        raise DomainError(f"s must lie in [0, {v.size}], got {s}")
    if s == 0:
        return float(v.sum())
    return float(np.sort(v)[: v.size - s].sum())


def _kkt_holds(B, y, eps, x, v) -> bool:
    """Whether x solves min ||x||_1 s.t. ||y - B x|| <= eps, with v as its dual vector.

    Three conditions, each to _KKT_TOL: x is feasible, ||r|| <= eps for
    r = y - B x (scaled by max(1, ||y||)); v is dual feasible,
    ||B^T v||_inf <= 1; and the duality gap ||x||_1 - (y^T v - eps ||v||)
    vanishes (scaled by max(1, ||x||_1)).  Under the first two the gap is
    sum_i (|x_i| - x_i (B^T v)_i) + (eps ||v|| - v^T r), a sum of
    nonnegative terms, so it vanishes exactly when the KKT conditions hold:
    (B^T v)_i = sign(x_i) wherever x_i != 0, and v points along r with
    ||r|| = eps unless v = 0.  On the homotopy path v = r / lam, and these
    read: active correlations equal +-lam, all others are at most lam, and
    ||r|| = eps.  At lam = 0, v is the path's limiting dual vector B_A d,
    which certifies basis pursuit when r = 0.
    """
    r = y - B @ x
    g = B.T @ v
    l1 = float(np.abs(x).sum())
    gap = l1 - float(y @ v) + eps * float(np.linalg.norm(v))
    return bool(
        np.linalg.norm(r) <= eps + _KKT_TOL * max(1.0, float(np.linalg.norm(y)))
        and (g.size == 0 or np.abs(g).max() <= 1.0 + _KKT_TOL)
        and abs(gap) <= _KKT_TOL * max(1.0, l1)
    )


def solve_l1_synthesis(B, y, eps=0.0) -> RecoveryResult:
    """Exact solve of min ||x||_1 s.t. ||y - B x||_2 <= eps by LASSO homotopy.

    The path starts at lam0 = max|B^T y| with x = 0 and the arg-max column
    active.  On an active set A with signs sigma, the LASSO solution is
    x_A(lam) = x_ls - lam d, where x_ls is the least-squares fit on A and
    (B_A^T B_A) d = sigma; both come from one QR of B_A, one path step.  The
    residual is r(lam) = r_ls + lam u with u = B_A d orthogonal to r_ls, so
    ||r(lam)||^2 = ||r_ls||^2 + lam^2 sigma^T d, and the lam where it equals
    eps^2 is exact.  The step goes down to the nearest event, a column whose
    correlation reaches +-lam joining or an active coefficient reaching zero
    leaving, unless the eps stop comes first.  A join counts only where the
    correlation reaches +-lam' from inside as lam' falls, and a leave only
    where the coefficient moves toward zero.  An event whose computed lam'
    rounds to at or above lam is a tie and happens at lam itself, in a
    zero-length step.  Three rules keep the path well posed: only columns
    outside the span of B_A may join (duplicated and zero columns never
    do); the column that just left may not rejoin in the same step on the
    side it left from, where it sits at lam (a crossing to the other sign
    stays open); and once the next event lies below 1e-10 lam0 the path
    ends at lam = 0 with x_A = x_ls, the least-squares polish that covers
    eps = 0.

    Before returning, the point is checked against the optimality
    conditions (_kkt_holds).  status is 'converged' only when they hold,
    'uncertified' when they do not (x_hat is then the path's last point),
    and 'infeasible' when eps is below the distance from y to the range of
    B.  ||y|| <= eps returns x = 0.  iterations counts path steps; the path
    is cut after 4 n of them (at most 36 were seen on 20 x 40 problems).
    """
    B = as_matrix(B)
    y = as_vector(y)
    if y.size != B.shape[0]:
        raise DomainError(f"y has length {y.size}, B has {B.shape[0]} rows")
    if not eps >= 0.0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    m, n = B.shape
    # Unreachable measurement ball: compare eps with the distance to range(B).
    fit, *_ = np.linalg.lstsq(B, y, rcond=None)
    dist = float(np.linalg.norm(y - B @ fit))
    if dist > eps + 1e-7 * max(1.0, float(np.linalg.norm(y))) + 1e-9:
        return RecoveryResult(None, None, None, 0, "infeasible")

    x = np.zeros(n)
    v = np.zeros(m)
    steps = 0
    c = B.T @ y
    lam0 = lam = float(np.abs(c).max(initial=0.0))
    if float(np.linalg.norm(y)) > eps and lam0 > 0.0:
        j = int(np.argmax(np.abs(c)))
        active, signs = [j], [math.copysign(1.0, c[j])]
        col_norms = np.linalg.norm(B, axis=0)
        left, left_sign = -1, 0.0
        while True:
            steps += 1
            sigma = np.array(signs)
            Q, R = np.linalg.qr(B[:, active])
            z = Q.T @ y
            x_ls = np.linalg.solve(R, z)
            w = np.linalg.solve(R.T, sigma)
            d = np.linalg.solve(R, w)
            u = Q @ w                      # B_A d
            r_ls = y - Q @ z
            p, a = B.T @ r_ls, B.T @ u     # correlations c(lam') = p + lam' a

            # joins at c_j(lam') = +lam' or -lam', leaves at x_i(lam') = 0
            free = np.linalg.norm(B - Q @ (Q.T @ B), axis=0) > _SPAN_TOL * col_norms
            free[active] = False
            with np.errstate(divide="ignore", invalid="ignore"):
                up = np.where(free & (a < 1.0), p / (1.0 - a), -1.0)
                down = np.where(free & (a > -1.0), -p / (1.0 + a), -1.0)
                drop = np.where(sigma * d < 0.0, x_ls / d, -1.0)
            if left >= 0:  # it sits on that side at lam; the other side stays open
                (up if left_sign > 0.0 else down)[left] = -1.0
            # an event computed at or above lam is a tie: it happens at lam itself
            up, down, drop = np.minimum(up, lam), np.minimum(down, lam), np.minimum(drop, lam)
            j_up, j_down, i_drop = int(np.argmax(up)), int(np.argmax(down)), int(np.argmax(drop))
            lam_next = max(up[j_up], down[j_down], drop[i_drop], 0.0)

            slack = eps * eps - float(r_ls @ r_ls)
            lam_eps = math.sqrt(slack / float(w @ w)) if slack >= 0.0 else -1.0
            done = True
            if lam_eps >= lam_next:
                lam = min(lam_eps, lam)
            elif lam_next <= _LAM_FLOOR * lam0:
                lam = 0.0
            else:
                lam, done = lam_next, steps == 4 * n
            x[:] = 0.0
            x[active] = x_ls - lam * d
            if done:
                break
            left = -1
            if drop[i_drop] == lam:
                left = active.pop(i_drop)
                left_sign = signs.pop(i_drop)
            elif up[j_up] == lam:
                active.append(j_up)
                signs.append(1.0)
            else:
                active.append(j_down)
                signs.append(-1.0)
        v = (y - B @ x) / lam if lam > 0.0 else u

    status = "converged" if _kkt_holds(B, y, eps, x, v) else "uncertified"
    return RecoveryResult(
        x_hat=x,
        objective=float(np.abs(x).sum()),
        residual_norm=float(np.linalg.norm(y - B @ x)),
        iterations=steps,
        status=status,
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
        "x_hat": None if result.x_hat is None else result.x_hat.tolist(),
    }
