"""l1-synthesis recovery: min ||x||_1 subject to ||y - B x||_2 <= eps.

One route for every eps >= 0, basis pursuit (eps = 0) included: a LASSO
homotopy.  It follows the piecewise-linear path of
min 1/2 ||y - B x||^2 + lam ||x||_1 from lam0 = max|B^T y| down to the lam
where ||y - B x(lam)|| = eps (Osborne, Presnell & Turlach 2000; Donoho &
Tsaig 2008).  The residual norm does not decrease as lam grows, so that
point solves the eps-ball problem, and on each linear piece the stop is
found in closed form.  It is the package's one l1 optimizer: certify_nsp's
LP route solves its support problems as basis pursuit on it too.

A path step changes the active set by one column, so the QR factors of the
active columns are updated, not recomputed: a join appends one Gram-Schmidt
column, a leave truncates to the columns before the one that left and
re-joins the rest.  _kkt_holds certifies the returned point; only when it
fails does an SVD distance test tell 'infeasible' from 'uncertified'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import as_matrix, as_vector

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


def _join(b, y, Q, Rinv, z, k) -> int:
    """Append column b to the factors of the first k active columns; returns k + 1.

    Classical Gram-Schmidt with one reorthogonalization pass (Daniel, Gragg,
    Kaufman & Stewart 1976): r = Q^T b, q = b - Q r, then once more on q,
    with the correction added to r.  With rho = ||q||, B_A = Q R gains the
    column (r, rho) of R, so R^-1 gains the column -R^-1 r / rho and the
    diagonal entry 1 / rho, and z = Q^T y gains (q / rho) . y.  Callers join
    only columns whose distance to span(Q) exceeds _SPAN_TOL ||b||, so
    rho > 0.
    """
    Qk = Q[:, :k]
    r = Qk.T @ b
    q = b - Qk @ r
    dr = Qk.T @ q
    q -= Qk @ dr
    r += dr
    rho = math.sqrt(q @ q)
    Q[:, k] = q / rho
    Rinv[:k, k] = Rinv[:k, :k] @ r / -rho
    Rinv[k, k] = 1.0 / rho
    z[k] = Q[:, k] @ y
    return k + 1


def solve_l1_synthesis(B, y, eps=0.0) -> RecoveryResult:
    """Exact solve of min ||x||_1 s.t. ||y - B x||_2 <= eps by LASSO homotopy.

    The path starts at lam0 = max|B^T y| with x = 0 and the arg-max column
    active.  On an active set A with signs sigma, the LASSO solution is
    x_A(lam) = x_ls - lam d, where x_ls is the least-squares fit on A and
    (B_A^T B_A) d = sigma.  With B_A = Q R, kept as Q, R^-1 and z = Q^T y
    (see _join), x_ls = R^-1 z and d = R^-1 w with w = R^-T sigma, so a path
    step takes matrix products only.  The residual is r(lam) = r_ls + lam u
    with u = B_A d orthogonal to r_ls, so ||r(lam)||^2 = ||r_ls||^2 + lam^2
    sigma^T d, and the lam where it equals eps^2 is exact.  The step goes
    down to the nearest event, a column whose correlation reaches +-lam
    joining or an active coefficient reaching zero leaving, unless the eps
    stop comes first.  A join counts only where the correlation reaches
    +-lam' from inside as lam' falls, and a leave only where the coefficient
    moves toward zero.  An event whose computed lam' rounds to at or above
    lam is a tie and happens at lam itself, in a zero-length step.  Three
    rules keep the path well posed: only columns outside the span of B_A may
    join (duplicated and zero columns never do); a column that left may not
    rejoin on the side it left from while lam stays where it left, since it
    sits there at lam (a crossing to the other sign stays open; a ban that
    lasted one step let two tied columns take turns joining and leaving in
    zero-length steps until the step cap); and once the next event lies
    below 1e-10 lam0 the path ends at lam = 0 with x_A = x_ls, the
    least-squares polish that covers eps = 0.

    After the path, x is formed once from its last step, and its dual vector
    as u + P r_ls / lam, P the projector off span(B_A): (y - B x) / lam
    cancels at small lam.  status is 'converged' when _kkt_holds certifies
    them; else an SVD fit gives dist(y, range B), and status is 'infeasible'
    (x_hat None) when eps < dist, 'uncertified' (x_hat the last point) when
    not.  ||y|| <= eps gives x = 0.  iterations counts path steps, infeasible
    solves too, to at most 4 n (36 was the most seen on 20 x 40 problems).

    When active index i leaves, the factors of active[:i] are the leading
    block of the old ones: the loop keeps that block and re-joins the
    columns after i.  Deleting the column in place would leave R upper
    Hessenberg, and restoring it takes Givens rotations on Q and R^-1, a
    second mechanism; re-joining reuses the first, and leaves are rarer than
    joins.  No QR or inverse is computed inside the loop.
    """
    B = as_matrix(B)
    y = as_vector(y)
    if y.size != B.shape[0]:
        raise DomainError(f"y has length {y.size}, B has {B.shape[0]} rows")
    if not eps >= 0.0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    m, n = B.shape
    x = np.zeros(n)
    v = np.zeros(m)
    steps = 0
    c = B.T @ y
    lam0 = lam = float(np.abs(c).max(initial=0.0))
    if float(np.linalg.norm(y)) > eps and lam0 > 0.0:
        j = int(np.argmax(np.abs(c)))
        active, signs = [j], [math.copysign(1.0, c[j])]
        col_norms = np.linalg.norm(B, axis=0)
        banned = []  # (column, side) pairs that left at the current lam
        # B_A = Q R on the active columns in list order, kept as Q, R^-1 and
        # z = Q^T y; only columns outside span(Q) join, so k <= min(m, n).
        size = min(m, n)
        Q = np.empty((m, size), order="F")
        Rinv = np.zeros((size, size))
        z = np.empty(size)
        k = _join(B[:, j], y, Q, Rinv, z, 0)
        while True:
            steps += 1
            sigma = np.array(signs)
            Qa, Ra, za = Q[:, :k], Rinv[:k, :k], z[:k]
            x_ls = Ra @ za
            w = Ra.T @ sigma
            d = Ra @ w
            u = Qa @ w                     # B_A d
            r_ls = y - Qa @ za
            p, a = B.T @ r_ls, B.T @ u     # correlations c(lam') = p + lam' a

            # joins at c_j(lam') = +lam' or -lam', leaves at x_i(lam') = 0
            free = np.linalg.norm(B - Qa @ (Qa.T @ B), axis=0) > _SPAN_TOL * col_norms
            free[active] = False
            with np.errstate(divide="ignore", invalid="ignore"):
                up = np.where(free & (a < 1.0), p / (1.0 - a), -1.0)
                down = np.where(free & (a > -1.0), -p / (1.0 + a), -1.0)
                drop = np.where(sigma * d < 0.0, x_ls / d, -1.0)
            for j, side in banned:  # it sits on that side at lam; the other side stays open
                (up if side > 0.0 else down)[j] = -1.0
            # an event computed at or above lam is a tie: it happens at lam itself
            up, down, drop = np.minimum(up, lam), np.minimum(down, lam), np.minimum(drop, lam)
            j_up, j_down, i_drop = int(np.argmax(up)), int(np.argmax(down)), int(np.argmax(drop))
            lam_next = max(up[j_up], down[j_down], drop[i_drop], 0.0)

            slack = eps * eps - float(r_ls @ r_ls)
            lam_eps = math.sqrt(slack / float(w @ w)) if slack >= 0.0 else -1.0
            done, lam_was = True, lam
            if lam_eps >= lam_next:
                lam = min(lam_eps, lam)
            elif lam_next <= _LAM_FLOOR * lam0:
                lam = 0.0
            else:
                lam, done = lam_next, steps == 4 * n
            if done:
                break
            if lam < lam_was:
                banned.clear()
            if drop[i_drop] == lam:
                # the factors of active[:i_drop] are the leading block: keep
                # them and join the columns after the one that left again
                banned.append((active.pop(i_drop), signs.pop(i_drop)))
                k = i_drop
                for j in active[i_drop:]:
                    k = _join(B[:, j], y, Q, Rinv, z, k)
            else:
                up_side = up[j_up] == lam
                j = j_up if up_side else j_down
                active.append(j)
                signs.append(1.0 if up_side else -1.0)
                k = _join(B[:, j], y, Q, Rinv, z, k)
        x[active] = x_ls - lam * d
        v = u + (r_ls - Qa @ (Qa.T @ r_ls)) / lam if lam > 0.0 else u

    status = "converged"
    if not _kkt_holds(B, y, eps, x, v):
        fit, *_ = np.linalg.lstsq(B, y, rcond=None)
        dist = float(np.linalg.norm(y - B @ fit))  # an unreachable ball fails the check
        if dist > eps + 1e-7 * max(1.0, float(np.linalg.norm(y))) + 1e-9:
            return RecoveryResult(None, None, None, steps, "infeasible")
        status = "uncertified"
    return RecoveryResult(
        x_hat=x,
        objective=float(np.abs(x).sum()),
        residual_norm=float(np.linalg.norm(y - B @ x)),
        iterations=steps,
        status=status,
    )


def recovery_result_to_json(result: RecoveryResult) -> dict:
    return {
        "status": result.status,
        "objective": result.objective,
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "x_hat": None if result.x_hat is None else result.x_hat.tolist(),
    }
