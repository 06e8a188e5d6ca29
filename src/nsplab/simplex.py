"""Dense two-phase simplex with Bland's smallest-index anti-cycling rule.

Problems are tiny here (tens of variables), so a plain tableau beats any
external solver: fully deterministic pivoting, explicit unbounded and
infeasible verdicts, no dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LpSolveError
from .numerics import as_matrix, as_vector

_MAX_PIVOTS = 100_000


@dataclass(frozen=True)
class LpProblem:
    """maximize objective @ x subject to rows of (constraints, senses, rhs) and bounds.

    senses entries are '<=' or '='.  bounds holds one (lo, hi) pair per
    variable where None means unbounded on that side; the default is (0, None).
    """

    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray
    senses: tuple
    bounds: tuple

    @staticmethod
    def build(objective, constraints, rhs, senses, bounds=None) -> "LpProblem":
        c = as_vector(objective)
        A = as_matrix(constraints)
        b = as_vector(rhs)
        n = c.size
        if A.shape != (b.size, n):
            raise DomainError(f"inconsistent LP dimensions: A {A.shape}, c {n}, b {b.size}")
        senses = tuple(senses)
        if len(senses) != b.size or any(s not in ("<=", "=") for s in senses):
            raise DomainError("senses must be '<=' or '=' per constraint row")
        if bounds is None:
            bounds = tuple((0.0, None) for _ in range(n))
        else:
            bounds = tuple((lo, hi) for lo, hi in bounds)
            if len(bounds) != n:
                raise DomainError("one (lo, hi) bound pair required per variable")
        return LpProblem(c, A, b, senses, bounds)


@dataclass(frozen=True)
class LpResult:
    status: str  # 'optimal' | 'unbounded' | 'infeasible'
    x: np.ndarray | None
    value: float | None
    iterations: int


def _pivot(T, zrow, basis, r, c):
    T[r] /= T[r, c]
    col = T[:, c].copy()
    col[r] = 0.0
    rows = np.flatnonzero(col)
    T[rows] -= np.outer(col[rows], T[r])
    if zrow[c] != 0.0:
        zrow -= zrow[c] * T[r]
    basis[r] = c


def _run_simplex(T, zrow, basis, allowed, tol):
    """Pivot until optimal or unbounded.  Returns (status, pivots)."""
    pivots = 0
    m = T.shape[0]
    while True:
        entering = -1
        for j in allowed:  # Bland: smallest eligible index enters
            if zrow[j] > tol:
                entering = j
                break
        if entering < 0:
            return "optimal", pivots
        # A pivot element must be large against its column too: one of 2e-9
        # beside entries of 9e3 passes an absolute tol yet wrecks the tableau.
        column = T[:, entering]
        pivot_tol = tol * max(1.0, float(np.abs(column).max(initial=0.0)))
        best_ratio = None
        leave = -1
        for i in range(m):
            a = column[i]
            if a > pivot_tol:
                ratio = T[i, -1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio - tol
                    or (abs(ratio - best_ratio) <= tol and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded", pivots
        _pivot(T, zrow, basis, leave, entering)
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise LpSolveError(f"simplex exceeded the pivot budget of {_MAX_PIVOTS}")


def solve_lp(problem: LpProblem, tol: float = 1e-9) -> LpResult:
    """Solve an LpProblem; on 'optimal' the returned x is feasible within tol."""
    if not (tol > 0.0):
        raise DomainError("tol must be positive")
    c0 = problem.objective
    A0 = problem.constraints
    b0 = problem.rhs
    n0 = c0.size
    m0 = b0.size

    # Rewrite onto nonnegative standard-form variables.  Each original
    # variable becomes one or two columns plus an affine offset.
    cols = []       # standard-form columns of A
    cost = []       # standard-form objective coefficients
    var_map = []    # (orig index, sign, offset-contribution handled via b shift)
    b = b0.copy()
    extra_rows = []  # (col index, upper bound) rows for two-sided bounds
    for j in range(n0):
        lo, hi = problem.bounds[j]
        aj = A0[:, j]
        if lo is not None and hi is None:
            if lo != 0.0:
                b = b - aj * lo
            cols.append(aj)
            cost.append(c0[j])
            var_map.append((j, 1.0, lo))
        elif lo is None and hi is not None:
            b = b - aj * hi
            cols.append(-aj)
            cost.append(-c0[j])
            var_map.append((j, -1.0, hi))
        elif lo is None and hi is None:
            cols.append(aj)
            cost.append(c0[j])
            var_map.append((j, 1.0, 0.0))
            cols.append(-aj)
            cost.append(-c0[j])
            var_map.append((j, -1.0, 0.0))
        else:
            if hi < lo:
                return LpResult("infeasible", None, None, 0)
            if lo != 0.0:
                b = b - aj * lo
            cols.append(aj)
            cost.append(c0[j])
            var_map.append((j, 1.0, lo))
            extra_rows.append((len(cols) - 1, hi - lo))

    ns = len(cols)
    A = np.column_stack(cols) if ns else np.zeros((m0, 0))
    rows = [A[i] for i in range(m0)]
    rhs = list(b)
    senses = list(problem.senses)
    for col_idx, ub in extra_rows:
        row = np.zeros(ns)
        row[col_idx] = 1.0
        rows.append(row)
        rhs.append(ub)
        senses.append("<=")
    m = len(rows)

    # Slacks for '<=' rows, then artificials wherever no identity column is
    # available (equalities, and rows flipped for a negative rhs).
    num_slack = sum(1 for s in senses if s == "<=")
    T = np.zeros((m, ns + num_slack + 1))
    slack_col = ns
    slack_of_row = [-1] * m
    for i in range(m):
        T[i, :ns] = rows[i]
        T[i, -1] = rhs[i]
        if senses[i] == "<=":
            T[i, slack_col] = 1.0
            slack_of_row[i] = slack_col
            slack_col += 1
    for i in range(m):
        if T[i, -1] < 0.0:
            T[i] = -T[i]

    basis = [-1] * m
    art_rows = []
    for i in range(m):
        sc = slack_of_row[i]
        if sc >= 0 and T[i, sc] == 1.0:
            basis[i] = sc
        else:
            art_rows.append(i)
    num_art = len(art_rows)
    total = ns + num_slack + num_art
    if num_art:
        Tfull = np.zeros((m, total + 1))
        Tfull[:, : ns + num_slack] = T[:, :-1]
        Tfull[:, -1] = T[:, -1]
        for k, i in enumerate(art_rows):
            Tfull[i, ns + num_slack + k] = 1.0
            basis[i] = ns + num_slack + k
        T = Tfull
    art_start = ns + num_slack
    iterations = 0

    if num_art:
        # Phase 1: maximize minus the artificial sum.
        zrow = np.zeros(total + 1)
        zrow[art_start:total] = -1.0
        for i in art_rows:
            zrow += T[i]
        allowed = range(art_start)  # artificials never re-enter
        status, piv = _run_simplex(T, zrow, basis, allowed, tol)
        iterations += piv
        if status != "optimal" or -zrow[-1] < -tol:
            return LpResult("infeasible", None, None, iterations)
        # Drive leftover artificials out of the basis; drop redundant rows.
        keep = []
        for i in range(m):
            if basis[i] >= art_start:
                piv_col = -1
                for j in range(art_start):
                    if abs(T[i, j]) > tol:
                        piv_col = j
                        break
                if piv_col >= 0:
                    _pivot(T, zrow, basis, i, piv_col)
                    iterations += 1
                    keep.append(i)
                # else: redundant row, drop it
            else:
                keep.append(i)
        T = T[keep]
        basis = [basis[i] for i in keep]
        T = np.column_stack([T[:, :art_start], T[:, -1]])

    # Phase 2 on the real objective.
    width = T.shape[1] - 1
    cost_arr = np.zeros(width)
    cost_arr[:ns] = cost
    zrow = np.concatenate([cost_arr, [0.0]])
    for i in range(T.shape[0]):
        cb = cost_arr[basis[i]]
        if cb != 0.0:
            zrow -= cb * T[i]
    status, piv = _run_simplex(T, zrow, basis, range(width), tol)
    iterations += piv
    if status == "unbounded":
        return LpResult("unbounded", None, None, iterations)

    svals = np.zeros(width)
    for i, bi in enumerate(basis):
        svals[bi] = T[i, -1]
    x = np.zeros(n0)
    for k, (j, sign, offset) in enumerate(var_map):
        x[j] += sign * svals[k] + offset
    value = float(c0 @ x)
    return LpResult("optimal", x, value, iterations)
