"""Dense two-phase simplex with Bland's smallest-index anti-cycling rule.

Problems are tiny here (tens of variables), so a plain tableau beats any
external solver: fully deterministic pivoting, explicit unbounded and
infeasible verdicts, no dependencies.  Each variable is nonnegative or free,
the two kinds the support LPs and basis pursuit build; any other bound is a
constraint row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LpSolveError
from .numerics import as_matrix, as_vector

_MAX_PIVOTS = 100_000
LP_TOL = 1e-9        # pivot, ratio-test and feasibility tolerance


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


def _run_simplex(T, zrow, basis, allowed):
    """Pivot until optimal or unbounded.  Returns (status, pivots)."""
    pivots = 0
    m = T.shape[0]
    while True:
        entering = -1
        for j in allowed:  # Bland: smallest eligible index enters
            if zrow[j] > LP_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal", pivots
        # A pivot element must be large against its column too: one of 2e-9
        # beside entries of 9e3 passes an absolute LP_TOL yet wrecks the tableau.
        column = T[:, entering]
        pivot_tol = LP_TOL * max(1.0, float(np.abs(column).max(initial=0.0)))
        best_ratio = None
        leave = -1
        for i in range(m):
            a = column[i]
            if a > pivot_tol:
                ratio = T[i, -1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio - LP_TOL
                    or (abs(ratio - best_ratio) <= LP_TOL and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded", pivots
        _pivot(T, zrow, basis, leave, entering)
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise LpSolveError(f"simplex exceeded the pivot budget of {_MAX_PIVOTS}")


def solve_lp(objective, constraints, rhs, senses, free=None) -> LpResult:
    """maximize objective @ x subject to constraints @ x (senses) rhs.

    senses holds '<=' or '=' per row.  free holds one bool per variable: a
    free variable is unbounded, every other one is >= 0 (the default).  On
    'optimal' the returned x is feasible within LP_TOL.
    """
    c0 = as_vector(objective)
    A = as_matrix(constraints)
    b = as_vector(rhs)
    n0, m = c0.size, b.size
    if A.shape != (m, n0):
        raise DomainError(f"inconsistent LP dimensions: A {A.shape}, c {n0}, b {m}")
    senses = tuple(senses)
    if len(senses) != m or any(s not in ("<=", "=") for s in senses):
        raise DomainError("senses must be '<=' or '=' per constraint row")
    free = np.zeros(n0, dtype=int) if free is None else np.array([bool(f) for f in free], dtype=int)
    if free.size != n0:
        raise DomainError("one free flag required per variable")

    # Standard form: x_j >= 0 keeps its column; a free x_j = x_j^+ - x_j^-
    # adds the negated column right after it.
    owner = np.repeat(np.arange(n0), 1 + free)
    neg = np.zeros(owner.size, dtype=bool)
    neg[1:] = owner[1:] == owner[:-1]
    sign = np.where(neg, -1.0, 1.0)
    ns = owner.size

    # Slacks for '<=' rows, then artificials wherever no identity column is
    # available (equalities, and rows flipped for a negative rhs).
    slack_rows = [i for i in range(m) if senses[i] == "<="]
    art_start = ns + len(slack_rows)
    T = np.zeros((m, art_start + 1))
    T[:, :ns] = A[:, owner] * sign
    T[slack_rows, ns + np.arange(len(slack_rows))] = 1.0
    T[:, -1] = b
    flip = b < 0.0
    T[flip] = -T[flip]
    basis = [-1] * m
    for k, i in enumerate(slack_rows):
        if not flip[i]:
            basis[i] = ns + k
    art_rows = [i for i in range(m) if basis[i] < 0]
    total = art_start + len(art_rows)
    T = np.hstack([T[:, :-1], np.zeros((m, len(art_rows))), T[:, -1:]])
    for k, i in enumerate(art_rows):
        T[i, art_start + k] = 1.0
        basis[i] = art_start + k
    iterations = 0

    if art_rows:
        # Phase 1: maximize minus the artificial sum.
        zrow = np.zeros(total + 1)
        zrow[art_start:total] = -1.0
        for i in art_rows:
            zrow += T[i]
        allowed = range(art_start)  # artificials never re-enter
        status, piv = _run_simplex(T, zrow, basis, allowed)
        iterations += piv
        if status != "optimal" or -zrow[-1] < -LP_TOL:
            return LpResult("infeasible", None, None, iterations)
        # Drive leftover artificials out of the basis; drop redundant rows.
        keep = []
        for i in range(m):
            if basis[i] >= art_start:
                nonzero = np.flatnonzero(np.abs(T[i, :art_start]) > LP_TOL)
                if nonzero.size == 0:
                    continue  # redundant row
                _pivot(T, zrow, basis, i, int(nonzero[0]))
                iterations += 1
            keep.append(i)
        T = np.column_stack([T[keep, :art_start], T[keep, -1]])
        basis = [basis[i] for i in keep]

    # Phase 2 on the real objective.
    width = T.shape[1] - 1
    cost = np.zeros(width)
    cost[:ns] = c0[owner] * sign
    zrow = np.append(cost, 0.0)
    for i in range(T.shape[0]):
        cb = cost[basis[i]]
        if cb != 0.0:
            zrow -= cb * T[i]
    status, piv = _run_simplex(T, zrow, basis, range(width))
    iterations += piv
    if status == "unbounded":
        return LpResult("unbounded", None, None, iterations)

    svals = np.zeros(width)
    svals[basis] = T[:, -1]
    x = 0.0 + svals[:ns][~neg]
    x[owner[neg]] -= svals[:ns][neg]
    return LpResult("optimal", x, float(c0 @ x), iterations)
