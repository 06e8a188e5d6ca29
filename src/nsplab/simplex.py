"""Dense one-phase simplex with Bland's smallest-index anti-cycling rule.

Problems are tiny here (tens of variables), so a plain tableau beats any
external solver: fully deterministic pivoting, an explicit unbounded
verdict, no dependencies.  Every constraint is a '<=' row with a
nonnegative right-hand side, as the support LPs build them, so the slack
basis is feasible and no phase 1 is needed.  Each variable is nonnegative
or free; any other bound is a constraint row.
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
    status: str  # 'optimal' | 'unbounded'
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


def solve_lp(objective, constraints, rhs, free=None) -> LpResult:
    """maximize objective @ x subject to constraints @ x <= rhs.

    rhs must be nonnegative: x = 0 is then feasible and the slack basis
    starts the simplex, with no phase 1.  free holds one bool per variable:
    a free variable is unbounded, every other one is >= 0 (the default).  On
    'optimal' the returned x is feasible within LP_TOL.
    """
    c0 = as_vector(objective)
    A = as_matrix(constraints)
    b = as_vector(rhs)
    n0, m = c0.size, b.size
    if A.shape != (m, n0):
        raise DomainError(f"inconsistent LP dimensions: A {A.shape}, c {n0}, b {m}")
    if np.any(b < 0.0):
        raise DomainError("rhs must be nonnegative: the slack basis is the starting point")
    free = np.zeros(n0, dtype=int) if free is None else np.array([bool(f) for f in free], dtype=int)
    if free.size != n0:
        raise DomainError("one free flag required per variable")

    # Standard form: x_j >= 0 keeps its column; a free x_j = x_j^+ - x_j^-
    # adds the negated column right after it.  One slack per row.
    owner = np.repeat(np.arange(n0), 1 + free)
    neg = np.zeros(owner.size, dtype=bool)
    neg[1:] = owner[1:] == owner[:-1]
    sign = np.where(neg, -1.0, 1.0)
    ns = owner.size
    width = ns + m
    T = np.zeros((m, width + 1))
    T[:, :ns] = A[:, owner] * sign
    T[:, ns:width] = np.eye(m)
    T[:, -1] = b
    basis = list(range(ns, width))

    zrow = np.zeros(width + 1)
    zrow[:ns] = c0[owner] * sign
    status, iterations = _run_simplex(T, zrow, basis, range(width))
    if status == "unbounded":
        return LpResult("unbounded", None, None, iterations)

    svals = np.zeros(width)
    svals[basis] = T[:, -1]
    x = 0.0 + svals[:ns][~neg]
    x[owner[neg]] -= svals[:ns][neg]
    return LpResult("optimal", x, float(c0 @ x), iterations)
