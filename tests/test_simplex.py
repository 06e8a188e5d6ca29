"""LP solver tests: spec'd verdicts plus a vertex-enumeration oracle."""

import itertools

import numpy as np
import pytest

from nsplab.errors import DomainError
from nsplab.rng import RngStream
from nsplab.simplex import _pivot, solve_lp


def lp_vertex_oracle(objective, constraints, rhs, free=None, feas_tol=1e-7):
    """Best objective over all basic feasible points, by brute enumeration.

    Takes the arguments of solve_lp.  Builds the full list of inequality
    facets (rows and x_j >= 0 for every variable that is not free), solves
    every square subsystem, and keeps feasible solutions.  Only meaningful
    for small, bounded, feasible problems.
    """
    objective = np.asarray(objective, dtype=float)
    n = objective.size
    ineq_rows = list(zip(constraints, rhs))  # (a, b) meaning a @ x <= b
    for j, is_free in enumerate(free or [False] * n):
        if not is_free:
            e = np.zeros(n)
            e[j] = 1.0
            ineq_rows.append((-e, 0.0))

    best = None
    for combo in itertools.combinations(range(len(ineq_rows)), n):
        M = np.array([ineq_rows[i][0] for i in combo])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, np.array([ineq_rows[i][1] for i in combo]))
        if all(a @ x <= b + feas_tol for a, b in ineq_rows):
            v = float(objective @ x)
            if best is None or v > best:
                best = v
    return best


def test_bounded_single_variable():
    res = solve_lp([1.0], [[1.0]], [3.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(3.0, abs=1e-9)
    assert res.x[0] == pytest.approx(3.0, abs=1e-9)


def test_unbounded():
    res = solve_lp([1.0], np.zeros((0, 1)), [])
    assert res.status == "unbounded"


def test_infeasible():
    # x <= -1 with x >= 0: with no phase 1 to find a feasible start, any
    # negative rhs is refused, whether or not the LP is feasible
    for free in (None, [True]):
        with pytest.raises(DomainError, match="rhs must be nonnegative"):
            solve_lp([1.0], [[1.0]], [-1.0], free=free)


def test_negative_lower_bound():
    # max -x subject to x >= -2  ->  x = -2: a free x with the row -x <= 2
    res = solve_lp([-1.0], [[-1.0]], [2.0], free=[True])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(-2.0, abs=1e-9)
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_upper_bounded_only_variable():
    # max x subject to x <= 5 (no lower bound): a free x with the row x <= 5
    res = solve_lp([1.0], [[1.0]], [5.0], free=[True])
    assert res.status == "optimal"
    assert res.value == pytest.approx(5.0, abs=1e-9)


def _random_bounded_lp(rng):
    """solve_lp arguments of a bounded, feasible random LP."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 9))
    A = rng.normal((m, n))
    x0 = np.abs(rng.normal(n))  # interior feasible point
    b = np.abs(A @ x0) + np.abs(rng.normal(m)) + 0.1  # b >= 0: x = 0 is feasible too
    c = rng.normal(n)
    ub = np.abs(rng.normal(n)) * 3.0 + 1.0  # x <= ub as n more rows
    return c, np.vstack([A, np.eye(n)]), np.concatenate([b, ub])


def test_agrees_with_vertex_enumeration_oracle():
    rng = RngStream(20240601)
    for trial in range(120):
        lp = _random_bounded_lp(rng.substream("lp", trial))
        res = solve_lp(*lp)
        assert res.status == "optimal", f"trial {trial}: {res.status}"
        oracle = lp_vertex_oracle(*lp)
        assert oracle is not None
        assert res.value == pytest.approx(oracle, abs=1e-8), f"trial {trial}"
        # returned point is feasible
        c, A, b = lp
        assert np.all(A @ res.x <= b + 1e-8)
        assert np.all(res.x >= -1e-8)
        assert res.value == pytest.approx(float(c @ res.x), abs=1e-9)


def test_deterministic_resolve():
    lp = _random_bounded_lp(RngStream(5))
    r1 = solve_lp(*lp)
    r2 = solve_lp(*lp)
    assert r1.value == r2.value
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations


def loop_pivot(T, zrow, basis, r, c):
    """Row-by-row reference for the vectorized tableau pivot."""
    T[r] /= T[r, c]
    col = T[:, c].copy()
    for i in range(T.shape[0]):
        if i != r and col[i] != 0.0:
            T[i] -= col[i] * T[r]
    if zrow[c] != 0.0:
        zrow -= zrow[c] * T[r]
    basis[r] = c


def test_pivot_matches_row_loop_bit_for_bit():
    rng = RngStream(77)
    for trial in range(40):
        sub = rng.substream(trial)
        m, w = int(sub.integers(2, 9)), int(sub.integers(3, 12))
        T = sub.normal((m, w))
        T[sub.uniform((m, w)) < 0.3] = 0.0  # zeros in the pivot column are skipped
        zrow = sub.normal(w)
        r, c = int(sub.integers(0, m)), int(sub.integers(0, w - 1))
        T[r, c] = 0.5 + sub.uniform()
        got = (T.copy(), zrow.copy(), list(range(m)))
        want = (T.copy(), zrow.copy(), list(range(m)))
        _pivot(*got, r, c)
        loop_pivot(*want, r, c)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]
