import math

import numpy as np
import pytest

from nsplab.dictionary import make_dictionary
from nsplab.errors import DomainError
from nsplab.nsp import certify_nsp
from nsplab.rng import RngStream
from nsplab.solver import (
    RecoveryBoundInputs,
    RecoveryProblem,
    RecoveryResult,
    SplitParams,
    best_s_term_error,
    evaluate_recovery,
    solve_bp_lp,
    solve_l1_synthesis,
)
from nsplab.subgaussian import make_spec, sample_measurement_matrix
from oracles import soft_threshold


def reference_l1_synthesis(p: RecoveryProblem, params: SplitParams = SplitParams()) -> RecoveryResult:
    """The splitting loop with every residual and norm formed on every iteration.

    Test-only reference: `solve_l1_synthesis` forms the dual residual only
    when a test reads it and takes norms as sqrt(v @ v), and must match this
    loop bit for bit.  The only addition is the penalty-change counter.
    """
    B, y, eps = p.B, p.y, p.eps
    m, n = B.shape
    x_ls, *_ = np.linalg.lstsq(B, y, rcond=None)
    dist = float(np.linalg.norm(y - B @ x_ls))
    if dist > eps + 1e-7 * max(1.0, float(np.linalg.norm(y))) + 1e-9:
        return RecoveryResult(None, None, None, 0, "infeasible")

    rho = params.step
    changes = 0
    solve_ridge = np.linalg.inv(np.eye(n) + B.T @ B)
    x = np.zeros(n)
    z = np.zeros(n)
    r = y.copy() if eps >= float(np.linalg.norm(y)) else np.zeros(m)
    u_z = np.zeros(n)
    u_r = np.zeros(m)
    sqrt_dims = math.sqrt(n + m)
    for it in range(1, params.max_iter + 1):
        x = solve_ridge @ ((z - u_z) + B.T @ (y - r + u_r))
        bx = B @ x
        z_old, r_old = z, r
        z = soft_threshold(x + u_z, 1.0 / rho)
        w = y - bx + u_r
        wn = float(np.linalg.norm(w))
        r = w if wn <= eps else (eps / wn) * w
        u_z = u_z + x - z
        u_r = u_r + (y - bx) - r

        pri = math.hypot(float(np.linalg.norm(x - z)), float(np.linalg.norm(y - bx - r)))
        dual = rho * math.hypot(
            float(np.linalg.norm(z - z_old)),
            float(np.linalg.norm(B.T @ (r - r_old))),
        )
        scale_pri = max(
            float(np.linalg.norm(x)),
            float(np.linalg.norm(z)),
            float(np.linalg.norm(r)),
            float(np.linalg.norm(bx)),
            1.0,
        )
        scale_dual = max(rho * math.hypot(float(np.linalg.norm(u_z)), float(np.linalg.norm(u_r))), 1.0)
        eps_pri = sqrt_dims * params.tol_abs + params.tol_rel * scale_pri
        eps_dual = sqrt_dims * params.tol_abs + params.tol_rel * scale_dual
        if pri < eps_pri and dual < eps_dual:
            return RecoveryResult(
                x_hat=x,
                objective=float(np.abs(x).sum()),
                residual_norm=float(np.linalg.norm(y - bx)),
                iterations=it,
                status="converged",
                penalty_changes=changes,
            )
        if it % 10 == 0 and it <= params.adapt_iters:
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


def certified_optimum(B, y, eps, x_approx):
    """Exact optimum of min ||x||_1 s.t. ||y - B x||_2 <= eps on x_approx's sign pattern.

    Test-only oracle for eps > 0.  Take the support S of x_approx, thresholded
    at 1e-6 max|x_approx|, and its signs sigma.  With the ball constraint
    active, the KKT conditions B_S^T v = sigma, v = (y - B_S x_S) / t and
    ||y - B_S x_S|| = eps give x_S = x_ls - t d, where x_ls is the least
    squares fit on S, d = (B_S^T B_S)^{-1} sigma and
    t = sqrt((eps^2 - ||y - B_S x_ls||^2) / ||B_S d||^2).  The point is
    certified optimal when the signs of x_S are sigma, v is dual feasible
    (||B^T v||_inf <= 1 + 1e-9) and the duality gap
    ||x||_1 - (y.v - eps ||v||) vanishes.  Returns (x, certified).
    """
    n = B.shape[1]
    S = np.flatnonzero(np.abs(x_approx) > 1e-6 * np.abs(x_approx).max())
    sigma = np.sign(x_approx[S])
    BS = B[:, S]
    G = BS.T @ BS
    x_ls = np.linalg.solve(G, BS.T @ y)
    d = np.linalg.solve(G, sigma)
    r_ls = y - BS @ x_ls
    Bd = BS @ d
    slack = eps**2 - r_ls @ r_ls
    if slack <= 0.0:
        return None, False
    t = math.sqrt(slack / (Bd @ Bd))
    x = np.zeros(n)
    x[S] = x_ls - t * d
    v = (y - B @ x) / t
    primal = float(np.abs(x).sum())
    dual = float(y @ v - eps * np.linalg.norm(v))
    certified = (
        np.array_equal(np.sign(x[S]), sigma)
        and float(np.abs(B.T @ v).max()) <= 1.0 + 1e-9
        and abs(primal - dual) <= 1e-9 * max(1.0, primal)
    )
    return x, certified


class TestBestSTerm:
    def test_examples(self):
        assert best_s_term_error([3.0, 1.0, -2.0], 1) == pytest.approx(3.0)
        assert best_s_term_error([3.0, 1.0, -2.0], 3) == 0.0
        assert best_s_term_error([0.0, 5.0, 0.0], 1) == 0.0  # already 1-sparse

    def test_domain(self):
        with pytest.raises(DomainError):
            best_s_term_error([1.0, 2.0], 3)


class TestBasisPursuitLp:
    def test_identity(self):
        y = RngStream(80).normal(5)
        res = solve_bp_lp(np.eye(5), y)
        assert res.status == "converged"
        assert np.allclose(res.x_hat, y, atol=1e-9)

    def test_three_column(self):
        res = solve_bp_lp(np.array([[1.0, 0, 1], [0, 1, 1]]), np.array([1.0, 1.0]))
        assert np.allclose(res.x_hat, [0, 0, 1], atol=1e-9)
        assert res.objective == pytest.approx(1.0, abs=1e-9)

    def test_tie_objective_only(self):
        res = solve_bp_lp(np.array([[1.0, 1.0]]), np.array([2.0]))
        assert res.objective == pytest.approx(2.0, abs=1e-9)
        # deterministic: re-solving returns the same vertex
        res2 = solve_bp_lp(np.array([[1.0, 1.0]]), np.array([2.0]))
        assert np.array_equal(res.x_hat, res2.x_hat)

    def test_infeasible_when_y_outside_range(self):
        B = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank one
        res = solve_bp_lp(B, np.array([1.0, 0.0]))
        assert res.status == "infeasible"

    def test_minimality_against_planted_points(self):
        rng = RngStream(81)
        for trial in range(20):
            sub = rng.substream(trial)
            B = sub.normal((4, 9))
            x0 = np.zeros(9)
            idx = sub.permutation(9)[:3]
            x0[idx] = sub.normal(3)
            res = solve_bp_lp(B, B @ x0)
            assert res.status == "converged"
            assert res.objective <= np.abs(x0).sum() + 1e-8
            assert res.residual_norm <= 1e-7 * max(1.0, np.linalg.norm(B @ x0))


class TestSplitting:
    def test_identity_noiseless(self):
        y = RngStream(82).normal(6)
        res = solve_l1_synthesis(RecoveryProblem(np.eye(6), y, 0.0))
        assert res.status == "converged"
        assert np.allclose(res.x_hat, y, atol=1e-8)

    def test_large_ball_gives_zero(self):
        rng = RngStream(83)
        B = rng.normal((4, 7))
        y = rng.normal(4)
        eps = float(np.linalg.norm(y)) * 1.5
        res = solve_l1_synthesis(RecoveryProblem(B, y, eps))
        assert res.status == "converged"
        assert np.abs(res.x_hat).sum() <= 1e-7

    def test_residual_feasibility(self):
        rng = RngStream(84)
        for trial in range(8):
            sub = rng.substream(trial)
            B = sub.normal((6, 12))
            x0 = np.zeros(12)
            x0[sub.permutation(12)[:2]] = sub.normal(2)
            eps = 0.05
            y = B @ x0 + eps * sub.unit_vector(6)
            res = solve_l1_synthesis(RecoveryProblem(B, y, eps))
            assert res.status == "converged"
            assert res.residual_norm <= eps + 1e-6

    def test_infeasible_ball(self):
        B = np.array([[1.0, 0.0], [0.0, 0.0]])  # range is the x-axis
        y = np.array([0.0, 1.0])
        res = solve_l1_synthesis(RecoveryProblem(B, y, 0.1))
        assert res.status == "infeasible"

    def test_matches_lp_objective_noiseless(self):
        rng = RngStream(85)
        for trial in range(10):
            sub = rng.substream(trial)
            B = sub.normal((20, 40))
            x0 = np.zeros(40)
            x0[sub.permutation(40)[:3]] = sub.normal(3)
            y = B @ x0
            lp = solve_bp_lp(B, y)
            admm = solve_l1_synthesis(RecoveryProblem(B, y, 0.0))
            assert admm.status == "converged"
            assert admm.objective == pytest.approx(lp.objective, abs=1e-6)

    def test_params_are_honored(self):
        rng = RngStream(86)
        B = rng.normal((5, 10))
        y = B @ np.eye(10)[0]
        res = solve_l1_synthesis(RecoveryProblem(B, y, 0.0), SplitParams(max_iter=3))
        assert res.status == "max_iter"
        assert res.iterations == 3


def _planted(seed, m, n, s, eps):
    rng = RngStream(seed)
    B = rng.normal((m, n))
    x0 = np.zeros(n)
    x0[rng.permutation(n)[:s]] = rng.normal(s)
    y = B @ x0
    if eps > 0.0:
        y = y + eps * rng.unit_vector(m)
    return B, y


def _bit_identity_cases():
    # (label, seed, m, n, s, eps, params); eps = None puts eps at 1.5 ||y||
    cases = []
    for i, (m, n) in enumerate([(8, 16), (10, 18), (20, 40), (6, 12)]):
        cases.append((f"noiseless-{m}x{n}", 200 + i, m, n, 2, 0.0, SplitParams()))
    for i, (m, n, eps) in enumerate(
        [(8, 16, 0.01), (10, 18, 0.05), (20, 40, 0.01), (12, 30, 0.05), (6, 12, 0.1), (16, 40, 0.01)]
    ):
        cases.append((f"ball-{m}x{n}-eps{eps}", 210 + i, m, n, 3, eps, SplitParams()))
    for i in range(2):
        cases.append((f"eps-above-norm-{i}", 220 + i, 6, 12, 2, None, SplitParams()))
    cases.append(("max-iter-cut", 230, 10, 18, 3, 0.05, SplitParams(max_iter=150)))
    cases.append(("max-iter-cut-noiseless", 231, 8, 16, 2, 0.0, SplitParams(max_iter=50)))
    cases.append(("short-adapt", 232, 6, 12, 2, 0.05, SplitParams(adapt_iters=40)))
    cases.append(("small-step", 233, 10, 18, 3, 0.01, SplitParams(step=0.05)))
    cases.append(("large-step", 234, 8, 16, 2, 0.0, SplitParams(step=20.0)))
    cases.append(("loose-tol", 235, 20, 40, 3, 0.01, SplitParams(tol_abs=1e-8, tol_rel=1e-6)))
    cases.append(("no-adapt", 236, 6, 12, 2, 0.05, SplitParams(adapt_iters=0)))
    cases.append(("adapt-every-iteration", 237, 8, 16, 2, 0.05, SplitParams(adapt_iters=50_000)))
    return cases


class TestSplittingBitIdentity:
    def test_matches_reference_loop(self):
        results = {}
        for label, seed, m, n, s, eps, params in _bit_identity_cases():
            B, y = _planted(seed, m, n, s, eps or 0.0)
            if eps is None:
                eps = 1.5 * float(np.linalg.norm(y))
            p = RecoveryProblem(B, y, eps)
            got = solve_l1_synthesis(p, params)
            want = reference_l1_synthesis(p, params)
            assert got.status == want.status, label
            assert got.iterations == want.iterations, label
            assert got.penalty_changes == want.penalty_changes, label
            assert got.x_hat.tobytes() == want.x_hat.tobytes(), label
            assert got.objective == want.objective, label
            assert got.residual_norm == want.residual_norm, label
            results[label] = (got, eps, params)
        # the cases reach every branch the rewrite touches
        assert any(
            r.status == "converged" and r.iterations > params.adapt_iters
            for r, _, params in results.values()
        )
        assert {r.status for r, _, _ in results.values()} == {"converged", "max_iter"}
        assert results["max-iter-cut"][0].iterations == 150
        assert results["max-iter-cut-noiseless"][0].status == "max_iter"
        ball, eps, _ = results["ball-20x40-eps0.01"]
        assert ball.residual_norm == pytest.approx(eps, rel=1e-6)
        assert results["eps-above-norm-0"][0].objective <= 1e-7
        assert any(r.penalty_changes > 0 for r, _, _ in results.values())


def _phase_problems():
    """20x40 unit-norm Gaussian dictionary, s = 3, eps = 0.01, as the phase campaign builds them."""
    rng = RngStream(250)
    D = make_dictionary("gaussian_unit_norm", 20, 40, rng.substream("dict"))
    spec = make_spec("std_gaussian", 20)
    for m in (8, 12, 16, 20):
        for trial in range(2):
            sub = rng.substream(m, trial)
            B = sample_measurement_matrix(spec, m, 20, sub) @ D.matrix
            x0 = np.zeros(40)
            x0[np.sort(sub.permutation(40)[:3])] = sub.normal(3)
            yield B, B @ x0 + 0.01 * sub.unit_vector(m)


class TestSplittingOracle:
    def test_oracle_certifies_its_own_optimum(self):
        # the certified point sits on the ball's boundary and certifies itself
        B, y = _planted(251, 10, 18, 2, 0.05)
        res = solve_l1_synthesis(RecoveryProblem(B, y, 0.05))
        x, certified = certified_optimum(B, y, 0.05, res.x_hat)
        assert certified
        assert np.linalg.norm(y - B @ x) == pytest.approx(0.05, rel=1e-12)
        assert certified_optimum(B, y, 0.05, x)[1]

    def test_oracle_rejects_a_wrong_sign_pattern(self):
        B, y = _planted(252, 10, 18, 2, 0.05)
        res = solve_l1_synthesis(RecoveryProblem(B, y, 0.05))
        _, certified = certified_optimum(B, y, 0.05, -res.x_hat)
        assert not certified

    def test_admm_within_documented_accuracy_of_certified_optimum(self):
        eps = 0.01
        for B, y in _phase_problems():
            res = solve_l1_synthesis(RecoveryProblem(B, y, eps))
            assert res.status == "converged"
            x, certified = certified_optimum(B, y, eps, res.x_hat)
            assert certified
            assert res.objective <= float(np.abs(x).sum()) + 1e-7
            assert res.residual_norm <= eps + 1e-8


class TestRecoveryNspLink:
    def test_certified_composition_recovers_all_plants(self):
        rng = RngStream(87)
        B = rng.normal((5, 7))
        cert = certify_nsp(B, 1)
        assert cert.holds
        for trial in range(30):
            sub = rng.substream("plant", trial)
            x0 = np.zeros(7)
            x0[int(sub.integers(0, 7))] = float(sub.signs()) * (1.0 + sub.uniform())
            res = solve_bp_lp(B, B @ x0)
            assert np.max(np.abs(res.x_hat - x0)) < 1e-6

    def test_failed_certificate_witness_planting_fails(self):
        # kernel contains (2, 0, 0, -1): support {0} violates the NSP
        rng = RngStream(88)
        base = rng.normal((3, 3))
        B = np.column_stack([2.0 * base[:, 0], base[:, 1], base[:, 2], base[:, 0]])
        cert = certify_nsp(B, 1)
        assert cert.verdict == "fails"
        T = list(cert.witness_support)
        x0 = np.zeros(4)
        x0[T] = cert.witness[T]
        res = solve_bp_lp(B, B @ x0)
        assert np.max(np.abs(res.x_hat - x0)) > 1e-6


class TestEvaluate:
    def test_exact_recovery_report(self):
        D = make_dictionary("identity", 4, 4)
        x0 = np.array([0.0, 2.0, 0.0, 0.0])
        res = solve_bp_lp(np.eye(4), x0)
        rep = evaluate_recovery(
            x0, res, D.matrix, RecoveryBoundInputs(gamma=0.5, eta=1.0, eps=0.0, C=1.0, sigma=1.0, s=1)
        )
        assert rep.err_x <= 1e-9
        assert rep.coefficient_bound == 0.0
        assert rep.ok_x and rep.ok_z

    def test_bound_arithmetic(self):
        D = make_dictionary("identity", 3, 3)
        res = solve_bp_lp(np.eye(3), np.array([1.0, 0, 0]))
        rep = evaluate_recovery(
            np.array([1.0, 0, 0]),
            res,
            D.matrix,
            RecoveryBoundInputs(gamma=0.5, eta=1.0, eps=0.1, C=1.0, sigma=1.0, s=1),
        )
        assert rep.coefficient_bound == pytest.approx(0.2, rel=1e-12)
        assert rep.signal_bound == pytest.approx(D.op_norm * rep.coefficient_bound, rel=1e-9)

    def test_bound_examples(self):
        D = make_dictionary("identity", 3, 3)
        res = solve_bp_lp(np.eye(3), np.array([1.0, 0, 0]))
        # exact s-sparse signal and no noise: the bound is zero
        rep = evaluate_recovery(
            np.array([1.0, 0, 0]),
            res,
            D.matrix,
            RecoveryBoundInputs(gamma=0.5, eta=1.0, eps=0.0, C=1.0, sigma=1.0, s=1),
        )
        assert rep.coefficient_bound == 0.0
        # sigma_s = 1 at gamma = 0.5, eps = 0: (2 gamma + 2) / (1 - gamma) = 6
        x0 = np.array([2.0, 1.0, 0.0])
        rep = evaluate_recovery(
            x0,
            solve_bp_lp(np.eye(3), x0),
            D.matrix,
            RecoveryBoundInputs(gamma=0.5, eta=1.0, eps=0.0, C=1.0, sigma=1.0, s=1),
        )
        assert rep.sigma_s == 1.0
        assert rep.coefficient_bound == pytest.approx(6.0, rel=1e-12)
        # noise term 2 eps / (C sigma eta) with sigma_s = 0
        rep = evaluate_recovery(
            np.array([1.0, 0, 0]),
            res,
            D.matrix,
            RecoveryBoundInputs(gamma=0.5, eta=2.0, eps=1.0, C=1.0, sigma=1.0, s=1),
        )
        assert rep.coefficient_bound == pytest.approx(1.0, rel=1e-12)

    def test_bound_inputs_domain(self):
        with pytest.raises(DomainError):
            RecoveryBoundInputs(gamma=1.0, eta=1.0, eps=0.0, C=1.0, sigma=1.0, s=1)
        with pytest.raises(DomainError):
            RecoveryBoundInputs(gamma=0.5, eta=0.0, eps=0.0, C=1.0, sigma=1.0, s=1)

    def test_signal_bound_is_opnorm_times_coefficient_bound(self):
        rng = RngStream(89)
        M = rng.normal((3, 5))
        D = make_dictionary("user_matrix", 3, 5, matrix=M)
        x0 = np.zeros(5)
        x0[0] = 1.0
        B = rng.normal((4, 3)) @ M
        res = solve_bp_lp(B, B @ x0)
        rep = evaluate_recovery(
            x0, res, D.matrix, RecoveryBoundInputs(gamma=0.7, eta=0.5, eps=0.3, C=1.0, sigma=2.0, s=2)
        )
        assert rep.signal_bound == pytest.approx(D.op_norm * rep.coefficient_bound, rel=1e-9)
