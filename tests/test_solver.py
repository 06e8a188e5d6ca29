import numpy as np
import pytest

from nsplab.dictionary import make_dictionary
from nsplab.errors import DomainError
from nsplab.nsp import certify_nsp
from nsplab.rng import RngStream
from nsplab.solver import (
    RecoveryBoundInputs,
    RecoveryProblem,
    SplitParams,
    best_s_term_error,
    evaluate_recovery,
    solve_bp_lp,
    solve_l1_synthesis,
)


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
            x0, res, D, RecoveryBoundInputs(gamma=0.5, eta=1.0, eps=0.0, C=1.0, sigma=1.0, s=1)
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
            D,
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
            D,
            RecoveryBoundInputs(gamma=0.5, eta=1.0, eps=0.0, C=1.0, sigma=1.0, s=1),
        )
        assert rep.coefficient_bound == 0.0
        # sigma_s = 1 at gamma = 0.5, eps = 0: (2 gamma + 2) / (1 - gamma) = 6
        x0 = np.array([2.0, 1.0, 0.0])
        rep = evaluate_recovery(
            x0,
            solve_bp_lp(np.eye(3), x0),
            D,
            RecoveryBoundInputs(gamma=0.5, eta=1.0, eps=0.0, C=1.0, sigma=1.0, s=1),
        )
        assert rep.sigma_s == 1.0
        assert rep.coefficient_bound == pytest.approx(6.0, rel=1e-12)
        # noise term 2 eps / (C sigma eta) with sigma_s = 0
        rep = evaluate_recovery(
            np.array([1.0, 0, 0]),
            res,
            D,
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
            x0, res, D, RecoveryBoundInputs(gamma=0.7, eta=0.5, eps=0.3, C=1.0, sigma=2.0, s=2)
        )
        assert rep.signal_bound == pytest.approx(D.op_norm * rep.coefficient_bound, rel=1e-9)
