import itertools
import math

import numpy as np
import pytest

from nsplab import solver
from nsplab.dictionary import make_dictionary
from nsplab.errors import DomainError
from nsplab.nsp import certify_nsp
from nsplab.rng import RngStream
from nsplab.solver import solve_l1_synthesis
from nsplab.subgaussian import make_spec, sample_measurement_matrix
from oracles import best_s_term_error, bp_objective_oracle, solve_l1_synthesis_qr


def certified_optimum(B, y, eps, x_approx):
    """Exact optimum of min ||x||_1 s.t. ||y - B x||_2 <= eps on x_approx's sign pattern.

    Test-only oracle for eps > 0.  The support S comes from the dual: with
    r = y - B x_approx and v0 = r / max|B^T r|, S holds the columns with
    |B^T v0| within 1e-9 of 1 that are nonzero in x_approx, and sigma their
    signs in x_approx.  A relative cutoff on |x_approx| would drop genuine
    small coefficients.  With the ball constraint active, the KKT conditions
    B_S^T v = sigma, v = (y - B_S x_S) / t and ||y - B_S x_S|| = eps give
    x_S = x_ls - t d, where x_ls is the least squares fit on S,
    d = (B_S^T B_S)^{-1} sigma and
    t = sqrt((eps^2 - ||y - B_S x_ls||^2) / ||B_S d||^2).  The point is
    certified optimal when the signs of x_S are sigma, v is dual feasible
    (||B^T v||_inf <= 1 + 1e-9) and the duality gap
    ||x||_1 - (y.v - eps ||v||) vanishes.  Returns (x, certified).
    """
    n = B.shape[1]
    c = B.T @ (y - B @ x_approx)
    on_dual = np.abs(c) >= (1.0 - 1e-9) * np.abs(c).max()
    S = np.flatnonzero(on_dual & (x_approx != 0.0))
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
    """Basis pursuit, the eps = 0 LP, solved by the homotopy."""

    def test_identity(self):
        y = RngStream(80).normal(5)
        res = solve_l1_synthesis(np.eye(5), y)
        assert res.status == "converged"
        assert np.allclose(res.x_hat, y, atol=1e-9)

    def test_three_column(self):
        res = solve_l1_synthesis(np.array([[1.0, 0, 1], [0, 1, 1]]), np.array([1.0, 1.0]))
        assert res.status == "converged"
        assert np.allclose(res.x_hat, [0, 0, 1], atol=1e-9)
        assert res.objective == pytest.approx(1.0, abs=1e-9)

    def test_tie_objective_only(self):
        res = solve_l1_synthesis(np.array([[1.0, 1.0]]), np.array([2.0]))
        assert res.status == "converged"
        assert res.objective == pytest.approx(2.0, abs=1e-9)
        # deterministic: re-solving returns the same point
        res2 = solve_l1_synthesis(np.array([[1.0, 1.0]]), np.array([2.0]))
        assert np.array_equal(res.x_hat, res2.x_hat)

    def test_infeasible_when_y_outside_range(self):
        B = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank one
        assert _assert_infeasible(B, np.array([1.0, 0.0]), 0.0).iterations > 0

    def test_minimality_against_planted_points(self):
        rng = RngStream(81)
        for trial in range(20):
            sub = rng.substream(trial)
            B = sub.normal((4, 9))
            x0 = np.zeros(9)
            idx = sub.permutation(9)[:3]
            x0[idx] = sub.normal(3)
            res = solve_l1_synthesis(B, B @ x0)
            assert res.status == "converged"
            assert res.objective <= np.abs(x0).sum() + 1e-8
            assert res.residual_norm <= 1e-7 * max(1.0, np.linalg.norm(B @ x0))


class TestSplitting:
    def test_identity_noiseless(self):
        y = RngStream(82).normal(6)
        res = solve_l1_synthesis(np.eye(6), y)
        assert res.status == "converged"
        assert np.allclose(res.x_hat, y, atol=1e-8)

    def test_large_ball_gives_zero(self):
        rng = RngStream(83)
        B = rng.normal((4, 7))
        y = rng.normal(4)
        eps = float(np.linalg.norm(y)) * 1.5
        res = solve_l1_synthesis(B, y, eps)
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
            res = solve_l1_synthesis(B, y, eps)
            assert res.status == "converged"
            assert res.residual_norm <= eps + 1e-6

    def test_infeasible_ball(self):
        B = np.array([[1.0, 0.0], [0.0, 0.0]])  # range is the x-axis
        # y is orthogonal to range(B), so B^T y = 0 and the path takes no step
        assert _assert_infeasible(B, np.array([0.0, 1.0]), 0.1).iterations == 0
        assert _assert_infeasible(B, np.array([1.0, 1.0]), 0.1).iterations > 0

    def test_matches_lp_objective_noiseless(self):
        rng = RngStream(85)
        for trial in range(10):
            sub = rng.substream(trial)
            B = sub.normal((20, 40))
            x0 = np.zeros(40)
            x0[sub.permutation(40)[:3]] = sub.normal(3)
            y = B @ x0
            res = solve_l1_synthesis(B, y)
            assert res.status == "converged"
            assert res.objective == pytest.approx(bp_objective_oracle(B, y), abs=1e-9)


@pytest.mark.parametrize(
    "args",
    [
        (np.eye(3), np.ones(2)),
        (np.eye(3), np.ones(3), -0.1),
        (np.eye(3), np.ones(3), math.nan),
        (np.ones(3), np.ones(3)),
        (np.eye(3), np.array([1.0, math.inf, 0.0])),
    ],
    ids=["splitting-y-length", "splitting-eps-negative", "splitting-eps-nan",
         "splitting-B-1d", "splitting-y-infinite"],
)
def test_recovery_routes_share_input_check(args):
    # eps = 0 (basis pursuit) and eps > 0 take the same check
    with pytest.raises(DomainError):
        solve_l1_synthesis(*args)


def _planted(seed, m, n, s, eps):
    rng = RngStream(seed)
    B = rng.normal((m, n))
    x0 = np.zeros(n)
    x0[rng.permutation(n)[:s]] = rng.normal(s)
    y = B @ x0
    if eps > 0.0:
        y = y + eps * rng.unit_vector(m)
    return B, y


def _phase_problems():
    """20x40 unit-norm Gaussian dictionary, s = 3, eps = 0.01, as the phase campaign builds them."""
    rng = RngStream(250)
    D = make_dictionary("gaussian_unit_norm", 20, 40, rng.substream("dict"))
    spec = make_spec("std_gaussian", 20)
    for m in (8, 12, 16, 20):
        for trial in range(2):
            sub = rng.substream(m, trial)
            B = sample_measurement_matrix(spec, m, sub) @ D.matrix
            x0 = np.zeros(40)
            x0[np.sort(sub.permutation(40)[:3])] = sub.normal(3)
            yield B, B @ x0 + 0.01 * sub.unit_vector(m)


class TestSplittingOracle:
    def test_oracle_certifies_its_own_optimum(self):
        # the certified point sits on the ball's boundary and certifies itself
        B, y = _planted(251, 10, 18, 2, 0.05)
        res = solve_l1_synthesis(B, y, 0.05)
        x, certified = certified_optimum(B, y, 0.05, res.x_hat)
        assert certified
        assert np.linalg.norm(y - B @ x) == pytest.approx(0.05, rel=1e-12)
        assert certified_optimum(B, y, 0.05, x)[1]

    def test_oracle_rejects_a_wrong_sign_pattern(self):
        B, y = _planted(252, 10, 18, 2, 0.05)
        res = solve_l1_synthesis(B, y, 0.05)
        _, certified = certified_optimum(B, y, 0.05, -res.x_hat)
        assert not certified

    def test_homotopy_matches_certified_optimum(self):
        eps = 0.01
        for B, y in _phase_problems():
            res = solve_l1_synthesis(B, y, eps)
            assert res.status == "converged"
            x, certified = certified_optimum(B, y, eps, res.x_hat)
            assert certified
            assert np.max(np.abs(res.x_hat - x)) <= 1e-9
            assert abs(res.objective - float(np.abs(x).sum())) <= 1e-9
            assert res.residual_norm == pytest.approx(eps, abs=1e-12)

    def test_oracle_keeps_a_small_genuine_coefficient(self):
        # optimum planted through its KKT conditions: support S, signs sigma,
        # dual vector v with B_S^T v = sigma, and r = eps v / ||v||.  The third
        # coefficient is 3e-7 of the largest, below the old 1e-6 cutoff.
        rng = RngStream(253)
        B = rng.normal((20, 30))
        S = np.array([4, 11, 23])
        sigma = np.array([1.0, -1.0, 1.0])
        v = B[:, S] @ np.linalg.solve(B[:, S].T @ B[:, S], sigma)
        assert np.abs(np.delete(B.T @ v, S)).max() < 1.0
        x0 = np.zeros(30)
        x0[S] = sigma * np.array([1.0, 0.8, 3e-7])
        eps = 0.05
        y = B @ x0 + eps * v / np.linalg.norm(v)
        res = solve_l1_synthesis(B, y, eps)
        assert res.status == "converged"
        assert np.max(np.abs(res.x_hat - x0)) <= 1e-12
        x, certified = certified_optimum(B, y, eps, res.x_hat)
        assert certified
        assert np.array_equal(np.flatnonzero(x), S)
        assert np.max(np.abs(x - x0)) <= 1e-12


def _assert_kkt(B, y, eps, res):
    """The returned point meets the optimality conditions, with its dual vector
    rebuilt from the point alone: v = r / lam, lam = max|B^T r| (eps > 0 only)."""
    assert res.status == "converged"
    r = y - B @ res.x_hat
    assert np.linalg.norm(r) <= eps + 1e-9 * max(1.0, np.linalg.norm(y))
    if eps > 0.0 and np.any(res.x_hat):
        v = r / np.abs(B.T @ r).max()
        assert solver._kkt_holds(B, y, eps, res.x_hat, v)


def _assert_infeasible(B, y, eps):
    """The path's point fails the optimality check, and the distance test after
    it says 'infeasible', as the oracle's test before its path does."""
    res = solve_l1_synthesis(B, y, eps)
    assert res.status == solve_l1_synthesis_qr(B, y, eps).status == "infeasible"
    assert res.x_hat is None
    return res


def _against_oracle(B, y, eps):
    """Solve, assert KKT, and match the oracle: HiGHS at eps = 0, else the certified optimum."""
    res = solve_l1_synthesis(B, y, eps)
    _assert_kkt(B, y, eps, res)
    if eps == 0.0:
        assert res.objective == pytest.approx(bp_objective_oracle(B, y), abs=1e-9)
    else:
        x, certified = certified_optimum(B, y, eps, res.x_hat)
        assert certified
        assert np.max(np.abs(res.x_hat - x)) <= 1e-9
    assert res.iterations <= 4 * B.shape[1]
    return res


def _rademacher_problems():
    """Rademacher rows, identity dictionary (B = Phi), d = n = 20, s = 3: the
    paper's subgaussian case, whose +-1 entries tie correlations and steps."""
    rng = RngStream(270)
    spec = make_spec("rademacher", 20, width_constant=1.0)
    for m in (6, 8, 10, 12, 14, 16):
        for trial in range(10):
            sub = rng.substream(m, trial)
            B = sample_measurement_matrix(spec, m, sub)
            x0 = np.zeros(20)
            x0[np.sort(sub.permutation(20)[:3])] = sub.normal(3)
            yield B, B @ x0, sub.unit_vector(m)


# The support problem [Q2^T; g^T] z = e_4 of certify_nsp's LP route in its
# unnormalized form, for the integer-4x6 matrix of test_nsp.py at T = (1,).
# Its last row is +-0.2 throughout, so join events tie with the current lam.
# The column-major layout is part of the instance: BLAS rounds the products
# differently in row-major order, where the event lams happen to fall below lam.
TIED_BP = np.asfortranarray([
    [-0.5397635120884233, -0.5336322338264621, 0.533632233826462,
     -0.26375047778225036, 0.26375047778225036],
    [-0.5043091071049434, 0.08728298523016993, -0.08728298523016997,
     0.8394375387826416, 0.16056246121735845],
    [0.5043091071049435, -0.08728298523017006, 0.08728298523016993,
     0.16056246121735843, 0.8394375387826416],
    [0.2, -0.19999999999999996, 0.20000000000000015,
     0.20000000000000007, -0.20000000000000012],
])


class TestTieRule:
    """An event computed at or above the current lam happens at lam itself.

    Dropping such events instead ended the path early: 10 of these 120
    Rademacher solves, and the tied support problem, came back uncertified.
    """

    @pytest.mark.parametrize("eps", [0.0, 0.01])
    def test_rademacher_identity_batch_converges(self, eps):
        for B, y, u in _rademacher_problems():
            _against_oracle(B, y + eps * u, eps)

    def test_zero_length_leaves_do_not_cycle(self):
        # Basis pursuit on Rademacher rows where a ban that lasted one step let
        # two tied columns take turns joining and leaving at one lam, each
        # leave a zero-length step, until the 4 n cap returned 'uncertified':
        # the first six on a fresh QR per step, the last six on updated factors.
        spec = make_spec("rademacher", 20, width_constant=1.0)
        for seed, m, trial in ((1003, 8, 5), (1012, 6, 9), (1013, 8, 4),
                               (1017, 6, 1), (1017, 6, 9), (1019, 6, 1),
                               (1007, 14, 7), (1013, 8, 8), (1019, 6, 7),
                               (1025, 10, 9), (1030, 6, 7), (1042, 8, 9)):
            sub = RngStream(seed).substream(m, trial)
            B = sample_measurement_matrix(spec, m, sub)
            x0 = np.zeros(20)
            x0[np.sort(sub.permutation(20)[:3])] = sub.normal(3)
            _against_oracle(B, B @ x0, 0.0)

    def test_tied_support_problem(self):
        y = np.array([0.0, 0.0, 0.0, 1.0])
        res = _against_oracle(TIED_BP, y, 0.0)
        assert res.objective == pytest.approx(5.0, abs=1e-9)
        assert res.residual_norm <= 1e-12


def _splitting_problems():
    """The planted problems of TestSplitting: 6x12 at eps = 0.05, 20x40 noiseless."""
    for seed, m, n, s, eps, trials in ((84, 6, 12, 2, 0.05, 8), (85, 20, 40, 3, 0.0, 10)):
        rng = RngStream(seed)
        for trial in range(trials):
            sub = rng.substream(trial)
            B = sub.normal((m, n))
            x0 = np.zeros(n)
            x0[sub.permutation(n)[:s]] = sub.normal(s)
            yield B, (B @ x0 + eps * sub.unit_vector(m) if eps > 0.0 else B @ x0), eps


def _degenerate_problems():
    """Duplicated (the first 20 trials), zero and rank-deficient columns, as
    TestHomotopyDegenerateInputs builds them, and columns b_j + 1e-8 noise
    near a twin (eps > 0)."""
    for eps in (0.0, 0.05):
        rng = RngStream(260)
        for trial in range(20):
            sub = rng.substream(trial)
            twin = int(sub.integers(0, 11))
            B = sub.normal((6, 11))
            B = np.column_stack([B, B[:, twin]])
            x0 = np.zeros(12)
            x0[sub.permutation(12)[:2]] = sub.normal(2)
            yield B, B @ x0 + eps * sub.unit_vector(6), eps
        B, y = _planted(261, 8, 14, 2, eps)
        B[:, 5] = 0.0
        yield B, y, eps
        rng = RngStream(262)
        B = rng.normal((8, 4)) @ rng.normal((4, 14))
        x0 = np.zeros(14)
        x0[[2, 9]] = [1.5, -0.7]
        e = B @ rng.unit_vector(14)
        yield B, B @ x0 + eps * e / np.linalg.norm(e), eps
    rng = RngStream(264)
    for trial in range(40):
        sub = rng.substream(trial)
        B = sub.normal((8, 16))
        j, twin = sub.permutation(16)[:2]
        B[:, twin] = B[:, j] + 1e-8 * sub.normal(8)
        x0 = np.zeros(16)
        x0[sub.permutation(16)[:2]] = sub.normal(2)
        yield B, B @ x0 + 0.05 * sub.unit_vector(8), 0.05


def _record_joins(monkeypatch):
    """Record the factor size k at each solver._join call, one list per solve,
    and check the factors it leaves: Q orthonormal, R^-1 upper triangular,
    Q R's new column equal to b and z = Q^T y."""
    paths = []
    join = solver._join

    def spy(b, y, Q, Rinv, z, k):
        if k == 0:
            paths.append([])
        paths[-1].append(k)
        out = join(b, y, Q, Rinv, z, k)
        Qk, Rk = Q[:, :out], Rinv[:out, :out]
        assert np.abs(Qk.T @ Qk - np.eye(out)).max() <= 1e-12
        assert np.array_equal(np.triu(Rk), Rk)
        r = np.linalg.solve(Rk, np.eye(out)[:, k])  # last column of R = Rinv^-1
        assert np.linalg.norm(Qk @ r - b) <= 1e-10 * np.linalg.norm(b)
        assert np.abs(z[:out] - Qk.T @ y).max() <= 1e-12 * np.linalg.norm(y)
        return out

    monkeypatch.setattr(solver, "_join", spy)
    return paths


class TestUpdatedFactors:
    """The solver appends one Gram-Schmidt column per join and truncates and
    re-joins on a leave; oracles.solve_l1_synthesis_qr is the same path on a
    fresh QR and three LU solves per step.  Where lam moves on every step the
    two differ only in rounding."""

    @staticmethod
    def _same_path(B, y, eps):
        got, want = solve_l1_synthesis(B, y, eps), solve_l1_synthesis_qr(B, y, eps)
        assert (got.status, got.iterations) == (want.status, want.iterations)
        if want.x_hat is not None:
            tol = 1e-12 * max(1.0, float(np.abs(want.x_hat).sum()))
            assert np.abs(got.x_hat - want.x_hat).max() <= tol

    def test_same_paths_as_a_fresh_qr_per_step(self, monkeypatch):
        paths = _record_joins(monkeypatch)
        cases = [(B, y, eps) for B, y in _phase_problems() for eps in (0.0, 0.01)]
        cases += [*_splitting_problems(), *_degenerate_problems()]
        for B, y, eps in cases:
            self._same_path(B, y, eps)
        # a leave truncates the factors and re-joins the later columns, so the
        # sizes stop counting up by one; some of these paths do that
        leaves = [ks for ks in paths if ks != list(range(len(ks)))]
        assert leaves
        assert any(ks[i + 1] < ks[i] for ks in leaves for i in range(len(ks) - 1))

    @pytest.mark.parametrize("eps", [0.0, 0.01])
    def test_tied_paths_reach_the_same_optimum(self, eps):
        # Rademacher ties are broken by rounding, so the two routes may take
        # different steps; both certify, and the optimal value is the same
        for B, y, u in _rademacher_problems():
            got = solve_l1_synthesis(B, y + eps * u, eps)
            want = solve_l1_synthesis_qr(B, y + eps * u, eps)
            assert got.status == want.status == "converged"
            assert got.objective == pytest.approx(want.objective, abs=1e-9 * max(1.0, want.objective))


class TestHomotopyDegenerateInputs:
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_duplicated_column(self, eps):
        # a duplicate shares its twin's correlation, on and off the path
        rng = RngStream(260)
        for trial in range(100):
            sub = rng.substream(trial)
            twin = int(sub.integers(0, 11))
            B = sub.normal((6, 11))
            B = np.column_stack([B, B[:, twin]])
            x0 = np.zeros(12)
            x0[sub.permutation(12)[:2]] = sub.normal(2)
            y = B @ x0 + eps * sub.unit_vector(6)
            res = _against_oracle(B, y, eps)
            assert np.count_nonzero(res.x_hat[[twin, 11]]) <= 1, trial

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_zero_column(self, eps):
        B, y = _planted(261, 8, 14, 2, eps)
        B[:, 5] = 0.0
        res = _against_oracle(B, y, eps)
        assert res.x_hat[5] == 0.0

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_rank_deficient(self, eps):
        rng = RngStream(262)
        B = rng.normal((8, 4)) @ rng.normal((4, 14))  # rank 4 < m = 8
        x0 = np.zeros(14)
        x0[[2, 9]] = [1.5, -0.7]
        y = B @ x0
        if eps > 0.0:  # noise inside range(B), so the ball is reachable
            e = B @ rng.unit_vector(14)
            y = y + eps * e / np.linalg.norm(e)
        _against_oracle(B, y, eps)

    def test_square_noiseless(self):
        # m = n, as criteria 6 and 8 solve with an identity dictionary
        for seed, s in itertools.product(range(263, 268), (2, 10)):
            B, y = _planted(seed, 10, 10, s, 0.0)
            res = _against_oracle(B, y, 0.0)
            assert np.linalg.norm(res.x_hat - np.linalg.solve(B, y)) <= 1e-9

    def test_overdetermined_above_distance(self):
        rng = RngStream(268)
        B = rng.normal((12, 6))
        y = rng.normal(12)
        fit, *_ = np.linalg.lstsq(B, y, rcond=None)
        dist = float(np.linalg.norm(y - B @ fit))
        for eps in (1.05 * dist, 0.5 * (dist + np.linalg.norm(y))):
            res = _against_oracle(B, y, eps)
            assert res.residual_norm == pytest.approx(eps, abs=1e-12)

    def test_zero_measurements_give_zero(self):
        B = RngStream(269).normal((6, 12))
        for eps in (0.0, 0.1):
            res = solve_l1_synthesis(B, np.zeros(6), eps)
            _assert_kkt(B, np.zeros(6), eps, res)
            assert not np.any(res.x_hat) and res.iterations == 0

    def test_ball_around_the_origin_gives_zero(self):
        B, y = _planted(270, 6, 12, 2, 0.0)
        for eps in (float(np.linalg.norm(y)), 2.0 * float(np.linalg.norm(y))):
            res = solve_l1_synthesis(B, y, eps)
            _assert_kkt(B, y, eps, res)
            assert not np.any(res.x_hat) and res.iterations == 0

    def test_infeasible_ball(self):
        rng = RngStream(271)
        B = rng.normal((12, 6))
        y = rng.normal(12)
        fit, *_ = np.linalg.lstsq(B, y, rcond=None)
        dist = float(np.linalg.norm(y - B @ fit))
        assert _assert_infeasible(B, y, 0.9 * dist).iterations > 0

    def test_perturbed_point_is_uncertified(self):
        B, y = _planted(272, 10, 18, 2, 0.05)
        res = solve_l1_synthesis(B, y, 0.05)
        r = y - B @ res.x_hat
        lam = float(np.abs(B.T @ r).max())
        assert solver._kkt_holds(B, y, 0.05, res.x_hat, r / lam)
        inactive = int(np.flatnonzero(res.x_hat == 0.0)[0])
        for delta in (1e-6 * np.eye(18)[inactive], 1e-6 * res.x_hat):
            x = res.x_hat + delta
            assert not solver._kkt_holds(B, y, 0.05, x, (y - B @ x) / lam)
        # so does the optimum with its dual vector scaled off dual feasibility
        assert not solver._kkt_holds(B, y, 0.05, res.x_hat, 1.01 * r / lam)

    def test_failed_check_reports_uncertified(self, monkeypatch):
        B, y = _planted(273, 8, 16, 2, 0.05)
        certified = solve_l1_synthesis(B, y, 0.05)
        monkeypatch.setattr(solver, "_kkt_holds", lambda *args: False)
        res = solve_l1_synthesis(B, y, 0.05)
        assert res.status == "uncertified"
        assert res.x_hat.tobytes() == certified.x_hat.tobytes()  # the point is still returned

    def test_distance_to_range_only_after_a_failed_check(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def spy(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        for B, y in _phase_problems():
            assert solve_l1_synthesis(B, y, 0.01).status == "converged"
        assert not calls
        res = solve_l1_synthesis(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0]))
        assert res.status == "infeasible" and len(calls) == 1

    def test_tiny_ball_around_a_noiseless_point(self):
        # At a small final lam, r = y - B x is a cancellation, and its rounding
        # over lam broke dual feasibility: the dual vector comes from the factors.
        for trial in range(20):
            sub = RngStream(300).substream(trial)
            B = sub.normal((8, 16))
            x0 = np.zeros(16)
            x0[sub.permutation(16)[:2]] = sub.normal(2)
            y = B @ x0
            for eps in (1e-13, 1e-11, 1e-9, 1e-7):
                res = solve_l1_synthesis(B, y, eps)
                assert res.status == "converged", (trial, eps)
                assert res.residual_norm <= eps + 1e-9 * max(1.0, np.linalg.norm(y))
                assert res.objective <= np.abs(x0).sum() + 1e-9
                want = solve_l1_synthesis_qr(B, y, eps)  # same path, same point
                assert np.abs(res.x_hat - want.x_hat).max() <= 1e-12 * max(1.0, want.objective)


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
            res = solve_l1_synthesis(B, B @ x0)
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
        res = solve_l1_synthesis(B, B @ x0)
        assert np.max(np.abs(res.x_hat - x0)) > 1e-6
