import math

import numpy as np
import pytest

from nsplab.dictionary import make_dictionary
from nsplab.errors import DomainError
from nsplab.nsp import SgammaParams
from nsplab.numerics import nonincreasing_rearrangement, operator_norm
from nsplab.rng import RngStream
from nsplab.width import (
    _MC_BLOCK,
    _projection_values,
    cone_projection_values,
    crude_width_bound,
    theory_width_bound,
    unit_ball_width,
    width_DS_gamma_mc,
)
from oracles import (
    check_lemma_key,
    check_slepian_contraction,
    check_soft_moment,
    cone_normal,
    dykstra_projection,
    project_cone_batch,
    project_draw_major_min_over_q,
    record_projection_calls,
    soft_moment_quadrature,
)


# Raw signed rows, listed before rearrangement.
DEGENERATE = {
    "ties": (SgammaParams(0.6, 2), [1.0, -0.5, 2.0, 2.0, 1.0, 2.0]),
    "all-tied": (SgammaParams(0.6, 2), [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    "s=n": (SgammaParams(0.4, 5), [-1.0, 2.0, 0.5, -3.0, 0.0]),
    "gamma=1": (SgammaParams(1.0, 2), [0.3, -1.0, 2.0, 1.5, -0.2]),
    "n=1": (SgammaParams(1.0, 1), [-0.7]),
    "in-K": (SgammaParams(0.5, 1), [3.0, 1.0, 0.5, 0.2]),  # lambda* = 0
    "all-negative": (SgammaParams(0.7, 2), [-1.0, -0.2, -3.0, -0.1, -2.0]),
}


def max_abs_normal_quadrature(n, grid=900_001, upper=9.0):
    """Independent oracle: E max_i |g_i| = int_0^inf 1 - (2 Phi(t) - 1)^n dt."""
    t = np.linspace(0.0, upper, grid)
    Phi = 0.5 * (1.0 + np.vectorize(math.erf)(t / math.sqrt(2.0)))
    return float(np.trapezoid(1.0 - (2.0 * Phi - 1.0) ** n, t))


def sample_cone_sphere(p, n, count, rng):
    """Random points of K cap S^{n-1} by rejection from the orthant."""
    a = cone_normal(p, n)
    chunks = []
    have = 0
    while have < count:
        pts = np.abs(rng.normal((count * 2 + 64, n)))
        pts = pts[pts @ a >= 0.0]
        chunks.append(pts)
        have += pts.shape[0]
    pts = np.vstack(chunks)[:count]
    return pts / np.linalg.norm(pts, axis=1)[:, None]


class TestUnitBallWidth:
    def test_small_n(self):
        assert unit_ball_width(2) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
        assert unit_ball_width(1) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_order_sqrt_n(self):
        assert abs(unit_ball_width(10_000) - math.sqrt(10_000)) < 0.01


class TestProjection:
    """project_cone_batch on rearranged rows: nonnegative, largest first."""

    def test_fixed_point_inside_cone(self):
        c = SgammaParams(0.5, 1)
        h = np.array([3.0, 1.0, 0.5, 0.2])  # head 3 >= 0.5 * 1.7
        assert np.allclose(project_cone_batch(h, c)[0], h, atol=1e-9)

    def test_three_dimensional_closed_form(self):
        # phi(lam) = (1 + lam) - 2 (1 - lam) vanishes at lam* = 1/3
        p = project_cone_batch(np.ones(3), SgammaParams(1.0, 1))[0]
        assert np.allclose(p, [4.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0], atol=1e-9)

    def test_kkt_and_distance_dominance(self):
        rng = RngStream(43)
        cases = []
        for trial in range(12):
            sub = rng.substream(trial)
            n = int(sub.integers(2, 8))
            s = int(sub.integers(1, n + 1))
            c = SgammaParams(float(sub.uniform() * 0.9 + 0.1), s)
            cases.append((c, nonincreasing_rearrangement(sub.normal(n) * 2.0), sub))
        for i, (c, h) in enumerate(DEGENERATE.values()):
            cases.append((c, nonincreasing_rearrangement(h), rng.substream("degenerate", i)))
        for c, h, sub in cases:
            u = project_cone_batch(h, c)[0]
            assert np.allclose(u, dykstra_projection(h, c)[0], rtol=0.0, atol=1e-9)
            a = cone_normal(c, h.size)
            assert np.all(u >= -1e-9)
            assert a @ u >= -1e-9
            # obtuseness at the projection
            assert abs((h - u) @ u) <= 1e-7 * max(np.linalg.norm(h), 1.0)
            V = sample_cone_sphere(c, h.size, 1000, sub.substream("feas"))
            V = V * (sub.uniform((V.shape[0], 1)) * 3.0)  # feasible points of any radius
            dists = np.linalg.norm(V - h, axis=1)
            assert np.linalg.norm(h - u) <= dists.min() + 1e-7

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 14, 29, 56])
    def test_one_binding_row_has_the_bits_of_the_min_over_q(self, n):
        rng = RngStream(71, n)
        H = rng.normal((60, n)) * 10.0 ** (6.0 * rng.uniform((60, 1)) - 3.0)
        H[::4, ::3] = 0.0                          # zeros inside rows
        H[1::4] = np.round(H[1::4] * 2.0) / 2.0    # ties, and zeros where |h| < 1/4
        H[2::4, n // 2 :] = H[2::4, :1]            # a run of one magnitude
        H[3] = 0.0
        H[7] = 1.0
        Hstar = nonincreasing_rearrangement(H)
        for s in range(1, n + 1):
            for gamma in (0.1, 0.5, 0.9, 1.0):
                c = SgammaParams(gamma, s)
                got = project_cone_batch(Hstar, c)
                want = project_draw_major_min_over_q(Hstar.T.copy(), c).T
                assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (s, gamma)

    def test_sup_identity_versus_direct_sampling(self):
        # sup over K cap sphere of <h*, u> equals the projection norm; checked
        # against direct maximization over many random cone points (n <= 4)
        rng = RngStream(44)
        for trial in range(6):
            sub = rng.substream(trial)
            n = int(sub.integers(2, 5))
            s = int(sub.integers(1, n + 1))
            c = SgammaParams(float(sub.uniform() * 0.9 + 0.1), s)
            hstar = np.sort(np.abs(sub.normal(n)))[::-1]
            proj_norm = float(np.linalg.norm(project_cone_batch(hstar, c)[0]))
            U = sample_cone_sphere(c, n, 1_000_000, sub.substream("pts"))
            sampled = float((U @ hstar).max())
            assert sampled <= proj_norm + 1e-9
            assert proj_norm - sampled <= 0.02 * max(proj_norm, 1e-9)


class TestProjectionValues:
    """cone_projection_values on raw signed rows, several to a call."""

    @staticmethod
    def check_block(H, c):
        got = cone_projection_values(H, c)
        Hstar = nonincreasing_rearrangement(np.atleast_2d(H))
        same = np.linalg.norm(project_cone_batch(Hstar, c), axis=1)
        assert got.tobytes() == same.tobytes()
        oracle = np.linalg.norm(dykstra_projection(Hstar, c), axis=1)
        assert np.max(np.abs(got - oracle)) <= 1e-9
        return got

    @pytest.mark.parametrize("case", list(DEGENERATE))
    def test_degenerate_rows_in_one_block(self, case):
        c, h = DEGENERATE[case]
        h = np.array(h)
        spike = np.zeros(h.size)
        spike[-1] = -10.0  # in K: lambda* = 0
        H = np.vstack([h, -h[::-1], 2.5 * h, spike, np.ones(h.size), h])
        got = self.check_block(H, c)
        assert got[0] == got[1] == got[-1]
        in_cone = nonincreasing_rearrangement(H) @ cone_normal(c, h.size) >= 0.0
        assert in_cone[3]
        if c.s < h.size:  # the all-ones row lies outside K: lambda* > 0
            assert not in_cone[4]

    def test_one_dimensional_input(self):
        c, h = DEGENERATE["ties"]
        got = self.check_block(np.array(h), c)
        assert got.shape == (1,)
        assert got.tobytes() == cone_projection_values(np.array([h, h]), c)[:1].tobytes()

    def test_long_rows_sum_in_norm_order(self):
        # n >= 8: np.linalg.norm sums a row pairwise, not left to right
        H = RngStream(67).normal((300, 29))
        for c in (SgammaParams(0.5, 2), SgammaParams(0.9, 29)):
            self.check_block(H, c)

    def test_s_above_n_refused_by_both_entry_points(self):
        c = SgammaParams(1.0, 3)
        for route in (cone_projection_values, project_cone_batch):
            with pytest.raises(DomainError, match="^s = 3 exceeds the row length n = 2$"):
                route(np.ones((4, 2)), c)


class TestWidthEstimators:
    def test_identity_full_sphere_matches_gamma_formula(self):
        for n in (2, 5):
            D = make_dictionary("identity", n, n)
            est = width_DS_gamma_mc(D.matrix, SgammaParams(1.0, n), 40_000, RngStream(45 + n))
            expect = unit_ball_width(n)
            assert abs(est.mean - expect) <= 3.0 * est.std_error

    def test_zero_dictionary(self):
        est = width_DS_gamma_mc(np.zeros((3, 6)), SgammaParams(0.5, 2), 200, RngStream(46))
        assert est.mean == 0.0

    def test_identity_below_theory_bound(self):
        D = make_dictionary("identity", 10, 10)
        c = SgammaParams(1.0, 1)
        est = width_DS_gamma_mc(D.matrix, c, 20_000, RngStream(47))
        assert est.mean <= theory_width_bound(c, 10, D.rho) + 3.0 * est.std_error

    def test_requires_minimum_samples(self):
        D = make_dictionary("identity", 2, 2)
        with pytest.raises(DomainError):
            width_DS_gamma_mc(D.matrix, SgammaParams(1.0, 1), 50, RngStream(0))
        with pytest.raises(DomainError, match="s = 3 exceeds the row length n = 2"):
            width_DS_gamma_mc(D.matrix, SgammaParams(1.0, 3), 100, RngStream(0))

    def test_dual_zero_vector(self):
        c = SgammaParams(0.5, 1)
        got = cone_projection_values(np.zeros((1, 4)), c)[0]
        assert got == 0.0
        assert np.linalg.norm(dykstra_projection(np.zeros((1, 4)), c)) <= 1e-9

    def test_dual_no_tail_reduces_to_norm(self):
        c = SgammaParams(1.0, 4)
        hstar = np.sort(np.abs(RngStream(48).normal(4)))[::-1]
        got = cone_projection_values(hstar[None, :], c)[0]
        assert abs(got - np.linalg.norm(dykstra_projection(hstar, c))) <= 1e-9
        assert got == pytest.approx(float(np.linalg.norm(hstar)), abs=1e-9)

    def test_per_sample_duality_on_shared_draws(self):
        rng = RngStream(49)
        D = make_dictionary("gaussian_unit_norm", 5, 10, rng.substream("dict"))
        c = SgammaParams(0.5, 2)
        H = rng.substream("g").normal((5000, 5)) @ D.matrix
        Hstar = np.sort(np.abs(H), axis=1)[:, ::-1]
        cone_vals = cone_projection_values(H, c)
        oracle_vals = np.linalg.norm(dykstra_projection(Hstar, c), axis=1)
        assert np.max(np.abs(cone_vals - oracle_vals)) <= 1e-9

    def test_dual_mean_dominates_mc_mean_shared_randomness(self):
        # width_DS_gamma_mc draws its 2000 rows in one block from the stream
        D = make_dictionary("gaussian_unit_norm", 5, 10, RngStream(50))
        c = SgammaParams(0.5, 2)
        mc = width_DS_gamma_mc(D.matrix, c, 2000, RngStream(51))
        Hstar = nonincreasing_rearrangement(RngStream(51).normal((2000, 5)) @ D.matrix)
        oracle_mean = float(np.linalg.norm(dykstra_projection(Hstar, c), axis=1).mean())
        assert abs(mc.mean - oracle_mean) <= 1e-9

    def test_monotone_in_s_and_gamma_at_fixed_randomness(self):
        D = make_dictionary("gaussian_unit_norm", 6, 12, RngStream(52))
        means_s = [
            width_DS_gamma_mc(D.matrix, SgammaParams(0.8, s), 2000, RngStream(53)).mean
            for s in (1, 2, 3)
        ]
        assert means_s[0] <= means_s[1] <= means_s[2]
        means_g = [
            width_DS_gamma_mc(D.matrix, SgammaParams(g, 2), 2000, RngStream(53)).mean
            for g in (1.0, 0.9, 0.5)
        ]
        assert means_g[0] <= means_g[1] <= means_g[2]

    def test_estimate_fields(self):
        D = make_dictionary("identity", 2, 2)
        est = width_DS_gamma_mc(D.matrix, SgammaParams(1.0, 1), 200, RngStream(54))
        assert 0.0 < est.mean and 0.0 < est.std_error
        assert est.mean <= theory_width_bound(SgammaParams(1.0, 1), 2, D.rho) + 3.0 * est.std_error


class TestTheoryBounds:
    def test_closed_form_values(self):
        got = theory_width_bound(SgammaParams(1.0, 1), 10, 1.0)
        assert got == pytest.approx(6.0 * math.sqrt(math.log(math.sqrt(2.0) * 10.0)), rel=1e-12)
        assert got == pytest.approx(9.7657, abs=2e-4)
        assert theory_width_bound(SgammaParams(0.5, 1), 10, 1.0) == pytest.approx(2 * got, rel=1e-12)
        got2 = theory_width_bound(SgammaParams(1.0, 2), 10, 4.0)
        assert got2 == pytest.approx(
            6.0 * math.sqrt(2.0 * 4.0 * math.log(math.sqrt(2.0) * 5.0)), rel=1e-12
        )
        assert got2 == pytest.approx(23.73, abs=5e-3)

    def test_crude_bound(self):
        D = make_dictionary("identity", 2, 2)
        assert crude_width_bound(D.matrix) == pytest.approx(2.0 * unit_ball_width(2), rel=1e-10)
        assert crude_width_bound(np.zeros((2, 2))) == 0.0
        assert crude_width_bound(3.0 * np.eye(2)) == pytest.approx(6.0 * unit_ball_width(2), rel=1e-8)
        # n is the dictionary's column count, not d
        G = make_dictionary("gaussian_unit_norm", 10, 14, RngStream(0))
        op_norm = operator_norm(G.matrix)
        assert crude_width_bound(G.matrix) == pytest.approx(2.0 * op_norm * unit_ball_width(14), rel=1e-12)


class TestSoftMoment:
    def test_matches_quadrature_oracle(self):
        empirical, bound, std_error = check_soft_moment(1.0, 1.0, 300_000, RngStream(55))
        oracle = soft_moment_quadrature(1.0, 1.0)
        assert oracle == pytest.approx(0.1506796, abs=1e-6)  # frozen oracle value
        assert abs(empirical - oracle) <= 3.0 * std_error
        assert bound == pytest.approx(0.2935253, abs=1e-6)
        assert empirical <= bound + 3.0 * std_error

    def test_large_threshold_kills_everything(self):
        empirical, bound, std_error = check_soft_moment(1.0, 8.0, 100_000, RngStream(56))
        assert empirical <= 1e-10
        assert empirical <= bound + 3.0 * std_error

    def test_scale_law(self):
        # S_t(sigma a) = sigma S_{t/sigma}(a): second moments scale by sigma^2
        a_empirical, a_bound, _ = check_soft_moment(2.0, 2.0, 400_000, RngStream(57))
        b_empirical, b_bound, _ = check_soft_moment(1.0, 1.0, 400_000, RngStream(57))
        assert a_empirical == pytest.approx(4.0 * b_empirical, rel=0.03)
        assert a_bound == pytest.approx(4.0 * b_bound, rel=1e-12)


class TestLemmaKey:
    def test_zero_dictionary(self):
        empirical, bound, std_error = check_lemma_key(np.zeros((3, 5)), 1, 1000, RngStream(58))
        assert empirical == 0.0
        assert empirical <= bound + 3.0 * std_error

    def test_identity_max_abs_normal(self):
        D = make_dictionary("identity", 10, 10)
        empirical, bound, std_error = check_lemma_key(D.matrix, 1, 200_000, RngStream(59))
        oracle = max_abs_normal_quadrature(10)
        assert oracle == pytest.approx(1.8807, abs=2e-4)  # frozen oracle value
        assert abs(empirical - oracle) <= 3.0 * std_error
        assert bound == pytest.approx(3.2552473, abs=1e-6)
        assert empirical <= bound + 3.0 * std_error

    def test_column_scaling_homogeneity(self):
        rng = RngStream(60)
        M = rng.normal((4, 8))
        empirical1, bound1, _ = check_lemma_key(M, 2, 50_000, RngStream(61))
        empirical2, bound2, _ = check_lemma_key(2.0 * M, 2, 50_000, RngStream(61))
        assert empirical2 == pytest.approx(2.0 * empirical1, rel=1e-9)
        assert bound2 == pytest.approx(2.0 * bound1, rel=1e-12)


class TestSlepian:
    def test_identity_equality(self):
        pts = RngStream(62).normal((20, 4))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        lhs, rhs, lhs_std_error, rhs_std_error = check_slepian_contraction(
            np.eye(4), pts, 20_000, RngStream(63)
        )
        assert lhs == pytest.approx(rhs, rel=1e-9)
        slack = 3.0 * math.hypot(lhs_std_error, rhs_std_error)
        assert lhs <= rhs + slack

    def test_scaling_equality(self):
        pts = RngStream(64).normal((10, 3))
        lhs, rhs, lhs_std_error, rhs_std_error = check_slepian_contraction(
            2.0 * np.eye(3), pts, 20_000, RngStream(65)
        )
        assert lhs == pytest.approx(rhs, rel=1e-7)
        slack = 3.0 * math.hypot(lhs_std_error, rhs_std_error)
        assert lhs <= rhs + slack

    def test_random_rectangular(self):
        rng = RngStream(66)
        F = rng.normal((3, 5))
        pts = rng.normal((20, 5))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        lhs, rhs, lhs_std_error, rhs_std_error = check_slepian_contraction(
            F, pts, 50_000, rng.substream("mc")
        )
        slack = 3.0 * math.hypot(lhs_std_error, rhs_std_error)
        assert lhs <= rhs + slack


class TestBlockedProducts:
    # d = 10, n = 14: blocks of 2**18 // 140 = 1872 rows.  For such narrow
    # shapes BLAS gives each row of G @ M the same bits whatever the row
    # count; README "Numerical notes" names the wider shapes where it does not.

    def test_blocks_with_a_remainder_match_one_product(self, monkeypatch):
        rng = RngStream(55)
        M = make_dictionary("gaussian_unit_norm", 10, 14, rng.substream("dict")).matrix
        c = SgammaParams(0.5, 2)
        G = rng.substream("g").normal((5000, 10))
        expected = cone_projection_values(G @ M, c)
        seen = record_projection_calls(monkeypatch)
        out = np.empty(5000)
        _projection_values(G, M, c, out)
        assert [v.size for v in seen] == [1872, 1872, 1256]
        assert out.tobytes() == expected.tobytes()

    def test_estimator_over_several_draw_blocks(self, monkeypatch):
        M = make_dictionary("gaussian_unit_norm", 10, 14, RngStream(56)).matrix
        c = SgammaParams(0.8, 1)
        samples = _MC_BLOCK + 1234
        replay = RngStream(57)
        G = np.vstack([replay.normal((_MC_BLOCK, 10)), replay.normal((1234, 10))])
        v = cone_projection_values(G @ M, c)
        seen = record_projection_calls(monkeypatch)
        est = width_DS_gamma_mc(M, c, samples, RngStream(57))
        assert len(seen) == 11 + 1  # 20000 = 10 * 1872 + 1280, then 1234
        assert np.concatenate(seen).tobytes() == v.tobytes()
        assert est.mean == float(v.mean())
        assert est.std_error == float(v.std(ddof=1) / math.sqrt(samples))
