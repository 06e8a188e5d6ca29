import math

import numpy as np
import pytest

from nsplab.errors import DomainError
from nsplab.rng import RngStream
from nsplab.subgaussian import make_spec, sample_measurement_matrix
from oracles import small_ball_lower_bound, spec_to_json, verify_tail


def normal_cdf(t):
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


class TestMakeSpec:
    def test_std_gaussian_parameters(self):
        spec = make_spec("std_gaussian", 5)
        assert spec.alpha == pytest.approx(0.7978845608, abs=1e-9)
        assert spec.sigma == 1.0
        assert spec.width_constant == 1.0

    def test_diagonal_covariance(self):
        spec = make_spec("gaussian_sigma", 2, covariance=np.diag([4.0, 1.0]))
        assert spec.alpha == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)
        assert spec.sigma == pytest.approx(2.0, abs=1e-12)
        assert spec.kappa == pytest.approx(4.0, rel=1e-10)

    def test_identity_covariance_matches_std(self):
        spec = make_spec("gaussian_sigma", 3, covariance=np.eye(3))
        std = make_spec("std_gaussian", 3)
        assert spec.alpha == pytest.approx(std.alpha, abs=1e-12)
        assert spec.sigma == pytest.approx(std.sigma, abs=1e-12)

    def test_rademacher_needs_explicit_C(self):
        with pytest.raises(DomainError):
            make_spec("rademacher", 4)
        spec = make_spec("rademacher", 4, width_constant=2.0)
        assert spec.alpha == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert spec.sigma == 1.0
        assert spec.width_constant == 2.0

    def test_isotropic_kinds_have_kappa_one(self):
        assert make_spec("std_gaussian", 5).kappa == 1.0
        assert make_spec("rademacher", 5, width_constant=1.0).kappa == 1.0

    @pytest.mark.parametrize("d", [5, 12])
    def test_kappa_matches_eigvalsh_ratio(self, d):
        A = RngStream(20 + d).normal((d, d))
        S = A @ A.T + 0.1 * np.eye(d)
        evals = np.linalg.eigvalsh(S)
        spec = make_spec("gaussian_sigma", d, covariance=S)
        assert spec.kappa == pytest.approx(evals[-1] / evals[0], rel=1e-12)

    def test_rejects_non_spd_covariance(self):
        with pytest.raises(DomainError):
            make_spec("gaussian_sigma", 2, covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(DomainError):
            make_spec("gaussian_sigma", 2, covariance=np.array([[1.0, 0.5], [0.4, 1.0]]))


class TestSampling:
    def test_determinism(self):
        spec = make_spec("std_gaussian", 3)
        a = sample_measurement_matrix(spec, 2, RngStream(0))
        b = sample_measurement_matrix(spec, 2, RngStream(0))
        assert np.array_equal(a, b)

    def test_rademacher_support(self):
        spec = make_spec("rademacher", 4, width_constant=1.0)
        phi = sample_measurement_matrix(spec, 4, RngStream(1))
        assert set(np.unique(phi)) <= {-1.0, 1.0}

    @pytest.mark.parametrize(
        "kind, kwargs",
        [
            ("std_gaussian", {}),
            ("gaussian_sigma", {"covariance": np.diag([4.0, 1.0, 0.5])}),
            ("rademacher", {"width_constant": 1.0}),
        ],
    )
    def test_shape_takes_dimension_from_spec(self, kind, kwargs):
        spec = make_spec(kind, 3, **kwargs)
        assert sample_measurement_matrix(spec, 5, RngStream(3)).shape == (5, spec.dim)

    def test_rejects_m_below_one(self):
        with pytest.raises(DomainError, match="m must be at least 1"):
            sample_measurement_matrix(make_spec("std_gaussian", 3), 0, RngStream(0))

    def test_empirical_covariance(self):
        spec = make_spec("gaussian_sigma", 2, covariance=np.diag([4.0, 1.0]))
        phi = sample_measurement_matrix(spec, 100_000, RngStream(2))
        emp = phi.T @ phi / phi.shape[0]
        assert np.allclose(emp, np.diag([4.0, 1.0]), rtol=0.05, atol=0.05)


class TestSmallBall:
    def test_half_alpha_value(self):
        spec = make_spec("std_gaussian", 4)
        got = small_ball_lower_bound(spec, spec.alpha / 2.0)
        assert got == pytest.approx((spec.alpha / 2.0) ** 2 / 4.0, rel=1e-12)
        assert got == pytest.approx(0.0397887, abs=1e-6)

    def test_boundary_limit(self):
        spec = make_spec("std_gaussian", 4)
        assert small_ball_lower_bound(spec, spec.alpha * (1 - 1e-9)) < 1e-15

    def test_domain(self):
        spec = make_spec("std_gaussian", 4)
        for bad in (0.0, spec.alpha, 2.0):
            with pytest.raises(DomainError):
                small_ball_lower_bound(spec, bad)

    def test_monte_carlo_dominates_bound(self):
        # empirical Pr(|<phi, z>| >= alpha/2) matches the normal tail and
        # sits far above the small-ball lower bound
        spec = make_spec("std_gaussian", 6)
        t = spec.alpha / 2.0
        z = RngStream(3).unit_vector(6)
        phi = sample_measurement_matrix(spec, 200_000, RngStream(4))
        emp = float((np.abs(phi @ z) >= t).mean())
        expected = 2.0 * (1.0 - normal_cdf(t))
        assert emp == pytest.approx(expected, abs=0.005)
        assert emp >= small_ball_lower_bound(spec, t)


class TestVerifyTail:
    def test_rejects_non_unit_z(self):
        spec = make_spec("std_gaussian", 3)
        with pytest.raises(DomainError):
            verify_tail(spec, np.array([1.0, 1.0, 0.0]), [1.0], 100, RngStream(0))

    def test_vacuous_bound_at_t1(self):
        spec = make_spec("std_gaussian", 3)
        z = np.array([1.0, 0, 0])
        [(t, emp, bound, se)] = verify_tail(spec, z, [1.0], 10_000, RngStream(5))
        assert bound == pytest.approx(2.0 * math.exp(-0.5), rel=1e-12)
        assert bound > 1.0
        assert emp <= bound + 3.0 * se

    def test_std_gaussian_t3(self):
        spec = make_spec("std_gaussian", 4)
        z = RngStream(6).unit_vector(4)
        [(t, emp, bound, se)] = verify_tail(spec, z, [3.0], 400_000, RngStream(7))
        assert emp == pytest.approx(2.0 * (1.0 - normal_cdf(3.0)), abs=5e-4)
        assert emp <= bound
        assert emp <= bound + 3.0 * se

    def test_anisotropic_direction(self):
        # <phi, e1> ~ N(0, 4): tail at t=6 is the 3-sigma normal tail
        spec = make_spec("gaussian_sigma", 2, covariance=np.diag([4.0, 1.0]))
        z = np.array([1.0, 0.0])
        [(t, emp, bound, se)] = verify_tail(spec, z, [6.0], 400_000, RngStream(8))
        assert bound == pytest.approx(2.0 * math.exp(-36.0 / 8.0), rel=1e-12)
        assert emp == pytest.approx(2.0 * (1.0 - normal_cdf(3.0)), abs=5e-4)
        assert emp <= bound + 3.0 * se

    def test_all_kinds_pass_on_sigma_grid(self):
        z4 = RngStream(9).unit_vector(4)
        for kind, kwargs in (
            ("std_gaussian", {}),
            ("gaussian_sigma", {"covariance": np.diag([4.0, 1.0, 0.5, 2.0])}),
            ("rademacher", {"width_constant": 1.0}),
        ):
            spec = make_spec(kind, 4, **kwargs)
            grid = [0.5 * spec.sigma, spec.sigma, 2 * spec.sigma, 3 * spec.sigma]
            points = verify_tail(spec, z4, grid, 200_000, RngStream(10).substream(kind))
            for t, emp, bound, se in points:
                assert emp <= bound + 3.0 * se, (kind, points)


def test_first_moment_matches_alpha_for_std_gaussian():
    spec = make_spec("std_gaussian", 5)
    phi = sample_measurement_matrix(spec, 1_000_000, RngStream(11))
    rng = RngStream(12)
    se = math.sqrt((1.0 - 2.0 / math.pi) / phi.shape[0])
    for k in range(20):
        z = rng.substream(k).unit_vector(5)
        emp = float(np.abs(phi @ z).mean())
        assert abs(emp - spec.alpha) <= 3.0 * se


def test_json_round(tmp_path):
    spec = make_spec("gaussian_sigma", 2, covariance=np.diag([2.0, 1.0]))
    d = spec_to_json(spec, covariance_path="cov.txt")
    assert d["kind"] == "gaussian_sigma"
    assert d["C"] == 1.0
    assert d["covariance_path"] == "cov.txt"
