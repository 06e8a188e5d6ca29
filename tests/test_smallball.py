import math

import numpy as np
import pytest

from nsplab.dictionary import make_dictionary
from nsplab.errors import DomainError
from nsplab.nsp import SgammaParams
from nsplab.rng import RngStream
from nsplab.smallball import (
    FORMULA_IDS,
    BoundInputs,
    bounds_table,
    estimate_Q,
    estimate_W,
    m_min,
    mendelson_lower_bound,
    success_probability,
    success_rate,
)
from nsplab.subgaussian import make_spec, sample_measurement_matrix
from nsplab.width import cone_projection_values, width_DS_gamma_mc
from oracles import mp_m_min, mp_rate, record_projection_calls, small_ball_lower_bound


STD_ALPHA = math.sqrt(2.0 / math.pi)


def std_inputs(**over):
    base = dict(eta=1.0, gamma=0.5, rho=1.0, alpha=STD_ALPHA, sigma=1.0, C=1.0, s=2, n=100, kappa=1.0)
    base.update(over)
    return BoundInputs(**base)


class TestFormulas:
    def test_twelve_digit_reproduction(self):
        b = std_inputs()
        for fid in FORMULA_IDS:
            got = m_min(fid, b, width=3.0 if fid == "thm_S" else None)
            want = float(
                mp_m_min(fid, 1.0, 0.5, 1.0, STD_ALPHA, 1.0, 1.0, 2, 100, kappa=1.0, width=3.0)
            )
            assert got == pytest.approx(want, rel=1e-12), fid
            rate = success_rate(fid, b)
            assert rate == pytest.approx(float(mp_rate(fid, STD_ALPHA, 1.0, kappa=1.0)), rel=1e-12)

    def test_headline_magnitudes(self):
        b = std_inputs()
        assert m_min("cor_sgauss", b) == pytest.approx(3.115e8, rel=2e-3)
        assert m_min("thm_main_gauss", b) == pytest.approx(3.336e6, rel=2e-3)
        # standard Gaussian rows make the general formula match cor_sgauss exactly
        assert m_min("thm_main", b) == pytest.approx(m_min("cor_sgauss", b), rel=1e-12)
        assert success_rate("thm_main", b) == pytest.approx(success_rate("cor_sgauss", b), rel=1e-12)

    def test_width_form(self):
        b = std_inputs()
        assert m_min("thm_S", b, width=0.0) == 0.0
        with pytest.raises(DomainError):
            m_min("thm_S", b)

    def test_kappa_requirements(self):
        b = std_inputs(kappa=None)
        with pytest.raises(DomainError):
            m_min("cor_non", b)
        with pytest.raises(DomainError):
            m_min("thm_main_gauss", b)

    def test_probability_examples(self):
        b = std_inputs()
        m_half = 128.0 * math.e * math.pi * math.log(2.0)
        assert success_probability("thm_main_gauss", b, int(round(m_half))) == pytest.approx(0.5, abs=2e-4)
        assert int(round(m_half)) == 758
        m90 = int(round(4.0**5 * math.pi**2 * math.log(10.0)))
        assert m90 == pytest.approx(23270, abs=1)
        assert success_probability("cor_sgauss", b, m90) == pytest.approx(0.9, abs=1e-5)

    def test_probability_vanishes_at_tiny_m(self):
        b = std_inputs()
        for fid in FORMULA_IDS:
            assert success_probability(fid, b, 1) < 0.01

    def test_cor_non_rate_as_printed_grows_with_kappa(self):
        # implemented digit-for-digit; see the module docstring for the caveat
        lo = success_rate("cor_non", std_inputs(kappa=1.0))
        hi = success_rate("cor_non", std_inputs(kappa=4.0))
        assert hi == pytest.approx(16.0 * lo, rel=1e-12)

    def test_homogeneity(self):
        b1 = std_inputs(gamma=0.25)
        b2 = std_inputs(gamma=0.5)
        assert m_min("thm_main", b1) == pytest.approx(4.0 * m_min("thm_main", b2), rel=1e-12)
        e1 = std_inputs(eta=2.0)
        for fid in FORMULA_IDS:
            w = 3.0 if fid == "thm_S" else None
            assert m_min(fid, std_inputs(), width=w) == pytest.approx(
                4.0 * m_min(fid, e1, width=w), rel=1e-12
            )

    def test_bounds_table_rows(self):
        rows = bounds_table(std_inputs(), width=2.0, m=1000)
        assert [r["formula_id"] for r in rows] == list(FORMULA_IDS)
        for r in rows:
            assert r["m_min"] is not None
            assert 0.0 < r["prob_at_m"] < 1.0
        rows2 = bounds_table(std_inputs(), width=None)
        assert rows2[0]["m_min"] is None  # thm_S needs the width
        assert rows2[1]["prob_at_m"] == pytest.approx(1.0)  # at ceil(m_min) of ~3e8


class TestMendelson:
    def test_width_zero_small_t(self):
        b = std_inputs()
        got = mendelson_lower_bound(b, 0.0, 100, 1e-12)
        expect = b.alpha * b.eta / 64.0 * (b.alpha / b.sigma) ** 2 * 10.0
        assert got.value == pytest.approx(expect, rel=1e-9)
        assert got.probability == pytest.approx(0.0, abs=1e-12)

    def test_equality_substitution_recovers_width_level(self):
        # at m = thm_S minimum and t = sqrt(m) alpha^2 / (64 sigma^2), the
        # bound collapses to exactly C sigma w
        for eta, width, sigma, C in ((1.0, 2.0, 1.0, 1.0), (0.5, 3.7, 2.0, 1.3)):
            b = std_inputs(eta=eta, sigma=sigma, C=C)
            m = m_min("thm_S", b, width=width)
            t = math.sqrt(m) * b.alpha**2 / (64.0 * b.sigma**2)
            got = mendelson_lower_bound(b, width, m, t)
            assert got.value == pytest.approx(C * sigma * width, rel=1e-9)

    def test_linear_in_eta(self):
        b1 = std_inputs(eta=1.0)
        b2 = std_inputs(eta=2.0)
        w, m, t = 1.5, 400, 0.7
        v1 = mendelson_lower_bound(b1, w, m, t).value
        v2 = mendelson_lower_bound(b2, w, m, t).value
        first_third_1 = v1 + 2.0 * b1.C * b1.sigma * w
        first_third_2 = v2 + 2.0 * b2.C * b2.sigma * w
        assert first_third_2 == pytest.approx(2.0 * first_third_1, rel=1e-9)


class TestEstimateQ:
    def test_xi_zero_is_one(self):
        spec = make_spec("std_gaussian", 4)
        D = make_dictionary("identity", 4, 4)
        e1 = np.array([1.0, 0, 0, 0])
        got = estimate_Q(spec, D.matrix, [e1], SgammaParams(0.5, 1), 0.0, 5000, RngStream(70))
        assert got == 1.0

    def test_normal_tail_at_one(self):
        spec = make_spec("std_gaussian", 4)
        D = make_dictionary("identity", 4, 4)
        e1 = np.array([1.0, 0, 0, 0])
        got = estimate_Q(spec, D.matrix, [e1], SgammaParams(0.5, 1), 1.0, 400_000, RngStream(71))
        expect = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0))))
        assert got == pytest.approx(expect, abs=3e-3)

    def test_rejects_non_member_probe(self):
        spec = make_spec("std_gaussian", 4)
        D = make_dictionary("identity", 4, 4)
        bad = np.full(4, 0.5)  # unit norm but spread: not in S_gamma at gamma=1
        with pytest.raises(DomainError):
            estimate_Q(spec, D.matrix, [bad], SgammaParams(1.0, 1), 0.5, 100, RngStream(0))
        e1 = np.array([1.0, 0, 0, 0])
        with pytest.raises(DomainError, match="samples must be at least 1"):
            estimate_Q(spec, D.matrix, [e1], SgammaParams(0.5, 1), 0.5, 0, RngStream(0))

    def test_dominates_small_ball_bound(self):
        # identity dictionary: every probe has ||D x|| = 1 = eta, so the
        # marginal bound with t = xi applies directly
        spec = make_spec("std_gaussian", 5)
        D = make_dictionary("identity", 5, 5)
        rng = RngStream(72)
        p = SgammaParams(0.6, 2)
        probes = []
        for k in range(6):
            x = np.zeros(5)
            idx = rng.substream(k).permutation(5)[:2]
            x[idx] = rng.substream(k, "v").normal(2)
            x /= np.linalg.norm(x)
            if (np.abs(x[idx]).sum()) >= 0.6 * (np.abs(x).sum() - np.abs(x[idx]).sum()):
                probes.append(x)
        for xi in (0.2, 0.4, 0.6):
            got = estimate_Q(spec, D.matrix, probes, p, xi, 200_000, rng.substream("mc", xi))
            bound = small_ball_lower_bound(spec, xi)
            se = math.sqrt(got * (1 - got) / 200_000)
            assert got >= bound - 3.0 * se


class TestEstimateW:
    def test_zero_dictionary(self):
        spec = make_spec("std_gaussian", 3)
        D = make_dictionary("user_matrix", 3, 6, matrix=np.zeros((3, 6)))
        est = estimate_W(spec, D.matrix, SgammaParams(0.5, 1), 4, 500, RngStream(73))
        assert est.mean == 0.0
        with pytest.raises(DomainError, match="s = 7 exceeds the row length n = 6"):
            estimate_W(spec, D.matrix, SgammaParams(0.5, 7), 4, 500, RngStream(73))
        with pytest.raises(DomainError, match="samples must be at least 1"):
            estimate_W(spec, D.matrix, SgammaParams(0.5, 1), 4, 0, RngStream(73))

    def test_blocks_match_one_product_on_the_same_draws(self, monkeypatch):
        # m = 4: draw blocks of 25000 samples, each cut into product blocks of
        # 1872 rows (d = 10, n = 14)
        spec = make_spec("std_gaussian", 10)
        M = make_dictionary("gaussian_unit_norm", 10, 14, RngStream(77)).matrix
        c = SgammaParams(0.6, 2)
        replay = RngStream(78)
        hs = []
        for block in (25_000, 1000):
            phi = sample_measurement_matrix(spec, block * 4, 10, replay).reshape(block, 4, 10)
            eps = replay.signs((block, 4))
            hs.append(np.einsum("bm,bmd->bd", eps, phi) / 2.0)
        v = cone_projection_values(np.vstack(hs) @ M, c)
        seen = record_projection_calls(monkeypatch)
        est = estimate_W(spec, M, c, 4, 26_000, RngStream(78))
        assert len(seen) == 14 + 1
        assert np.concatenate(seen).tobytes() == v.tobytes()
        assert est.mean == float(v.mean())
        assert est.std_error == float(v.std(ddof=1) / math.sqrt(v.size))

    def test_gaussian_rows_match_plain_width(self):
        # standard Gaussian rows: the signed average is again standard normal,
        # so the empirical width equals w(D S_gamma) for every m
        spec = make_spec("std_gaussian", 5)
        D = make_dictionary("identity", 5, 5)
        c = SgammaParams(0.8, 1)
        plain = width_DS_gamma_mc(D.matrix, c, 30_000, RngStream(74))
        for m in (1, 4, 16):
            est = estimate_W(spec, D.matrix, c, m, 8000, RngStream(75).substream(m))
            combined = 3.0 * math.hypot(est.std_error, plain.std_error)
            assert abs(est.mean - plain.mean) <= combined

    def test_anisotropic_rows_below_sigma_max_width(self):
        cov = np.diag([4.0, 1.0, 1.0, 1.0])
        spec = make_spec("gaussian_sigma", 4, covariance=cov)
        rng = RngStream(76)
        D = make_dictionary("gaussian_unit_norm", 4, 8, rng.substream("dict"))
        c = SgammaParams(0.7, 2)
        est = estimate_W(spec, D.matrix, c, 4, 8000, rng.substream("w"))
        plain = width_DS_gamma_mc(D.matrix, c, 30_000, rng.substream("plain"))
        slack = 3.0 * math.hypot(est.std_error, spec.sigma * plain.std_error)
        assert est.mean <= spec.sigma * plain.mean + slack
