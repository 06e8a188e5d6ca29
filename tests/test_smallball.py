import math

import pytest

from nsplab.errors import DomainError
from nsplab.smallball import (
    FORMULA_IDS,
    BoundInputs,
    bounds_table,
    m_min,
    success_probability,
    success_rate,
)
from oracles import mendelson_lower_bound, mp_m_min, mp_rate


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
        rows3 = bounds_table(std_inputs(), width=0.0)
        assert rows3[0]["m_min"] == 0.0 and rows3[0]["prob_at_m"] is None  # no m of at least 1


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["eta", "gamma", "rho", "alpha", "sigma", "C", "kappa"])
def test_bound_inputs_refuse_non_finite(field, value):
    with pytest.raises(DomainError):
        std_inputs(**{field: value})


class TestMendelson:
    def test_width_zero_small_t(self):
        b = std_inputs()
        value, probability = mendelson_lower_bound(b, 0.0, 100, 1e-12)
        expect = b.alpha * b.eta / 64.0 * (b.alpha / b.sigma) ** 2 * 10.0
        assert value == pytest.approx(expect, rel=1e-9)
        assert probability == pytest.approx(0.0, abs=1e-12)

    def test_equality_substitution_recovers_width_level(self):
        # at m = thm_S minimum and t = sqrt(m) alpha^2 / (64 sigma^2), the
        # bound collapses to exactly C sigma w
        for eta, width, sigma, C in ((1.0, 2.0, 1.0, 1.0), (0.5, 3.7, 2.0, 1.3)):
            b = std_inputs(eta=eta, sigma=sigma, C=C)
            m = m_min("thm_S", b, width=width)
            t = math.sqrt(m) * b.alpha**2 / (64.0 * b.sigma**2)
            value, _ = mendelson_lower_bound(b, width, m, t)
            assert value == pytest.approx(C * sigma * width, rel=1e-9)

    def test_linear_in_eta(self):
        b1 = std_inputs(eta=1.0)
        b2 = std_inputs(eta=2.0)
        w, m, t = 1.5, 400, 0.7
        v1, _ = mendelson_lower_bound(b1, w, m, t)
        v2, _ = mendelson_lower_bound(b2, w, m, t)
        first_third_1 = v1 + 2.0 * b1.C * b1.sigma * w
        first_third_2 = v2 + 2.0 * b2.C * b2.sigma * w
        assert first_third_2 == pytest.approx(2.0 * first_third_1, rel=1e-9)
