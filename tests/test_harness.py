import json
import math

import numpy as np
import pytest

from nsplab.dictionary import make_dictionary
from nsplab.errors import DomainError, NspRequiredError
from nsplab.harness import (
    ExperimentConfig,
    run_bounds_table,
    run_experiment,
    run_phase_transition,
    run_preserve_nsp,
    run_width_compare,
)
from nsplab.nsp import certify_nsp
from nsplab.rng import RngStream, stable_stream_id
from nsplab.subgaussian import make_spec, sample_measurement_matrix
from oracles import csv_body


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def preserve_cfg(**over):
    base = dict(
        experiment="preserve_nsp",
        d=6,
        n=8,
        s=1,
        gamma=0.9,
        seed=101,
        m_grid=(3, 6),
        trials=4,
    )
    base.update(over)
    return ExperimentConfig(**base)


@pytest.mark.parametrize(
    "runner, over",
    [(run_preserve_nsp, {}), (run_phase_transition, {"experiment": "phase_transition", "eps": 0.01})],
    ids=["preserve", "phase"],
)
def test_trial_rows_do_not_depend_on_the_rest_of_the_grid(runner, over):
    # every (experiment, m, trial) draws from its own stream, so a trial's row
    # is the same whichever other m values and trials the campaign runs
    small = runner(preserve_cfg(m_grid=(6,), trials=2, **over)).splitlines()
    large = runner(preserve_cfg(m_grid=(3, 6), trials=4, **over)).splitlines()
    want = [ln for ln in small[2:] if ln.split(",")[1] != "summary"]
    assert len(want) == 2
    assert want == [ln for ln in large[2:] if ln.split(",")[:2] in (["6", "0"], ["6", "1"])]


def test_preserve_trial_draws_phi_first_from_its_stream():
    cfg = preserve_cfg()
    D = make_dictionary(
        cfg.dict_kind, cfg.d, cfg.n, RngStream(cfg.seed, stable_stream_id("preserve_nsp", "dictionary"))
    )
    rng = RngStream(cfg.seed, stable_stream_id("preserve_nsp", 6, 1))
    phi = sample_measurement_matrix(make_spec(cfg.spec_kind, cfg.d), 6, cfg.d, rng)
    cert = certify_nsp(phi @ D.matrix, cfg.s)
    _, rows = parse_csv(run_preserve_nsp(cfg))
    assert [r for r in rows if r[:2] == ["6", "1"]] == [["6", "1", cert.verdict, f"{cert.gamma_star:.17g}"]]


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = preserve_cfg()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "experiment": "preserve_nsp", "d": 6, "n": 8, "s": 1, "gamma": 0.9,
            "seed": 101, "m_grid": [3, 6], "trials": 4,
        }))
        loaded = ExperimentConfig.from_json(path)
        assert loaded == cfg

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "preserve_nsp", "d": 2, "n": 2, "s": 1,
                                    "gamma": 0.5, "seed": 0, "bogus": 1}))
        with pytest.raises(DomainError):
            ExperimentConfig.from_json(path)

    def test_rejects_unsorted_m_grid(self):
        with pytest.raises(DomainError):
            preserve_cfg(m_grid=(6, 3))

    def test_rejects_non_integer_m_grid(self):
        with pytest.raises(DomainError, match="integers"):
            preserve_cfg(m_grid=(3.5, 4.9))
        assert preserve_cfg(m_grid=(np.int64(3), np.int64(6))).m_grid == (3, 6)

    def test_rejects_unknown_experiment(self):
        with pytest.raises(DomainError):
            preserve_cfg(experiment="nope")

    @pytest.mark.parametrize(
        "over",
        [{"dict_kind": "gaussian"}, {"dict_kind": "user_matrix"}, {"spec_kind": "laplace"}],
        ids=["dict_kind-unknown", "dict_kind-user_matrix", "spec_kind-unknown"],
    )
    def test_rejects_kind_a_config_cannot_build(self, over):
        # user_matrix is no dictionary kind: a config cannot carry a matrix
        with pytest.raises(DomainError, match=f"config key '{next(iter(over))}'"):
            preserve_cfg(**over)

    @pytest.mark.parametrize(
        "over",
        [{"s_grid": (1.5,)}, {"n_grid": (14.0,)}, {"trials": 150.5}, {"gamma": "0.5"}, {"d": 5.0}],
        ids=["s_grid-float", "n_grid-float", "trials-float", "gamma-string", "d-float"],
    )
    def test_python_config_checked_like_json(self, over):
        # the checks from_json relies on run for a config built in Python too
        base = dict(experiment="width_compare", d=5, n=14, s=1, gamma=0.5, seed=0, trials=150)
        with pytest.raises(DomainError, match=f"config key '{next(iter(over))}'"):
            run_width_compare(ExperimentConfig(**{**base, **over}))


class TestPreserve:
    def test_deterministic_rerun(self):
        text1 = run_preserve_nsp(preserve_cfg())
        text2 = run_preserve_nsp(preserve_cfg())
        assert text1.splitlines()[0].startswith("# generated")
        assert csv_body(text1) == csv_body(text2)

    def test_summary_matches_recount(self):
        header, rows = parse_csv(run_preserve_nsp(preserve_cfg()))
        assert header == ["m", "trial", "verdict", "gamma_star"]
        raw = [r for r in rows if r[1] != "summary"]
        summaries = {r[0]: float(r[3]) for r in rows if r[1] == "summary"}
        for m in ("3", "6"):
            holds = sum(1 for r in raw if r[0] == m and r[2] == "holds")
            total = sum(1 for r in raw if r[0] == m)
            assert summaries[m] == pytest.approx(holds / total)

    def test_square_gaussian_always_preserves(self):
        # m = d: Phi is square Gaussian, almost surely invertible, so the
        # composition kernel equals ker(D) and the certificate stays intact
        header, rows = parse_csv(run_preserve_nsp(preserve_cfg(m_grid=(6,), trials=6)))
        summary = [r for r in rows if r[1] == "summary"]
        assert float(summary[0][3]) == 1.0

    def test_failing_dictionary_aborts(self):
        # unit-norm 1 x 2 dictionary: the kernel ratio is exactly 1, and the
        # tie counts as failure, so the run must abort before any trial
        cfg = preserve_cfg(d=1, n=2, s=1, seed=7)
        with pytest.raises(NspRequiredError):
            run_preserve_nsp(cfg)

    def test_writes_output_file(self, tmp_path):
        out = tmp_path / "res.csv"
        cfg = preserve_cfg(output=str(out))
        text = run_preserve_nsp(cfg)
        assert out.read_text() == text
        assert text.endswith("\n")


class TestPhase:
    def test_identity_square_recovers(self):
        cfg = ExperimentConfig(
            experiment="phase_transition", d=8, n=8, s=1, gamma=0.9, seed=11,
            dict_kind="identity", m_grid=(8,), trials=5, eps=0.0,
        )
        header, rows = parse_csv(run_phase_transition(cfg))
        assert header == ["m", "trial", "success", "err_x", "err_z", "sigma_s"]
        summary = [r for r in rows if r[1] == "summary"]
        assert float(summary[0][2]) == 1.0

    def test_rate_improves_with_m(self):
        cfg = ExperimentConfig(
            experiment="phase_transition", d=24, n=24, s=2, gamma=0.9, seed=12,
            dict_kind="identity", m_grid=(4, 16), trials=12, eps=0.0,
        )
        _, rows = parse_csv(run_phase_transition(cfg))
        rates = {r[0]: float(r[2]) for r in rows if r[1] == "summary"}
        assert rates["16"] >= rates["4"]

    def test_tiny_m_fails(self):
        cfg = ExperimentConfig(
            experiment="phase_transition", d=16, n=16, s=3, gamma=0.9, seed=13,
            dict_kind="identity", m_grid=(2,), trials=6, eps=0.0,
        )
        _, rows = parse_csv(run_phase_transition(cfg))
        rate = [float(r[2]) for r in rows if r[1] == "summary"][0]
        assert rate <= 0.34

    def test_summary_matches_recount(self):
        cfg = ExperimentConfig(
            experiment="phase_transition", d=10, n=12, s=1, gamma=0.9, seed=14,
            m_grid=(4, 10), trials=5, eps=0.01,
        )
        _, rows = parse_csv(run_phase_transition(cfg))
        raw = [r for r in rows if r[1] != "summary"]
        summaries = {r[0]: float(r[2]) for r in rows if r[1] == "summary"}
        for m in ("4", "10"):
            wins = sum(int(r[2]) for r in raw if r[0] == m)
            assert summaries[m] == pytest.approx(wins / 5)


class TestWidthCompare:
    def test_rows_and_inequalities(self):
        cfg = ExperimentConfig(
            experiment="width_compare", d=5, n=10, s=1, gamma=0.5, seed=15,
            trials=1500, n_grid=(8, 10), s_grid=(1, 2), gamma_grid=(0.5, 1.0),
        )
        header, rows = parse_csv(run_width_compare(cfg))
        assert header == ["n", "s", "gamma", "rho", "mc_mean", "mc_se",
                          "dual_mean", "dual_se", "theory_bound", "crude_bound"]
        assert len(rows) == 8
        for r in rows:
            mc, mc_se = float(r[4]), float(r[5])
            dual, dual_se = float(r[6]), float(r[7])
            theory = float(r[8])
            assert mc <= dual + 3.0 * math.hypot(mc_se, dual_se) + 1e-9
            assert mc <= theory + 3.0 * mc_se

    def test_crude_dominates_theory_for_wide_unit_norm(self):
        cfg = ExperimentConfig(
            experiment="width_compare", d=8, n=32, s=1, gamma=0.9, seed=16,
            trials=200, s_grid=(1, 2),
        )
        _, rows = parse_csv(run_width_compare(cfg))
        for r in rows:
            assert float(r[9]) >= float(r[8])  # sqrt(n) crude bound is larger

    def test_run_experiment_dispatch(self):
        cfg = ExperimentConfig(
            experiment="width_compare", d=4, n=6, s=1, gamma=0.8, seed=17, trials=150,
        )
        assert csv_body(run_experiment(cfg)) == csv_body(run_width_compare(cfg))


class TestBoundsTable:
    def test_rows_present_and_finite(self):
        cfg = ExperimentConfig(
            experiment="bounds_table", d=5, n=8, s=1, gamma=0.5, seed=18,
            trials=300, m_grid=(100,), eta_restarts=8,
        )
        header, rows = parse_csv(run_bounds_table(cfg))
        assert header == ["formula_id", "m_min", "rate", "prob_at_m"]
        ids = [r[0] for r in rows]
        assert ids == ["thm_S", "thm_main", "cor_non", "cor_sgauss", "thm_main_gauss"]
        for r in rows:
            assert float(r[1]) > 0
            assert 0 < float(r[3]) < 1
