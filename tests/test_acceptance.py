"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest

from nsplab.cli import main as cli_main
from nsplab.dictionary import make_dictionary
from nsplab.harness import ExperimentConfig, run_preserve_nsp
from nsplab.nsp import SgammaParams, certify_nsp, estimate_eta
from nsplab.numerics import nonincreasing_rearrangement
from nsplab.rng import RngStream
from nsplab.smallball import FORMULA_IDS, BoundInputs, m_min, success_probability
from nsplab.solver import solve_l1_synthesis
from nsplab.subgaussian import make_spec, sample_measurement_matrix
from nsplab.width import cone_projection_values, theory_width_bound, unit_ball_width, width_DS_gamma_mc
from oracles import (
    best_s_term_error,
    bp_objective_oracle,
    check_lemma_key,
    check_slepian_contraction,
    check_soft_moment,
    dykstra_projection,
    gamma_star_sampling_oracle,
    mp_m_min,
    mp_rate,
    soft_moment_quadrature,
    verify_tail,
)

mpmath.mp.dps = 50

STD_ALPHA = math.sqrt(2.0 / math.pi)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


def test_criterion_1_formula_reproduction():
    with criterion(1, "formula reproduction to 12 digits"):
        cases = [
            dict(eta=1.0, gamma=0.5, rho=1.0, alpha=STD_ALPHA, sigma=1.0, C=1.0,
                 s=2, n=100, kappa=1.0, width=3.0),
            dict(eta=0.37, gamma=0.81, rho=2.5, alpha=0.41, sigma=1.7, C=1.9,
                 s=3, n=450, kappa=5.5, width=0.83),
            dict(eta=2.2, gamma=0.05, rho=0.4, alpha=1.3, sigma=2.2, C=0.7,
                 s=1, n=12, kappa=1.25, width=11.0),
        ]
        for case in cases:
            b = BoundInputs(eta=case["eta"], gamma=case["gamma"], rho=case["rho"],
                            alpha=case["alpha"], sigma=case["sigma"], C=case["C"],
                            s=case["s"], n=case["n"], kappa=case["kappa"])
            for fid in FORMULA_IDS:
                width = case["width"] if fid == "thm_S" else None
                got = m_min(fid, b, width=width)
                want = float(mp_m_min(fid, case["eta"], case["gamma"], case["rho"],
                                      case["alpha"], case["sigma"], case["C"],
                                      case["s"], case["n"], kappa=case["kappa"],
                                      width=case["width"]))
                assert got == pytest.approx(want, rel=1e-12), fid
                for m in (17, 4099):
                    got_p = success_probability(fid, b, m)
                    rate = mp_rate(fid, case["alpha"], case["sigma"], kappa=case["kappa"])
                    want_p = float(1 - mpmath.e ** (-m * rate))
                    assert got_p == pytest.approx(want_p, rel=1e-12), fid
        # the headline magnitude quoted for standard Gaussian rows
        b = BoundInputs(eta=1.0, gamma=0.5, rho=1.0, alpha=STD_ALPHA, sigma=1.0,
                        C=1.0, s=2, n=100, kappa=1.0)
        assert m_min("cor_sgauss", b) == pytest.approx(3.115e8, rel=2e-3)


def test_criterion_2_certifier_vs_oracle_and_recovery():
    with criterion(2, "NSP certifier vs sampling oracle + recovery verdicts"):
        rng = RngStream(2001)
        agreements = 0
        total = 200
        for trial in range(total):
            sub = rng.substream("case", trial)
            n = int(sub.integers(4, 9))
            s = int(sub.integers(1, 3))
            # kernel dim <= n - s - 1 keeps gamma_star finite (a larger kernel
            # always contains a vector vanishing on some complement)
            k = int(sub.integers(1, min(3, n - s - 1) + 1))
            A = sub.normal((n - k, n))
            cert = certify_nsp(A, s)
            assert math.isfinite(cert.gamma_star)
            oracle = gamma_star_sampling_oracle(A, s, 1_000_000, sub.substream("oracle"))
            assert oracle <= cert.gamma_star + 1e-6
            assert cert.gamma_star - oracle <= 1e-2

            # direct recovery check on the same matrix
            if cert.holds:
                recovered = True
                for j in range(3):
                    plant = sub.substream("plant", j)
                    x0 = np.zeros(n)
                    idx = plant.permutation(n)[:s]
                    x0[idx] = plant.signs(s) * (1.0 + plant.uniform(s))
                    res = solve_l1_synthesis(A, A @ x0)
                    if res.status != "converged" or np.max(np.abs(res.x_hat - x0)) > 1e-6:
                        recovered = False
                recovery_verdict = "holds" if recovered else "fails"
            else:
                T = list(cert.witness_support)
                x0 = np.zeros(n)
                x0[T] = cert.witness[T]
                res = solve_l1_synthesis(A, A @ x0)
                failed = res.status != "converged" or np.max(np.abs(res.x_hat - x0)) > 1e-6
                recovery_verdict = "fails" if failed else "holds"
            agreements += int(recovery_verdict == cert.verdict)
        assert agreements == total, f"verdict/recovery agreement {agreements}/{total}"


def test_criterion_3_width_machinery():
    with criterion(3, "width machinery"):
        # (a) identity with s = n reproduces the unit-ball width within 2%
        for n in (2, 5, 10):
            D = make_dictionary("identity", n, n)
            est = width_DS_gamma_mc(D.matrix, SgammaParams(1.0, n), 100_000, RngStream(300 + n))
            expect = unit_ball_width(n)
            assert abs(est.mean - expect) <= 0.02 * expect

        # (b) exact projection equals the Dykstra oracle on 100k draws
        rng = RngStream(301)
        D = make_dictionary("gaussian_unit_norm", 5, 10, rng.substream("dict"))
        c = SgammaParams(0.5, 2)
        H = rng.substream("g").normal((100_000, 5)) @ D.matrix
        cone_vals = cone_projection_values(H, c)
        oracle_vals = np.linalg.norm(dykstra_projection(nonincreasing_rearrangement(H), c), axis=1)
        assert int((np.abs(cone_vals - oracle_vals) > 1e-9).sum()) == 0

        # (c) Monte Carlo mean below the closed-form bound across the grid
        for n in (8, 16, 32):
            D = make_dictionary("gaussian_unit_norm", max(2, n // 2), n, RngStream(310 + n))
            for s in (1, 2, 3):
                for gamma in (0.5, 0.9, 1.0):
                    p = SgammaParams(gamma, s)
                    est = width_DS_gamma_mc(D.matrix, p, 3000, RngStream(320).substream(n, s, gamma))
                    theory = theory_width_bound(p, n, D.rho)
                    assert est.mean <= theory + 3.0 * est.std_error, (n, s, gamma)


def test_criterion_4_lemma_checks():
    with criterion(4, "soft-moment / top-block / tail / contraction checks"):
        # soft-threshold second moment at one million samples
        empirical, bound, std_error = check_soft_moment(1.0, 1.0, 1_000_000, RngStream(400))
        oracle = soft_moment_quadrature(1.0, 1.0)
        assert oracle == pytest.approx(0.150678, abs=2e-6)
        assert abs(empirical - oracle) <= 3.0 * std_error
        assert bound == pytest.approx(0.2935253, abs=1e-6)
        assert empirical <= bound + 3.0 * std_error

        # top-block root-mean-square bound at one million samples
        for D, s in (
            (make_dictionary("identity", 10, 10), 1),
            (make_dictionary("gaussian_unit_norm", 6, 12, RngStream(401)), 2),
        ):
            empirical, bound, std_error = check_lemma_key(D.matrix, s, 1_000_000, RngStream(402))
            assert empirical <= bound + 3.0 * std_error

        # tail contracts at one million samples for all three row kinds
        z = RngStream(403).unit_vector(4)
        for kind, kwargs in (
            ("std_gaussian", {}),
            ("gaussian_sigma", {"covariance": np.diag([4.0, 1.0, 0.5, 2.0])}),
            ("rademacher", {"width_constant": 1.0}),
        ):
            spec = make_spec(kind, 4, **kwargs)
            grid = [0.5 * spec.sigma, spec.sigma, 2 * spec.sigma, 3 * spec.sigma]
            points = verify_tail(spec, z, grid, 1_000_000, RngStream(404).substream(kind))
            for t, emp, bound, se in points:
                assert emp <= bound + 3.0 * se, kind

        # contraction inequality on 100k paired draws
        rng = RngStream(405)
        F = rng.normal((3, 5))
        pts = rng.normal((20, 5))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        lhs, rhs, lhs_std_error, rhs_std_error = check_slepian_contraction(
            F, pts, 100_000, rng.substream("mc")
        )
        slack = 3.0 * math.hypot(lhs_std_error, rhs_std_error)
        assert lhs <= rhs + slack


def test_criterion_5_solver_cross_validation():
    with criterion(5, "homotopy solver matches HiGHS basis-pursuit objectives"):
        rng = RngStream(85)
        for trial in range(50):
            sub = rng.substream(trial)
            B = sub.normal((20, 40))
            x0 = np.zeros(40)
            x0[sub.permutation(40)[:3]] = sub.normal(3)
            y = B @ x0
            res = solve_l1_synthesis(B, y)
            assert res.status == "converged"
            assert abs(res.objective - bp_objective_oracle(B, y)) <= 1e-6, trial


def test_criterion_6_recovery_iff_nsp():
    with criterion(6, "recovery <-> NSP"):
        rng = RngStream(600)
        D = make_dictionary("gaussian_unit_norm", 8, 12, rng.substream("dict"))
        spec = make_spec("std_gaussian", 8)
        phi = sample_measurement_matrix(spec, 7, 8, rng.substream("phi"))
        B = phi @ D.matrix

        # certified at s = 1: every planted 1-sparse vector comes back exactly
        cert1 = certify_nsp(B, 1)
        assert cert1.holds
        for trial in range(100):
            sub = rng.substream("plant", trial)
            x0 = np.zeros(12)
            x0[int(sub.integers(0, 12))] = float(sub.signs()) * (0.5 + sub.uniform())
            res = solve_l1_synthesis(B, B @ x0)
            assert res.status == "converged"
            assert np.max(np.abs(res.x_hat - x0)) < 1e-6, trial

        # the same composition fails at s = 2: its witness support defeats BP
        cert2 = certify_nsp(B, 2)
        assert cert2.verdict == "fails"
        T = list(cert2.witness_support)
        x0 = np.zeros(12)
        x0[T] = cert2.witness[T]
        res = solve_l1_synthesis(B, B @ x0)
        assert np.max(np.abs(res.x_hat - x0)) > 1e-6

        # kernel-containment failure: a dictionary with a bad kernel direction
        base = rng.substream("bad").normal((6, 9))
        Dbad = np.column_stack([base, 2.0 * base[:, 0]])
        certb = certify_nsp(Dbad, 1)
        assert certb.verdict == "fails"
        phi_b = sample_measurement_matrix(make_spec("std_gaussian", 6), 5, 6, rng.substream("pb"))
        certc = certify_nsp(phi_b @ Dbad, 1)
        assert certc.verdict == "fails"
        Tb = list(certc.witness_support)
        xb = np.zeros(10)
        xb[Tb] = certc.witness[Tb]
        resb = solve_l1_synthesis(phi_b @ Dbad, (phi_b @ Dbad) @ xb)
        assert resb.status != "converged" or np.max(np.abs(resb.x_hat - xb)) > 1e-6


def test_criterion_7_preservation_behavior():
    with criterion(7, "preservation frequency and necessity"):
        cfg = ExperimentConfig(
            experiment="preserve_nsp", d=10, n=14, s=1, gamma=0.9, seed=0,
            m_grid=(4, 6, 8, 10), trials=200,
        )
        text = run_preserve_nsp(cfg)
        freqs = {}
        for ln in text.splitlines():
            parts = ln.split(",")
            if len(parts) == 4 and parts[1] == "summary":
                freqs[int(parts[0])] = float(parts[3])
        ms = sorted(freqs)
        assert ms == [4, 6, 8, 10]
        # pooled two-proportion trend: no later frequency may drop below an
        # earlier one by more than two pooled standard errors
        n_tr = cfg.trials
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                fi, fj = freqs[ms[i]], freqs[ms[j]]
                pbar = 0.5 * (fi + fj)
                se = math.sqrt(max(pbar * (1 - pbar), 1e-12) * (2.0 / n_tr))
                assert fj >= fi - 2.0 * se, (ms[i], ms[j], fi, fj)
        assert freqs[10] >= 0.95

        # necessity: if the dictionary fails, every composition fails (50/50)
        rng = RngStream(700)
        base = rng.normal((4, 7))
        Dbad = np.column_stack([base, 2.0 * base[:, 0]])
        assert certify_nsp(Dbad, 1).verdict == "fails"
        for trial in range(50):
            phi = rng.substream("phi", trial).normal((3, 4))
            assert certify_nsp(phi @ Dbad, 1).verdict == "fails", trial


def test_criterion_8_recovery_bound_audit():
    with criterion(8, "certified recovery bound never violated"):
        rng = RngStream(800)
        n, d = 10, 10
        D = make_dictionary("identity", d, n)
        spec = make_spec("std_gaussian", d)
        audited = 0
        for m in (6, 8, 10):
            for eps in (0.0, 0.05, 0.1):
                for trial in range(5):
                    sub = rng.substream(m, eps, trial)
                    phi = sample_measurement_matrix(spec, m, d, sub.substream("phi"))
                    B = phi @ D.matrix
                    cert = certify_nsp(B, 1)
                    if not cert.holds:
                        continue
                    # certified stable-NSP level strictly above gamma_star
                    gamma = 0.5 * (cert.gamma_star + 1.0)
                    eta = estimate_eta(
                        B, SgammaParams(gamma, 1), 12, sub.substream("eta")
                    ).eta_upper
                    if not (eta > 0):
                        continue
                    # plant 1-sparse and nearly-1-sparse vectors
                    x0 = np.zeros(n)
                    x0[int(sub.integers(0, n))] = 1.0 + float(sub.uniform())
                    x0[int(sub.integers(0, n))] += 0.05  # may add a small tail
                    y = B @ x0
                    if eps > 0:
                        y = y + eps * sub.unit_vector(m)
                    res = solve_l1_synthesis(B, y, eps)
                    if res.status != "converged":
                        continue
                    bound = (2 * gamma + 2) / (1 - gamma) * best_s_term_error(x0, 1) \
                        + 2 * eps / eta
                    err = float(np.linalg.norm(res.x_hat - x0))
                    assert err <= bound + 1e-6, (m, eps, trial, err, bound)
                    audited += 1
        assert audited >= 30  # the certified sweep is not vacuous


def test_criterion_9_determinism(tmp_path, capsys):
    with criterion(9, "byte-identical reruns"):
        strip = lambda t: [ln for ln in t.splitlines() if not ln.startswith("#")]
        configs = {
            "preserve": {
                "experiment": "preserve_nsp", "d": 5, "n": 7, "s": 1, "gamma": 0.9,
                "seed": 9, "m_grid": [3, 5], "trials": 3,
            },
            "phase": {
                "experiment": "phase_transition", "d": 6, "n": 6, "s": 1, "gamma": 0.9,
                "seed": 9, "dict_kind": "identity", "m_grid": [4, 6], "trials": 3,
            },
            "width": {
                "experiment": "width_compare", "d": 4, "n": 8, "s": 1, "gamma": 0.5,
                "seed": 9, "trials": 150,
            },
        }
        for cmd, cfg in configs.items():
            out = tmp_path / f"{cmd}.csv"
            cfg["output"] = str(out)
            path = tmp_path / f"{cmd}.json"
            path.write_text(json.dumps(cfg))
            assert cli_main([cmd, "--config", str(path), "--quiet"]) == 0
            first = out.read_text()
            assert first.splitlines()[0].startswith("# generated")
            assert cli_main([cmd, "--config", str(path), "--quiet"]) == 0
            second = out.read_text()
            assert strip(first) == strip(second), cmd
        capsys.readouterr()
