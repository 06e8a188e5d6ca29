import json

import numpy as np
import pytest

from nsplab import nsp
from nsplab.cli import main
from nsplab.rng import RngStream
from nsplab.smallball import BoundInputs, m_min
from nsplab.solver import RecoveryResult, solve_l1_synthesis
from oracles import write_matrix_text, write_vector_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nsp_check(tmp_path, capsys):
    path = tmp_path / "A.txt"
    write_matrix_text(path, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    code, out, _ = run_cli(capsys, "nsp-check", "--A", str(path), "--s", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "holds"
    assert payload["gamma_star"] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("failure", ["not_optimal"])
def test_nsp_check_lp_failure_exits_1(tmp_path, capsys, monkeypatch, failure):
    # C(30, 14) circuit candidates exceed the budget, so s = 1 runs 30 support problems
    path = tmp_path / "A.txt"
    write_matrix_text(path, RngStream(9).normal((15, 30)))
    uncertified = RecoveryResult(np.zeros(16), 1.0, 1.0, 1, "uncertified")
    monkeypatch.setattr(nsp, "solve_lp", lambda *args, **kwargs: uncertified)
    code, out, err = run_cli(capsys, "nsp-check", "--A", str(path), "--s", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("tol", ["-0.6", "nan"])
def test_nsp_check_takes_no_tol(tmp_path, capsys, tol):
    # the verdict margin is fixed at VERDICT_TOL; a rule gamma_star < 1 - tol would
    # call gamma_star = 1.17 (s = 1 here) "holds" at tol = -0.6
    path = tmp_path / "A.txt"
    write_matrix_text(path, RngStream(2).normal((6, 10)))
    with pytest.raises(SystemExit) as exc:
        main(["nsp-check", "--A", str(path), "--s", "1", "--tol", tol])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "nsp-check", "--A", str(path), "--s", "1")
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "fails" and payload["gamma_star"] > 1.0


def test_nsp_check_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "nsp-check", "--A", str(tmp_path / "nope.txt"), "--s", "1")
    assert code == 1
    assert "error" in err


def test_bounds_csv(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--eta", "1", "--gamma", "0.5", "--rho", "1", "--s", "2",
        "--n", "100", "--alpha", "0.7978845608028654", "--sigma", "1", "--C", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "formula_id,m_min,rate,prob_at_m"
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert set(rows) == {"thm_S", "thm_main", "cor_non", "cor_sgauss", "thm_main_gauss"}
    got = float(rows["cor_sgauss"][1])
    b = BoundInputs(eta=1.0, gamma=0.5, rho=1.0, alpha=0.7978845608028654,
                    sigma=1.0, C=1.0, s=2, n=100, kappa=1.0)
    assert got == pytest.approx(m_min("cor_sgauss", b), rel=1e-12)
    assert got == pytest.approx(3.115e8, rel=2e-3)
    assert rows["thm_S"][1] == ""  # no width given


BOUNDS_ARGS = {
    "--eta": "1", "--gamma": "0.5", "--rho": "1", "--s": "2", "--n": "100",
    "--alpha": "0.7978845608028654", "--sigma": "1", "--C": "1",
}


@pytest.mark.parametrize(
    "flag, value",
    [("--eta", "1e-200"), ("--gamma", "1e-200"), ("--alpha", "1e-60"), ("--eta", "1e200"),
     ("--kappa", "1e200"), ("--sigma", "1e100"), ("--eta", "inf"), ("--width", "-1"),
     ("--m", "0"), ("--m", "-3"), pytest.param("--m", "1" + "0" * 310, id="--m-1e310")],
)
def test_bounds_input_out_of_range_exits_1(capsys, flag, value):
    # the formulas divide by eta^2, gamma^2 and alpha^6 and raise kappa to the
    # third power, and m * rate has no float for m = 10^310, so the finite
    # inputs here leave the float range; a width below 0 or an m below 1 is
    # outside the formulas' domain
    argv = [arg for item in {**BOUNDS_ARGS, flag: value}.items() for arg in item]
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["bounds", "--eta", "1"])
    assert e.value.code == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_recover_roundtrip(tmp_path, capsys):
    B = np.eye(4)
    y = np.array([0.0, 3.0, 0.0, -1.0])
    write_matrix_text(tmp_path / "B.txt", B)
    write_vector_text(tmp_path / "y.txt", y)
    write_vector_text(tmp_path / "x0.txt", y)
    code, out, _ = run_cli(
        capsys, "recover", "--B", str(tmp_path / "B.txt"), "--y", str(tmp_path / "y.txt"),
        "--eps", "0", "--x0", str(tmp_path / "x0.txt"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "converged"
    assert np.allclose(payload["x_hat"], y, atol=1e-6)
    assert payload["err_x"] < 1e-6


def test_recover_reads_a_column_vector_like_a_row(tmp_path, capsys):
    B = RngStream(6).normal((4, 7))
    y = RngStream(7).normal(4)
    write_matrix_text(tmp_path / "B.txt", B)
    write_vector_text(tmp_path / "row.txt", y)
    write_matrix_text(tmp_path / "col.txt", y[:, None])
    outs = []
    for name in ("row.txt", "col.txt"):
        code, out, _ = run_cli(capsys, "recover", "--B", str(tmp_path / "B.txt"), "--y", str(tmp_path / name))
        assert code == 0
        outs.append(out)
    assert outs[1] == outs[0]
    assert json.loads(outs[0])["status"] == "converged"


def test_recover_y_of_two_rows_and_columns_exits_1(tmp_path, capsys):
    write_matrix_text(tmp_path / "B.txt", np.eye(2))
    write_matrix_text(tmp_path / "y.txt", np.eye(2))
    code, out, err = run_cli(
        capsys, "recover", "--B", str(tmp_path / "B.txt"), "--y", str(tmp_path / "y.txt"),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "single row or column" in err and err.count("\n") == 1


def test_recover_x0_length_mismatch_exits_1(tmp_path, capsys):
    # refused before the subtraction, which would fail in numpy or broadcast
    y = np.arange(10.0)
    write_matrix_text(tmp_path / "B.txt", np.eye(10))
    write_vector_text(tmp_path / "y.txt", y)
    write_vector_text(tmp_path / "x0.txt", y[:4])
    code, out, err = run_cli(
        capsys, "recover", "--B", str(tmp_path / "B.txt"), "--y", str(tmp_path / "y.txt"),
        "--x0", str(tmp_path / "x0.txt"),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: x0 has 4 entries") and "Traceback" not in err


def test_recover_D_width_mismatch_exits_1(tmp_path, capsys):
    # refused before the product, whose numpy message names neither D nor the solution
    write_matrix_text(tmp_path / "B.txt", np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    write_vector_text(tmp_path / "y.txt", np.array([1.0, 1.0]))
    write_matrix_text(tmp_path / "D.txt", np.eye(2))
    code, out, err = run_cli(
        capsys, "recover", "--B", str(tmp_path / "B.txt"), "--y", str(tmp_path / "y.txt"),
        "--D", str(tmp_path / "D.txt"),
    )
    assert code == 1
    assert out == ""
    assert err == "error: D has 2 columns, the solution has 3 entries\n"


def test_recover_err_x_is_the_campaign_norm(tmp_path, capsys):
    # err_x is np.linalg.norm(x_hat - x0), bit for bit, as in phase_transition
    discriminating = 0
    for seed in range(93, 125):
        rng = RngStream(seed)
        B = rng.normal((20, 40))
        x0 = np.zeros(40)
        x0[np.sort(rng.permutation(40)[:3])] = rng.normal(3)
        write_matrix_text(tmp_path / "B.txt", B)
        write_vector_text(tmp_path / "y.txt", B @ x0 + 0.1 * rng.unit_vector(20))
        write_vector_text(tmp_path / "x0.txt", x0)
        code, out, _ = run_cli(
            capsys, "recover", "--B", str(tmp_path / "B.txt"), "--y", str(tmp_path / "y.txt"),
            "--eps", "0.1", "--x0", str(tmp_path / "x0.txt"),
        )
        assert code == 0
        payload = json.loads(out)
        diff = np.array(payload["x_hat"]) - x0
        assert payload["err_x"] == float(np.linalg.norm(diff)), seed
        discriminating += payload["err_x"] != sum(v * v for v in diff.tolist()) ** 0.5
    # a sum of squares in index order rounds differently on some of these
    # problems, so the equality above tells the two norms apart
    assert discriminating >= 1


def test_recover_signal_from_dictionary(tmp_path, capsys):
    D = RngStream(90).normal((4, 6))
    x0 = np.zeros(6)
    x0[2] = 1.0
    B = RngStream(91).normal((4, 4)) @ D
    write_matrix_text(tmp_path / "B.txt", B)
    write_matrix_text(tmp_path / "D.txt", D)
    write_vector_text(tmp_path / "y.txt", B @ x0)
    args = ("recover", "--B", str(tmp_path / "B.txt"), "--y", str(tmp_path / "y.txt"))
    code, out, _ = run_cli(capsys, *args, "--D", str(tmp_path / "D.txt"))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "converged"
    assert np.allclose(payload["z_hat"], D @ np.array(payload["x_hat"]))
    code, out, _ = run_cli(capsys, *args)
    assert json.loads(out)["z_hat"] is None


def test_recover_reports_path_steps_and_status(tmp_path, capsys):
    rng = RngStream(92)
    B = rng.normal((6, 12))
    x0 = np.zeros(12)
    x0[[3, 8]] = [1.0, -0.5]
    y = B @ x0 + 0.05 * rng.unit_vector(6)
    write_matrix_text(tmp_path / "B.txt", B)
    write_vector_text(tmp_path / "y.txt", y)
    args = ("recover", "--B", str(tmp_path / "B.txt"), "--y", str(tmp_path / "y.txt"))
    code, out, _ = run_cli(capsys, *args, "--eps", "0.05")
    assert code == 0
    payload = json.loads(out)
    # the text round-trip is exact, so the CLI solves the same problem
    expected = solve_l1_synthesis(B, y, 0.05)
    assert payload["status"] == expected.status == "converged"
    assert payload["iterations"] == expected.iterations > 0
    assert payload["x_hat"] == expected.x_hat.tolist()
    assert "penalty_changes" not in payload
    code, out, _ = run_cli(capsys, *args)  # eps = 0: basis pursuit
    assert code == 0
    payload = json.loads(out)
    expected = solve_l1_synthesis(B, y)
    assert payload["status"] == expected.status == "converged"
    assert payload["x_hat"] == expected.x_hat.tolist()


def test_recover_lp_method(tmp_path, capsys):
    # basis pursuit (eps = 0) on the default route
    write_matrix_text(tmp_path / "B.txt", np.array([[1.0, 0, 1], [0, 1, 1]]))
    write_vector_text(tmp_path / "y.txt", np.array([1.0, 1.0]))
    args = ("recover", "--B", str(tmp_path / "B.txt"), "--y", str(tmp_path / "y.txt"))
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "converged"
    assert payload["objective"] == pytest.approx(1.0, abs=1e-9)
    # recover takes no method option: naming one is a usage error
    for method in ("lp", "homotopy"):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--method", method])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_preserve_from_config_and_seed_override(tmp_path, capsys):
    cfg = {
        "experiment": "preserve_nsp", "d": 5, "n": 7, "s": 1, "gamma": 0.9,
        "seed": 3, "m_grid": [5], "trials": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, text1, _ = run_cli(capsys, "preserve", "--config", str(path))
    assert code == 0
    assert text1.startswith("# generated") and len(text1.splitlines()) == 2 + 3 + 1
    code, text2, _ = run_cli(capsys, "preserve", "--config", str(path))
    strip = lambda t: [ln for ln in t.splitlines() if not ln.startswith("#")]
    assert strip(text1) == strip(text2)
    code, text3, _ = run_cli(capsys, "preserve", "--config", str(path), "--seed", "4")
    assert code == 0 and strip(text3) != strip(text1)


def test_width_config_mismatch_exits_1(tmp_path, capsys):
    cfg = {"experiment": "preserve_nsp", "d": 2, "n": 3, "s": 1, "gamma": 0.5,
           "seed": 0, "m_grid": [2], "trials": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "width", "--config", str(path))
    assert code == 1
    assert "width_compare" in err


def test_phase_runs_small_config(tmp_path, capsys):
    cfg = {
        "experiment": "phase_transition", "d": 6, "n": 6, "s": 1, "gamma": 0.9,
        "seed": 5, "dict_kind": "identity", "m_grid": [6], "trials": 2,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "phase", "--config", str(path))
    assert code == 0
    assert out.splitlines()[1] == "m,trial,success,err_x,err_z,sigma_s"


PRESERVE_CFG = {
    "experiment": "preserve_nsp", "d": 5, "n": 7, "s": 1, "gamma": 0.9,
    "seed": 3, "m_grid": [5], "trials": 3,
}


@pytest.mark.parametrize(
    "config",
    [
        {**PRESERVE_CFG, "d": "5"},
        {**PRESERVE_CFG, "m_grid": [3.5]},
        {**PRESERVE_CFG, "seed": 1.5},
        {**PRESERVE_CFG, "trials": "x"},
        {**PRESERVE_CFG, "trials": True},
        {**PRESERVE_CFG, "n_grid": [10.0]},
        [PRESERVE_CFG],
        {k: v for k, v in PRESERVE_CFG.items() if k != "seed"},
    ],
    ids=["d-string", "m_grid-float", "seed-float", "trials-string", "trials-bool", "n_grid-float",
         "list", "seed-missing"],
)
def test_config_value_of_wrong_type_exits_1(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "preserve", "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("dict_kind", "user_matrix"), ("spec_kind", "laplace")])
def test_config_kind_it_cannot_build_exits_1(tmp_path, capsys, key, value):
    # refused when the config is read, naming the key, before any matrix is built
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PRESERVE_CFG, key: value}))
    code, out, err = run_cli(capsys, "preserve", "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: config key '{key}'")


@pytest.mark.parametrize(
    "key, value",
    [("s", 0), ("s", 8), ("m_grid", [0, 3]), ("eps", -0.1), ("eps", float("inf")),
     ("success_factor", float("nan")), ("success_factor", -1.0)],
    ids=["s-zero", "s-above-n", "m_grid-zero", "eps-negative", "eps-inf", "success_factor-nan",
         "success_factor-negative"],
)
def test_config_value_out_of_range_exits_1(tmp_path, capsys, key, value):
    # refused when the config is read, naming the key, before any matrix is built
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PRESERVE_CFG, "experiment": "phase_transition", key: value}))
    code, out, err = run_cli(capsys, "phase", "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: config key '{key}'") and err.count("\n") == 1


def test_empty_m_grid_exits_1(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PRESERVE_CFG, "m_grid": []}))
    code, out, err = run_cli(capsys, "preserve", "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "nonempty m_grid" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "seed, argv",
    [(-1, ()), (2**63, ()), (3, ("--seed", "-1")), (3, ("--seed", str(2**63)))],
    ids=["json-negative", "json-2**63", "flag-negative", "flag-2**63"],
)
def test_seed_outside_63_bits_exits_1(tmp_path, capsys, seed, argv):
    # RngStream keys lie in [0, 2**63): a config seed outside is refused when the
    # config is read, and a --seed override when it replaces the config seed
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**PRESERVE_CFG, "seed": seed}))
    code, out, err = run_cli(capsys, "preserve", "--config", str(path), *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: config key 'seed'") and err.count("\n") == 1
