"""The package's public surface: every name it exports runs in a campaign or
a CLI command, or tests and demos need it to drive one.  A name added or
removed here is a decision about that surface, not a side effect."""

import dataclasses
import inspect
import types

import numpy as np

import nsplab
from nsplab.cli import _build_parser
from nsplab.nsp import certificate_to_json

PUBLIC = {
    # campaigns and the CLI
    "ExperimentConfig", "run_experiment", "run_preserve_nsp", "run_phase_transition",
    "run_width_compare", "run_bounds_table",
    # certificates and recovery
    "certify_nsp", "NspCertificate", "SgammaParams", "estimate_eta",
    "EtaEstimate", "solve_l1_synthesis", "RecoveryResult",
    # dictionaries, rows and randomness
    "Dictionary", "make_dictionary", "SubgaussianSpec", "make_spec",
    "sample_measurement_matrix", "RngStream", "stable_stream_id",
    # widths
    "WidthEstimate", "width_DS_gamma_mc", "theory_width_bound", "crude_width_bound",
    "unit_ball_width",
    # row-count formulas
    "FORMULA_IDS", "BoundInputs", "m_min", "success_rate", "success_probability",
    "bounds_table",
    # numerics and text input
    "kernel_basis", "nonincreasing_rearrangement", "operator_norm", "read_matrix_text",
    "read_vector_text",
    # errors
    "NsplabError", "DomainError", "BudgetExceededError", "NspRequiredError", "LpSolveError",
}


def test_public_names_are_exactly_the_listed_ones():
    names = {
        name for name, value in vars(nsplab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC) == 41
    assert names == PUBLIC


# The settable surface: every key, parameter and flag below changes a result
# or guards a resource.  A value nothing sets is a constant, not a knob.

def test_config_keys():
    assert [f.name for f in dataclasses.fields(nsplab.ExperimentConfig)] == [
        "experiment", "d", "n", "s", "gamma", "seed", "dict_kind", "spec_kind",
        "covariance_path", "width_constant", "m_grid", "trials", "eps", "success_factor",
        "n_grid", "s_grid", "gamma_grid",
    ]


def test_certificate_surface():
    assert list(inspect.signature(nsplab.certify_nsp).parameters) == ["A", "s"]
    assert [f.name for f in dataclasses.fields(nsplab.NspCertificate)] == [
        "gamma_star", "verdict", "s", "witness_support", "witness", "method", "evaluated",
    ]
    cert = nsplab.certify_nsp(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), 1)
    assert list(certificate_to_json(cert)) == [
        "gamma_star", "verdict", "witness_support", "witness_vector", "s", "method", "evaluated",
    ]


def test_command_flags():
    commands = _build_parser()._subparsers._group_actions[0].choices
    flags = {
        name: [a.option_strings[0] for a in p._actions if a.option_strings[0] != "-h"]
        for name, p in commands.items()
    }
    assert flags["nsp-check"] == ["--A", "--s"]
    for name in ("preserve", "phase", "width"):
        assert flags[name] == ["--config", "--seed"]
