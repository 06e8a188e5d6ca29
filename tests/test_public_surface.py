"""The package's public surface: every name it exports runs in a campaign or
a CLI command, or tests and demos need it to drive one.  A name added or
removed here is a decision about that surface, not a side effect."""

import types

import nsplab

PUBLIC = {
    # campaigns and the CLI
    "ExperimentConfig", "run_experiment", "run_preserve_nsp", "run_phase_transition",
    "run_width_compare", "run_bounds_table",
    # certificates and recovery
    "certify_nsp", "NspCertificate", "SgammaParams", "in_S_gamma", "estimate_eta",
    "EtaEstimate", "solve_l1_synthesis", "RecoveryResult",
    # dictionaries, rows and randomness
    "Dictionary", "make_dictionary", "SubgaussianSpec", "make_spec",
    "sample_measurement_matrix", "RngStream", "stable_stream_id",
    # widths
    "WidthEstimate", "width_DS_gamma_mc", "theory_width_bound", "crude_width_bound",
    "unit_ball_width",
    # row-count formulas and small-ball quantities
    "FORMULA_IDS", "BoundInputs", "m_min", "success_rate", "success_probability",
    "bounds_table", "estimate_Q", "estimate_W", "mendelson_lower_bound", "MendelsonBound",
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
    assert len(PUBLIC) == 46
    assert names == PUBLIC
