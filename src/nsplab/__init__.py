"""nsplab: null space property certification, Gaussian width estimation, and
sparse recovery experiments for dictionary-based compressed sensing.

The package certifies the stable null space property of sensing compositions
exactly at desk scale, estimates Gaussian widths of the NSP-violating set by
Monte Carlo, evaluates closed-form measurement-count bounds, and runs
reproducible preservation / phase-transition campaigns.
"""

from .dictionary import Dictionary, make_dictionary
from .errors import (
    BudgetExceededError,
    DomainError,
    LpSolveError,
    NsplabError,
    NspRequiredError,
)
from .harness import (
    ExperimentConfig,
    run_bounds_table,
    run_experiment,
    run_phase_transition,
    run_preserve_nsp,
    run_width_compare,
)
from .nsp import (
    EtaEstimate,
    NspCertificate,
    SgammaParams,
    certify_nsp,
    estimate_eta,
    in_S_gamma,
)
from .numerics import (
    kernel_basis,
    nonincreasing_rearrangement,
    operator_norm,
    read_matrix_text,
    read_vector_text,
)
from .rng import RngStream, stable_stream_id
from .smallball import (
    FORMULA_IDS,
    BoundInputs,
    MendelsonBound,
    bounds_table,
    estimate_Q,
    estimate_W,
    m_min,
    mendelson_lower_bound,
    success_probability,
    success_rate,
)
from .solver import RecoveryResult, solve_l1_synthesis
from .subgaussian import SubgaussianSpec, make_spec, sample_measurement_matrix
from .width import (
    WidthEstimate,
    crude_width_bound,
    theory_width_bound,
    unit_ball_width,
    width_DS_gamma_mc,
)

__version__ = "0.1.0"
