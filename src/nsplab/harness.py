"""Reproducible experiment campaigns driven by JSON configs, emitting CSV.

Experiments:
  preserve_nsp     NSP frequency of Phi @ D across an m grid
  phase_transition recovery success rate versus m for planted sparse signals
  width_compare    Monte Carlo width and closed-form width bounds on a grid
  bounds_table     the five measurement-count formulas for derived inputs

Every (experiment, m, trial) tuple gets its own RngStream keyed by a stable
hash, so trial results do not depend on execution order or on the rest of
the grid, and identical configs reproduce byte-identical CSV (modulo the
timestamp header line).  preserve_nsp and phase_transition are plain loops
over the m grid and the trials: each trial draws Phi first, then its own
draws, and each m's summary row is counted as its trial rows are written.

ExperimentConfig checks every field when it is constructed, so a config built
in Python and one read by from_json pass the same checks.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .dictionary import KINDS as DICT_KINDS, make_dictionary
from .errors import DomainError, NspRequiredError
from .nsp import SgammaParams, certify_nsp, estimate_eta
from .numerics import read_matrix_text
from .rng import RngStream, stable_stream_id
from .smallball import BoundInputs, bounds_table
from .solver import solve_l1_synthesis
from .subgaussian import KINDS as SPEC_KINDS
from .subgaussian import make_spec, sample_measurement_matrix
from .width import crude_width_bound, theory_width_bound, width_DS_gamma_mc

_CONFIG_KINDS = {"dict_kind": DICT_KINDS, "spec_kind": SPEC_KINDS}
_ETA_RESTARTS = 20  # estimate_eta restarts in bounds_table


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    d: int
    n: int
    s: int
    gamma: float
    seed: int
    dict_kind: str = "gaussian_unit_norm"
    spec_kind: str = "std_gaussian"
    covariance_path: str | None = None
    width_constant: float | None = None
    m_grid: tuple = ()
    trials: int = 1
    eps: float = 0.0
    success_factor: float = 10.0       # noisy-recovery success threshold multiplier
    n_grid: tuple | None = None        # width_compare sweeps; default singleton grids
    s_grid: tuple | None = None
    gamma_grid: tuple | None = None

    def __post_init__(self):
        """Check every field against its annotation, then its domain.

        The rules are those of a JSON config: bools are not numbers, every
        grid but gamma_grid holds integers, and None is accepted only where
        the annotation allows it (e.g. "float | None").  Grids become tuples,
        of ints where they hold integers.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, null = f.type.partition(" | ")
            if value is None and null:
                continue
            if kind == "tuple":
                kind = "float" if f.name == "gamma_grid" else "int"
                ok = isinstance(value, (tuple, list)) and all(_FITS[kind](v) for v in value)
                want = "a list of " + ("numbers" if kind == "float" else "integers")
                if ok:
                    grid = tuple(map(int, value)) if kind == "int" else tuple(value)
                    object.__setattr__(self, f.name, grid)
            else:
                ok = _FITS[kind](value)
                want = {"int": "an integer", "float": "a number", "str": "a string"}[kind]
            if not ok:
                want += " or null" if null else ""
                raise DomainError(f"config key {f.name!r} must be {want}, got {value!r}")
        if self.experiment not in _RUNNERS:
            raise DomainError(f"unknown experiment {self.experiment!r}")
        for key, kinds in _CONFIG_KINDS.items():
            if getattr(self, key) not in kinds:
                raise DomainError(
                    f"config key {key!r} must be one of {kinds}, got {getattr(self, key)!r}"
                )
        if not 0 <= self.seed < 2**63:
            raise DomainError(f"config key 'seed' must lie in [0, 2**63), got {self.seed}")
        if self.trials < 1:
            raise DomainError("trials must be at least 1")
        if any(a >= b for a, b in zip(self.m_grid, self.m_grid[1:])):
            raise DomainError("m_grid must be strictly ascending")
        if not 1 <= self.s <= self.n:
            raise DomainError(f"config key 's' must be between 1 and n = {self.n}, got {self.s}")
        if any(m < 1 for m in self.m_grid):
            raise DomainError(f"config key 'm_grid' must hold entries of at least 1, got {self.m_grid}")
        for key in ("eps", "success_factor"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0.0):
                raise DomainError(f"config key {key!r} must be finite and at least 0, got {value!r}")

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise DomainError("config must be a JSON object")
        unknown = set(raw) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        missing = [f.name for f in fields(ExperimentConfig) if f.default is MISSING and f.name not in raw]
        if missing:
            raise DomainError(f"missing config keys: {missing}")
        return ExperimentConfig(**raw)


# Type test per annotation.  bool is a subclass of int in Python, but a JSON
# true is not a number.
_FITS = {
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit_csv(header, rows) -> str:
    lines = [f"# generated {datetime.now(timezone.utc).isoformat()}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _build_dictionary(cfg: ExperimentConfig):
    rng = RngStream(cfg.seed, stable_stream_id(cfg.experiment, "dictionary"))
    return make_dictionary(cfg.dict_kind, cfg.d, cfg.n, rng)


def _build_spec(cfg: ExperimentConfig):
    cov = read_matrix_text(cfg.covariance_path) if cfg.covariance_path else None
    return make_spec(cfg.spec_kind, cfg.d, covariance=cov, width_constant=cfg.width_constant)


def run_preserve_nsp(cfg: ExperimentConfig) -> str:
    """NSP preservation frequency of Phi @ D over the m grid.

    The base dictionary must itself certify (kernel containment makes its NSP
    necessary); otherwise the run aborts before any trial.
    """
    if not cfg.m_grid:
        raise DomainError("preserve_nsp needs a nonempty m_grid")
    D = _build_dictionary(cfg)
    base = certify_nsp(D.matrix, cfg.s)
    if not base.holds:
        raise NspRequiredError(
            f"base dictionary fails the NSP (gamma_star = {base.gamma_star}); "
            "no composition can satisfy it"
        )
    spec = _build_spec(cfg)
    rows, summaries = [], []
    for m in cfg.m_grid:
        holds = 0
        for trial in range(cfg.trials):
            rng = RngStream(cfg.seed, stable_stream_id("preserve_nsp", m, trial))
            phi = sample_measurement_matrix(spec, m, rng)
            cert = certify_nsp(phi @ D.matrix, cfg.s)
            rows.append([m, trial, cert.verdict, cert.gamma_star])
            holds += cert.verdict == "holds"
        summaries.append([m, "summary", "frequency", holds / cfg.trials])
    return _emit_csv(["m", "trial", "verdict", "gamma_star"], rows + summaries)


def run_phase_transition(cfg: ExperimentConfig) -> str:
    """Recovery success rate versus m for planted s-sparse coefficients.

    Success means ||x_hat - x0||_2 <= max(1e-6, success_factor * eps) on a
    solve whose optimality check passed; an uncertified or infeasible solve
    counts as a failure, not an error.
    """
    if not cfg.m_grid:
        raise DomainError("phase_transition needs a nonempty m_grid")
    D = _build_dictionary(cfg)
    spec = _build_spec(cfg)
    threshold = max(1e-6, cfg.success_factor * cfg.eps)
    rows, summaries = [], []
    for m in cfg.m_grid:
        successes = 0
        for trial in range(cfg.trials):
            rng = RngStream(cfg.seed, stable_stream_id("phase_transition", m, trial))
            phi = sample_measurement_matrix(spec, m, rng)
            B = phi @ D.matrix
            support = np.sort(rng.permutation(cfg.n)[: cfg.s])
            x0 = np.zeros(cfg.n)
            x0[support] = rng.normal(cfg.s)
            y = B @ x0
            if cfg.eps > 0.0:
                y = y + cfg.eps * rng.unit_vector(m)
            res = solve_l1_synthesis(B, y, cfg.eps)
            if res.x_hat is None:
                success, err_x, err_z = 0, math.inf, math.inf
            else:
                err_x = float(np.linalg.norm(res.x_hat - x0))
                err_z = float(np.linalg.norm(D.matrix @ (res.x_hat - x0)))
                success = int(res.status == "converged" and err_x <= threshold)
            rows.append([m, trial, success, err_x, err_z, 0.0])
            successes += success
        summaries.append([m, "summary", successes / cfg.trials, "", "", ""])
    return _emit_csv(["m", "trial", "success", "err_x", "err_z", "sigma_s"], rows + summaries)


def run_width_compare(cfg: ExperimentConfig) -> str:
    """Monte Carlo width vs closed-form bounds over an (n, s, gamma) grid.

    cfg.trials is the Monte Carlo sample count per row.  The dual_* columns
    repeat mc_*: the dual minimum over the polar cone is the same number as
    the exact cone projection norm (Moreau decomposition), draw by draw.
    """
    n_grid = cfg.n_grid or (cfg.n,)
    s_grid = cfg.s_grid or (cfg.s,)
    gamma_grid = cfg.gamma_grid or (cfg.gamma,)
    samples = max(cfg.trials, 100)
    rows = []
    for n in n_grid:
        rng_d = RngStream(cfg.seed, stable_stream_id("width_compare", "dict", n))
        D = make_dictionary(cfg.dict_kind, cfg.d, n, rng_d)
        crude = crude_width_bound(D.matrix)
        for s, gamma in itertools.product(s_grid, gamma_grid):
            p = SgammaParams(gamma, s)
            rng = RngStream(cfg.seed, stable_stream_id("width_compare", n, s, gamma))
            mc = width_DS_gamma_mc(D.matrix, p, samples, rng)
            rows.append(
                [
                    n,
                    s,
                    gamma,
                    D.rho,
                    mc.mean,
                    mc.std_error,
                    mc.mean,
                    mc.std_error,
                    theory_width_bound(p, n, D.rho),
                    crude,
                ]
            )
    header = [
        "n",
        "s",
        "gamma",
        "rho",
        "mc_mean",
        "mc_se",
        "dual_mean",
        "dual_se",
        "theory_bound",
        "crude_bound",
    ]
    return _emit_csv(header, rows)


def run_bounds_table(cfg: ExperimentConfig) -> str:
    """Evaluate the five formulas for inputs derived from the config.

    (alpha, sigma, C) come from the row spec, rho from the dictionary, and
    eta from the multistart estimate over S_gamma; kappa is the covariance
    condition number.  prob_at_m uses the largest grid m when given.
    """
    D = _build_dictionary(cfg)
    spec = _build_spec(cfg)
    p = SgammaParams(cfg.gamma, cfg.s)
    eta = estimate_eta(
        D.matrix, p, _ETA_RESTARTS, RngStream(cfg.seed, stable_stream_id("bounds_table", "eta"))
    )
    if not (eta.eta_upper > 0.0):
        raise NspRequiredError("estimated eta is zero: the dictionary fails the NSP")
    rng = RngStream(cfg.seed, stable_stream_id("bounds_table", "width"))
    width = width_DS_gamma_mc(D.matrix, p, max(cfg.trials, 100), rng)
    b = BoundInputs(
        eta=eta.eta_upper,
        gamma=cfg.gamma,
        rho=D.rho,
        alpha=spec.alpha,
        sigma=spec.sigma,
        C=spec.width_constant,
        s=cfg.s,
        n=cfg.n,
        kappa=spec.kappa,
    )
    at_m = max(cfg.m_grid) if cfg.m_grid else None
    rows = bounds_table(b, width=width.mean, m=at_m)
    return _emit_csv(list(rows[0]), [r.values() for r in rows])


_RUNNERS = {
    "preserve_nsp": run_preserve_nsp,
    "phase_transition": run_phase_transition,
    "width_compare": run_width_compare,
    "bounds_table": run_bounds_table,
}


def run_experiment(cfg: ExperimentConfig) -> str:
    return _RUNNERS[cfg.experiment](cfg)
