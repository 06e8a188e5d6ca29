"""Campaign workloads of the benchmark and the checks on their output rows.

Each workload drives one campaign through nsplab's public API, the way a user
does, and returns its output as a list of rows (dicts keyed by CSV column).
Rows are checked two ways:

* invariants that any correct output satisfies, for every seed;
* agreement with reference rows stored under ``reference/``, keyed by config
  seed, with exact categorical columns and per-column numeric tolerances.

A run's round holds ``sizes[size]["campaigns"]`` campaigns; campaign k of a
run with seed n gets config seed 1000 n + k, so one run covers several
independent input sets and its timings are medians over them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import nsplab
from nsplab import ExperimentConfig, RngStream, stable_stream_id

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Verdict tolerance of certify_nsp (its default tol).
CERT_TOL = 1e-9
# gamma_star agreement, as the certificates are kept "to 1e-9".
GAMMA_ABS = 1e-9
# err_x / err_z agreement: ten times the splitting solver's stated 1e-7
# accuracy on the l1 objective.
ERR_ABS = 1e-6
# Width columns agree to about 1e-9 relative.
WIDTH_REL = 1e-9


def config_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict              # size name -> campaign parameters
    make_config: Callable    # (config seed, parameters) -> config
    campaign: Callable       # config -> rows
    row_count: Callable      # config -> expected number of rows
    setup: Callable          # config -> what a user builds before the first task
    invariants: Callable     # (rows, config) -> one bool per row
    columns: Callable        # reference row -> {column: comparator}

    def campaigns(self, size: str) -> int:
        return self.sizes[size]["campaigns"]

    def params(self, size: str) -> dict:
        """Campaign parameters; with the config seed, these fix the rows."""
        return {k: v for k, v in self.sizes[size].items() if k != "campaigns"}

    def config(self, seed: int, size: str, k: int = 0):
        return self.make_config(config_seed(seed, k), self.sizes[size])

    def run(self, seed: int, size: str, k: int = 0) -> list:
        return self.campaign(self.config(seed, size, k))

    def expected_rows(self, seed: int, size: str, k: int = 0) -> int:
        return self.row_count(self.config(seed, size, k))


def _parse_csv(text: str) -> list:
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _per_m_rows(cfg) -> int:
    return len(cfg.m_grid) * (cfg.trials + 1)


def _harness_dictionary(cfg):
    rng = RngStream(cfg.seed, stable_stream_id(cfg.experiment, "dictionary"))
    return nsplab.make_dictionary(cfg.dict_kind, cfg.d, cfg.n, rng)


# --------------------------------------------------------------------------
# Comparators for reference rows


def _exact(a: str, b: str) -> bool:
    return a == b


def _number_equal(a: str, b: str) -> bool:
    return float(a) == float(b)


def _close_abs(tol):
    def close(a: str, b: str) -> bool:
        x, y = float(a), float(b)
        if math.isinf(x) or math.isinf(y):
            return x == y
        return abs(x - y) <= tol
    return close


def _close_rel(tol):
    def close(a: str, b: str) -> bool:
        x, y = float(a), float(b)
        return abs(x - y) <= tol * max(abs(x), abs(y))
    return close


def _verdict_ok(row) -> bool:
    g = float(row["gamma_star"])
    return g >= 0.0 and row["verdict"] == ("holds" if g < 1.0 - CERT_TOL else "fails")


# --------------------------------------------------------------------------
# preserve: run_preserve_nsp


def _preserve_config(seed, p):
    return ExperimentConfig(
        experiment="preserve_nsp", d=10, n=14, s=1, gamma=0.5, seed=seed,
        m_grid=(4, 6, 8, 10), trials=p["trials"],
    )


def _preserve_invariants(rows, cfg) -> list:
    tasks = [r for r in rows if r["trial"] != "summary"]
    ok = []
    for r in rows:
        if r["trial"] != "summary":
            ok.append(_verdict_ok(r))
            continue
        mine = [t for t in tasks if t["m"] == r["m"]]
        holds = sum(t["verdict"] == "holds" for t in mine)
        ok.append(
            r["verdict"] == "frequency"
            and len(mine) == cfg.trials
            and float(r["gamma_star"]) == holds / cfg.trials
        )
    return ok


def _preserve_columns(ref) -> dict:
    value = _number_equal if ref["trial"] == "summary" else _close_abs(GAMMA_ABS)
    return {"m": _exact, "trial": _exact, "verdict": _exact, "gamma_star": value}


# --------------------------------------------------------------------------
# certify: certify_nsp called directly, as nsp-check does


@dataclass(frozen=True)
class CertifyConfig:
    d: int
    n: int
    s_grid: tuple
    seed: int


def _certify_config(seed, p):
    return CertifyConfig(d=10, n=14, s_grid=tuple(p["s_grid"]), seed=seed)


def _certify_dictionary(cfg: CertifyConfig):
    rng = RngStream(cfg.seed, stable_stream_id("bench-certify", "dictionary"))
    return nsplab.make_dictionary("gaussian_unit_norm", cfg.d, cfg.n, rng)


def _certify_campaign(cfg: CertifyConfig) -> list:
    D = _certify_dictionary(cfg)
    rows = []
    for s in cfg.s_grid:
        cert = nsplab.certify_nsp(D.matrix, s)
        rows.append({"s": str(s), "verdict": cert.verdict, "gamma_star": repr(cert.gamma_star)})
    return rows


def _certify_invariants(rows, cfg) -> list:
    # gamma_star is nondecreasing in s: a larger support can only hold more mass.
    ok = []
    prev = 0.0
    for r in rows:
        g = float(r["gamma_star"])
        ok.append(_verdict_ok(r) and g >= prev - GAMMA_ABS)
        prev = max(prev, g)
    return ok


def _certify_columns(ref) -> dict:
    return {"s": _exact, "verdict": _exact, "gamma_star": _close_abs(GAMMA_ABS)}


# --------------------------------------------------------------------------
# phase: run_phase_transition


def _phase_config(seed, p):
    return ExperimentConfig(
        experiment="phase_transition", d=20, n=40, s=3, gamma=0.5, seed=seed,
        m_grid=tuple(p["m_grid"]), trials=p["trials"], eps=0.01,
    )


def _phase_invariants(rows, cfg) -> list:
    threshold = max(1e-6, cfg.success_factor * cfg.eps)
    tasks = [r for r in rows if r["trial"] != "summary"]
    ok = []
    for r in rows:
        if r["trial"] == "summary":
            mine = [int(t["success"]) for t in tasks if t["m"] == r["m"]]
            ok.append(len(mine) == cfg.trials and float(r["success"]) == sum(mine) / cfg.trials)
            continue
        err_x = float(r["err_x"])
        success = r["success"]
        ok.append(
            success in ("0", "1")
            and err_x >= 0.0
            and float(r["err_z"]) >= 0.0
            and (success == "0" or err_x <= threshold)
        )
    return ok


def _phase_columns(ref) -> dict:
    if ref["trial"] == "summary":
        return {"m": _exact, "trial": _exact, "success": _number_equal,
                "err_x": _exact, "err_z": _exact, "sigma_s": _exact}
    return {"m": _exact, "trial": _exact, "success": _exact,
            "err_x": _close_abs(ERR_ABS), "err_z": _close_abs(ERR_ABS),
            "sigma_s": _close_abs(GAMMA_ABS)}


# --------------------------------------------------------------------------
# width: run_width_compare


def _width_config(seed, p):
    return ExperimentConfig(
        experiment="width_compare", d=10, n=14, s=1, gamma=0.5, seed=seed,
        n_grid=tuple(p["n_grid"]), s_grid=(1, 2), gamma_grid=(0.5, 0.9),
        trials=p["samples"],
    )


def _width_setup(cfg):
    return [
        nsplab.make_dictionary(
            cfg.dict_kind, cfg.d, n, RngStream(cfg.seed, stable_stream_id("width_compare", "dict", n))
        )
        for n in cfg.n_grid
    ]


def _width_invariants(rows, cfg) -> list:
    # The dual surrogate bounds the exact cone value draw by draw, on shared draws.
    ok = []
    for r in rows:
        mc, dual = float(r["mc_mean"]), float(r["dual_mean"])
        ok.append(
            0.0 < mc <= dual + 1e-7 * dual
            and float(r["mc_se"]) > 0.0
            and float(r["dual_se"]) > 0.0
            and float(r["crude_bound"]) > 0.0
        )
    return ok


def _width_columns(ref) -> dict:
    rel = _close_rel(WIDTH_REL)
    return {"n": _exact, "s": _exact, "gamma": _number_equal, "rho": rel,
            "mc_mean": rel, "mc_se": rel, "dual_mean": rel, "dual_se": rel,
            "theory_bound": rel, "crude_bound": rel}


# --------------------------------------------------------------------------
# Full sizes put one round at roughly 10 to 30 s on a 2-core machine.

WORKLOADS = {
    "preserve": Workload(
        "preserve",
        {"full": {"trials": 2, "campaigns": 12}, "tiny": {"trials": 1, "campaigns": 1}},
        _preserve_config,
        lambda cfg: _parse_csv(nsplab.run_preserve_nsp(cfg)),
        _per_m_rows,
        _harness_dictionary,
        _preserve_invariants,
        _preserve_columns,
    ),
    "certify": Workload(
        "certify",
        {"full": {"s_grid": [1, 2, 3], "campaigns": 1}, "tiny": {"s_grid": [1], "campaigns": 1}},
        _certify_config,
        _certify_campaign,
        lambda cfg: len(cfg.s_grid),
        _certify_dictionary,
        _certify_invariants,
        _certify_columns,
    ),
    "phase": Workload(
        "phase",
        {"full": {"m_grid": [8, 12, 16, 20], "trials": 1, "campaigns": 10},
         "tiny": {"m_grid": [8], "trials": 1, "campaigns": 1}},
        _phase_config,
        lambda cfg: _parse_csv(nsplab.run_phase_transition(cfg)),
        _per_m_rows,
        _harness_dictionary,
        _phase_invariants,
        _phase_columns,
    ),
    "width": Workload(
        "width",
        {"full": {"n_grid": [14, 28, 56], "samples": 10000, "campaigns": 1},
         "tiny": {"n_grid": [14], "samples": 100, "campaigns": 1}},
        _width_config,
        lambda cfg: _parse_csv(nsplab.run_width_compare(cfg)),
        lambda cfg: len(cfg.n_grid) * len(cfg.s_grid) * len(cfg.gamma_grid),
        _width_setup,
        _width_invariants,
        _width_columns,
    ),
}


# --------------------------------------------------------------------------
# Checking


def _matches(wl: Workload, row: dict, ref: dict) -> bool:
    cols = wl.columns(ref)
    return set(row) == set(cols) and all(close(row[c], ref[c]) for c, close in cols.items())


def check_rows(workload: str, rows: list, cfg, reference: list | None) -> list:
    """One bool per row, True when the row is correct.

    Rows are matched to the reference by position, so a missing or extra row
    fails too.  Without a reference only the invariants apply.
    """
    wl = WORKLOADS[workload]
    try:
        ok = wl.invariants(rows, cfg)
    except (KeyError, ValueError):
        ok = [False] * len(rows)
    if reference is not None:
        ok = [o and i < len(reference) and _matches(wl, r, reference[i])
              for i, (o, r) in enumerate(zip(ok, rows))]
        ok += [False] * (len(reference) - len(rows))
    return ok


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_references(workload: str, size: str) -> dict:
    """Stored rows by config seed; empty unless stored for this size's parameters."""
    path = reference_path(workload)
    if not path.exists():
        return {}
    stored = json.loads(path.read_text())
    if stored["params"] != WORKLOADS[workload].params(size):
        return {}
    return stored["rows"]
