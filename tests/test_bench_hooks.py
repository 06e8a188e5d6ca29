"""The benchmark's tracer still fits the package.

bench/tracer.py replaces module attributes through which nsplab's layers
call each other and reads counts off the results.  Installing it and
running the two traced solver paths here means a signature or result change
that breaks the tracer fails in this suite, not only in bench/test_bench.py.
"""

import importlib.util
from pathlib import Path

import nsplab.nsp
from nsplab.harness import ExperimentConfig, run_phase_transition
from nsplab.rng import RngStream

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("nsplab_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_solver_spans(monkeypatch):
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        cfg = ExperimentConfig(
            "phase_transition", d=6, n=6, s=1, gamma=0.5, seed=0, dict_kind="identity",
            m_grid=(6,), trials=1,
        )
        run_phase_transition(cfg)
        # C(6, 3) = 20 circuit candidates exceed a budget of 10; C(6, 1) = 6 LPs fit it
        monkeypatch.setattr(nsplab.nsp, "CERT_BUDGET", 10)
        cert = nsplab.nsp.certify_nsp(RngStream(5).normal((2, 6)), 1)
    finally:
        tracer.uninstall()
    assert (cert.method, cert.evaluated) == ("lp", 6)

    spans = {}
    for span in tracer.spans:
        spans.setdefault(span[1], []).append(span[7])
    [(iterations, status)] = spans["solver.solve_l1_synthesis"]
    assert iterations > 0 and status == "converged"
    pivots = spans["simplex.solve_lp"]
    assert len(pivots) == 6 and all(isinstance(p, int) for p in pivots) and sum(pivots) > 0

    metrics = tracer_module.layer_metrics(tracer.spans, 1.0, 0)
    assert metrics["solver.solve_l1_synthesis.calls"] == 1
    assert metrics["solver.admm_iters"] == iterations
    assert metrics["simplex.solve_lp.calls"] == 6
    assert metrics["simplex.pivots"] == sum(pivots)
