"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Tiny campaigns only: every workload must emit every metric BENCHMARK.json
names, and a wrong row must count as a failure.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNT_METRICS, Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _tiny(workload: str, trace: int, capsys) -> tuple:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
            "--size", "tiny"]
    assert run.main(argv) == 0
    out = capsys.readouterr().out
    return _result(out), out


def test_workloads_match_benchmark_json():
    assert set(NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(workload, trace, key, capsys):
    result, out = _tiny(workload, trace, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "failed_frac" in out and "provenance {" in out


def _flip_first_verdict(rows):
    rows = [dict(r) for r in rows]
    rows[0]["verdict"] = "fails" if rows[0]["verdict"] == "holds" else "holds"
    return rows


def test_flipped_verdict_counts_as_failed():
    wl = workloads.WORKLOADS["preserve"]
    cfg = wl.config(3, "tiny")
    rows = wl.run(3, "tiny")
    assert all(workloads.check_rows("preserve", rows, cfg, None))
    assert all(workloads.check_rows("preserve", rows, cfg, rows))
    bad = _flip_first_verdict(rows)
    assert not all(workloads.check_rows("preserve", bad, cfg, None))
    assert not all(workloads.check_rows("preserve", bad, cfg, rows))


def _replace_campaign(monkeypatch, name, campaign):
    wl = workloads.WORKLOADS[name]
    monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(wl, campaign=campaign))


def test_injected_wrong_row_raises_failed_frac(monkeypatch, capsys):
    campaign = workloads.WORKLOADS["preserve"].campaign
    _replace_campaign(monkeypatch, "preserve", lambda cfg: _flip_first_verdict(campaign(cfg)))
    result, out = _tiny("preserve", 0, capsys)
    assert result["correct"] is False
    assert result["failed"] > 0
    frac = float(next(ln for ln in out.splitlines() if "failed_frac" in ln).split()[1])
    assert frac > 0.0


def test_raising_campaign_fails_every_row(monkeypatch, capsys):
    def boom(cfg):
        raise RuntimeError("injected")

    _replace_campaign(monkeypatch, "certify", boom)
    result, _ = _tiny("certify", 0, capsys)
    assert result["failed"] == result["attempted"] >= 1


def test_reference_tolerances_not_byte_identity():
    wl = workloads.WORKLOADS["certify"]
    cfg = wl.config(3, "tiny")
    ref = [{"s": "1", "verdict": "holds", "gamma_star": "0.5"}]
    near = [{"s": "1", "verdict": "holds", "gamma_star": repr(0.5 + 1e-12)}]
    far = [{"s": "1", "verdict": "holds", "gamma_star": repr(0.5 + 1e-6)}]
    assert workloads.check_rows("certify", near, cfg, ref) == [True]
    assert workloads.check_rows("certify", far, cfg, ref) == [False]
    assert workloads.check_rows("certify", [], cfg, ref) == [False]


def test_unstored_seed_is_unchecked(capsys):
    assert str(workloads.config_seed(10**9, 0)) not in workloads.load_references("certify", "full")
    assert workloads.load_references("certify", "tiny") == {}
    _, out = _tiny("certify", 0, capsys)
    assert "0 of 1 campaigns checked" in out and "UNCHECKED" in out


def test_traced_counts_repeat_exactly():
    wl = workloads.WORKLOADS["preserve"]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            wl.run(3, "tiny")
        finally:
            tracer.uninstall()
        m = layer_metrics(tracer.spans, 1.0, 0)
        counts.append({k: m[k] for k in COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["simplex.pivots"] > 0 and counts[0]["numerics.kernel_basis.calls"] > 0


def test_uninstall_restores_attributes():
    import nsplab.nsp

    before = nsplab.nsp.solve_lp
    tracer = Tracer()
    tracer.install()
    assert nsplab.nsp.solve_lp is not before
    tracer.uninstall()
    assert nsplab.nsp.solve_lp is before


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
