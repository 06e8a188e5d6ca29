"""nsplab campaign benchmark.

    python3 bench/run.py --workload preserve --seed 1 --seconds 15 --trace 0

Runs one workload's campaigns through nsplab's public API, checks every
output row, and prints the metrics by name and unit.  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.

--trace 0 measures the end-to-end metrics with no instrumentation: rounds of
the workload's campaigns repeat while another round fits in --seconds (at
least one), and wall_s and cpu_s are medians over all campaigns run.
--trace 1 runs one untraced round and one traced round and reports the
per-layer metrics of the traced one; its spans are written to .bench_out/
when the run ends.

Workloads and why each exists: see README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 5  # measured fresh processes per run, after one warm-up
THREAD_ENV = ("NSPLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if ".us_per_" in name:
        return "us"
    if name.endswith(("_frac", "_over_wall", "_per_lp")):
        return "ratio"
    return "count"


def provenance() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "nsplab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        sha = proc.stdout.strip() or None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    env = {k: os.environ.get(k) for k in THREAD_ENV}
    flags = []
    if env["NSPLAB_THREADS"] is not None:
        flags.append("NSPLAB_THREADS is set: the harness pool size differs from its default")
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "env": env,
        "flags": flags,
    }


def measure_setup(workload: str, seed: int, size: str) -> list:
    """Set-up seconds of SETUP_PROBES fresh processes (one more to warm the caches)."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), size],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times[1:]


class Campaigns:
    """Runs rounds of one workload's campaigns and checks every row.

    A round is the workload's fixed list of campaigns, each on its own
    inputs derived from the seed.
    """

    def __init__(self, workload: str, seed: int, size: str):
        from workloads import WORKLOADS, check_rows, config_seed, load_references

        self.wl = WORKLOADS[workload]
        self.seed, self.size = seed, size
        self.count = self.wl.campaigns(size)
        stored = load_references(workload, size)
        self.references = [stored.get(str(config_seed(seed, k))) for k in range(self.count)]
        self._check = check_rows
        self.attempted = 0
        self.failed = 0

    def _try(self, size: str, k: int):
        try:
            return self.wl.run(self.seed, size, k)
        except Exception as exc:  # reported; the caller fails the campaign's rows
            print(f"{size} campaign {k} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def warm_up(self):
        """An unchecked, untimed tiny campaign."""
        self._try("tiny", 0)

    def _run_one(self, k: int) -> tuple:
        t0, c0 = time.perf_counter(), time.process_time()
        rows = self._try(self.size, k)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        expected = self.wl.expected_rows(self.seed, self.size, k)
        if rows is None:
            ok = [False] * expected
        else:
            ok = self._check(self.wl.name, rows, self.wl.config(self.seed, self.size, k),
                             self.references[k])
            ok += [False] * (expected - len(ok))
        self.attempted += len(ok)
        self.failed += ok.count(False)
        return wall, cpu

    def run_round(self) -> tuple:
        """(wall seconds, cpu seconds) of each campaign of one checked round."""
        return tuple(zip(*(self._run_one(k) for k in range(self.count))))


def run_untraced(c: Campaigns, seconds: float) -> dict:
    c.warm_up()
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        w, u = c.run_round()
        walls += w
        cpus += u
        if time.perf_counter() - start + sum(w) > seconds:
            break
    return {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus), "walls": walls}


def run_traced(c: Campaigns, trace_file: Path, prov: dict) -> dict:
    """One untraced round, then one traced round; per-layer metrics of the latter."""
    from tracer import Tracer, layer_metrics

    c.warm_up()
    untraced = sum(c.run_round()[0])
    tracer = Tracer()
    tracer.install()
    try:
        walls = c.run_round()[0]
    finally:
        tracer.uninstall()
    traced = sum(walls)
    metrics = layer_metrics(tracer.spans, traced, threading.get_ident())
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(json.dumps({
        "provenance": prov,
        "untraced_round_wall_s": untraced,
        "traced_campaign_wall_s": walls,
        "metrics": metrics,
        "spans": tracer.to_json(),
    }))
    return {"metrics": metrics, "walls": walls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("preserve", "certify", "phase", "width"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smallest campaigns, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "nsplab" / "__init__.py").is_file():
        print(f"nsplab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nsplab

    if Path(nsplab.__file__).resolve().parent != SRC / "nsplab":
        print(f"imported nsplab from {nsplab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    prov = provenance()
    for flag in prov["flags"]:
        print(f"warning: {flag}", file=sys.stderr)
    c = Campaigns(args.workload, args.seed, args.size)

    if args.trace:
        trace_file = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        result = run_traced(c, trace_file, prov)
        metrics = result["metrics"]
        notes = [f"spans written to {trace_file.relative_to(ROOT)}"]
    else:
        setup = measure_setup(args.workload, args.seed, args.size)
        result = run_untraced(c, args.seconds)
        metrics = {
            "wall_s": result["wall_s"],
            "cpu_s": result["cpu_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = ["setup_s probes: " + " ".join(f"{t:.4f}" for t in setup)]

    failed_frac = c.failed / c.attempted
    stored = sum(r is not None for r in c.references)
    checked = (f"{stored} of {c.count} campaigns checked against stored reference rows"
               + ("" if stored == c.count else "; the others UNCHECKED, invariants only"))
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, trace {args.trace}: "
          f"{len(result['walls'])} campaigns, {c.attempted} rows, {checked}")
    print("campaign wall seconds: " + " ".join(f"{w:.4f}" for w in result["walls"]))
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6g} {_unit(name)}")
    print(f"  {'failed_frac':45s} {failed_frac:14.6g} ratio  ({c.failed} of {c.attempted} rows)")
    print("provenance " + json.dumps(prov))
    print(json.dumps({
        "correct": c.failed == 0,
        "attempted": c.attempted,
        "failed": c.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
