"""Store reference rows for the benchmark's seeds.

    python3 bench/make_reference.py --seeds 0-15 [--workloads preserve certify]

Runs each workload's full-size round of campaigns for every seed and adds
their rows to reference/<workload>.json, keyed by config seed.  Rows already
stored are kept as they are, so references stay those of the commit that
first produced them; delete a file to regenerate it.  Rows that break an
invariant are never stored, and nothing is stored for a campaign that
raises.  The rows do not depend on the harness thread count, so
NSPLAB_THREADS=1 makes this faster.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, check_rows, config_seed, reference_path  # noqa: E402


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _dump(stored: dict) -> str:
    """JSON with one line per config seed, so diffs show which rows changed."""
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in stored["rows"].items())
    return f'{{"params": {json.dumps(stored["params"])},\n "rows": {{\n{rows}\n}}}}\n'


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-15")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    args = parser.parse_args()
    for name in args.workloads:
        wl = WORKLOADS[name]
        path = reference_path(name)
        stored = json.loads(path.read_text()) if path.exists() else {
            "params": wl.params("full"), "rows": {}}
        if stored["params"] != wl.params("full"):
            print(f"{path}: stored for {stored['params']}, not {wl.params('full')}", file=sys.stderr)
            return 1
        for seed in _seeds(args.seeds):
            for k in range(wl.campaigns("full")):
                key = str(config_seed(seed, k))
                if key in stored["rows"]:
                    continue
                try:
                    rows = wl.run(seed, "full", k)
                except Exception as exc:  # a raising campaign fails in every run; store nothing
                    print(f"{name} config seed {key}: raised {type(exc).__name__}: {exc}; "
                          "no rows stored", file=sys.stderr)
                    continue
                ok = check_rows(name, rows, wl.config(seed, "full", k), None)
                if len(ok) != wl.expected_rows(seed, "full", k) or not all(ok):
                    print(f"{name} config seed {key}: rows break an invariant, not stored",
                          file=sys.stderr)
                    return 1
                stored["rows"][key] = rows
            print(f"{name} seed {seed}: stored", flush=True)
            stored["rows"] = dict(sorted(stored["rows"].items(), key=lambda kv: int(kv[0])))
            path.parent.mkdir(exist_ok=True)
            path.write_text(_dump(stored))
    return 0


if __name__ == "__main__":
    sys.exit(main())
