"""Set-up time in a fresh process: import nsplab, build the workload's config
and dictionaries, print the elapsed seconds.

    python3 bench/setup_probe.py <workload> <seed> <size>
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports nsplab)

wl = WORKLOADS[sys.argv[1]]
wl.setup(wl.config(int(sys.argv[2]), sys.argv[3]))
print(repr(time.perf_counter() - _T0))
