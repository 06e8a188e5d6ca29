import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run_demo(name):
    """Run a demo with warnings as errors, as pytest runs the tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("name", [d for d in DEMOS if d != "sparse_recovery.py"])
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr


def test_sparse_recovery_demo_runs():
    proc = run_demo("sparse_recovery.py")
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("homotopy: ") for line in proc.stdout.splitlines())
