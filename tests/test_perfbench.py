"""Smoke test of the benchmark harness: every workload at its smallest size."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_quick_schema():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--quick"], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "quick: schema ok" in proc.stdout.splitlines()
