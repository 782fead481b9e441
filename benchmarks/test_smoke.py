"""Smoke test of the benchmark itself: tiny versions of all three workloads
must run correctly, untraced and traced, and emit every metric that
BENCHMARK.json names, each with its unit.

    python3 -m pytest benchmarks/test_smoke.py -q
"""
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_emits_every_named_metric():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.splitlines()[-1] == "smoke ok"
