"""The benchmark's own test: smoke mode on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_runs_every_workload_in_both_modes():
    run = Path(__file__).resolve().parent / "run.py"
    out = subprocess.run([sys.executable, str(run), "--smoke"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.count(": ok") == 6, out.stdout
