"""The benchmark's own self-tests, run in tier-1.

``perfbench/selftest.py`` pins counts that depend on the package (neighbor
searches per pair, traced function names), so a change under ``src/`` that
breaks them fails here, not only when the benchmark runs. It runs in a
subprocess because importing the benchmark pins BLAS threads process-wide.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
