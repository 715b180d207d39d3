"""The work counters pinned in bench/selftest.py still hold.

The check runs in a subprocess: the benchmark re-imports tsfrac from src/,
which would swap the package's classes under the other tests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROGRAM = """
import sys
sys.path[:0] = ["bench", "src"]
import selftest
sys.exit(0 if selftest.check_pinned() else 1)
"""


def test_pinned_work_counters():
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
