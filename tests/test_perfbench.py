"""The benchmark's self-test, run as part of the test suite.

``perfbench/selftest.py`` checks the benchmark's reference computations
against the documented fixture answers and closed forms, and shows that
single alterations of a real ``analyze`` report are flagged; it imports
nothing from stochrat except through the ``analyze`` command it runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
