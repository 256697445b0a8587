"""The benchmark's output checks, run as part of the test suite.

`perfbench/selftest.py` makes one real output per workload and shows that
its check accepts it and rejects every corruption, so a change to the
output of `validate` or `reproduce` that the benchmark would refuse fails
here too.  Its scratch files go under the git-ignored `perfbench/.work/`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
