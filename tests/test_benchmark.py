"""The benchmark harness's own self-test, run as part of the test suite so
that a library change that breaks a benchmark smoke run fails here too."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave no caches under perfbench/
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
