"""The benchmark under ``perfbench/`` calls into ``src/``; its own tests
run here so that a change to those calls shows in this suite.  They run in
a subprocess because both suites have a ``conftest`` module, and one
collection cannot import the two."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_suite_passes():
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench/tests"], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
