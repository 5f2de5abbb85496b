"""The benchmark's own self-test, run against this checkout's library.

``perfbench/`` calls the library by name (``run_lcc_controlled_form``,
``LccRunResult.success``, ``QuantumState.kind``,
``ProtocolTranscript.rounds`` and more).  Its self-test runs every
workload at smoke size, so a name the benchmark needs that the library
drops fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/selftest.py"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
