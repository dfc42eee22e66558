"""The benchmark's tracer wraps every public function of the layer modules;
its self-test fails when a change to the package breaks that wrapping."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/test_perfbench.py"],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:]
