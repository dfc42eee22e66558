"""The benchmark's tracer wraps every public function of the layer modules;
its self-test fails when a change to the package breaks that wrapping."""

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/test_perfbench.py"],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:]


@pytest.mark.parametrize("layer", ["trees", "lincomb", "freeprelie", "words",
                                   "forest", "nc", "exactnum"])
def test_public_callables_are_functions_or_classes(layer):
    # the tracer wraps only what inspect.isfunction or inspect.isclass
    # accepts; a functools.cache object is neither and would lose its span
    # without any error, so memos go on private workers
    module = importlib.import_module("prelie." + layer)
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj):
            assert inspect.isfunction(obj) or inspect.isclass(obj), \
                "prelie.%s.%s is neither a plain function nor a class" % (layer, name)
