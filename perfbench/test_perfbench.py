"""Self-test of the benchmark's own machinery.

    python3 perfbench/test_perfbench.py

Checks the self-time arithmetic on synthetic spans, that the traced run
prints exactly what the untraced CLI prints, and that every public name of
every layer module is wrapped.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
import tempfile
import time
import unittest
from unittest import mock
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import run  # noqa: E402
import spans  # noqa: E402

# public module-level functions that are deliberately not wrapped:
# iter_words is a generator (a span would time only its creation) and
# build_parser only sets up argparse inside cli.main
NOT_WRAPPED = {"nc.iter_words", "cli.build_parser"}


def synthetic_tracer(rows) -> spans.Tracer:
    """A tracer holding the spans (name, parent, run, start, end, terms)."""
    tracer = spans.Tracer()
    tracer.names = sorted({r[0] for r in rows})
    for name, parent, run_id, start, end, terms in rows:
        tracer.span_name.append(tracer.names.index(name))
        tracer.span_parent.append(parent)
        tracer.span_run.append(run_id)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
        tracer.span_terms.append(terms)
    return tracer


class SelfTime(unittest.TestCase):

    def test_nested_children(self):
        # root [0,10]: child a [1,4] with grandchild [2,3], child b [5,9]
        # with grandchildren [5.5,6] and [7,8.5]
        parents = [-1, 0, 1, 0, 3, 3]
        starts = [0.0, 1.0, 2.0, 5.0, 5.5, 7.0]
        ends = [10.0, 4.0, 3.0, 9.0, 6.0, 8.5]
        got = list(spans.self_times(parents, starts, ends))
        self.assertEqual(got, [10 - 3 - 4, 3 - 1, 1.0, 4 - 0.5 - 1.5, 0.5, 1.5])

    def test_summary_by_layer_and_run(self):
        tracer = synthetic_tracer([
            ("cli.main", -1, 0, 0.0, 10.0, 0),
            ("trees.sigma", 0, 0, 1.0, 3.0, 0),
            ("freeprelie.sol1", 0, 0, 4.0, 9.0, 7),
            ("lincomb.TermMap.__add__", 2, 0, 5.0, 6.0, 3),
            ("freeprelie.gl_product", 2, 0, 6.5, 8.5, 5),
            ("freeprelie.gl_product", 4, 0, 7.0, 8.0, 2),  # nested: not outermost
            ("cli.main", -1, 1, 20.0, 21.0, 0),
        ])
        cold, warm = spans.summarize(tracer, [])
        self.assertEqual(cold["wall"], 10.0)
        self.assertEqual(cold["self"]["cli"], 10.0 - 2.0 - 5.0)
        self.assertEqual(cold["self"]["trees"], 2.0)
        self.assertEqual(cold["self"]["freeprelie"], (5.0 - 1.0 - 2.0) + 1.0 + 1.0)
        self.assertEqual(cold["self"]["lincomb"], 1.0)
        self.assertEqual(sum(cold["self"].values()), cold["wall"])
        self.assertEqual(cold["terms"]["freeprelie"], 14)
        self.assertEqual(cold["fn_s"]["freeprelie.gl_product"], 3.0)
        self.assertEqual(warm["wall"], 1.0)
        self.assertEqual(warm["self"]["cli"], 1.0)
        self.assertEqual(spans.terms_below(
            tracer, "freeprelie.sol1", ("freeprelie.gl_product",), 0), 5)

    def test_wrapper_cost_is_taken_out(self):
        tracer = synthetic_tracer([
            ("cli.main", -1, 0, 0.0, 10.0, 0),
            ("trees.sigma", 0, 0, 1.0, 3.0, 0),
            ("nc.convert", 0, 0, 4.0, 9.0, 0),
            ("trees.sigma", 2, 0, 5.0, 6.0, 0),
        ])
        tracer.cost_in, tracer.cost_out, tracer.cost_reentry = 0.25, 0.5, 0.125
        # names sorted: cli.main, nc.convert, trees.sigma; sigma re-entered 4 times
        (cold,) = spans.summarize(tracer, [[1, 1, 6]])
        self.assertEqual(cold["self"]["cli"], 3.0 - 0.25 - 2 * 0.5)
        self.assertEqual(cold["self"]["nc"], 4.0 - 0.25 - 0.5)
        self.assertEqual(cold["self"]["trees"], 3.0 - 2 * 0.25 - 4 * 0.125)
        self.assertEqual(cold["wrapper"], 4 * 0.25 + 3 * 0.5 + 4 * 0.125)
        self.assertEqual(sum(cold["self"].values()) + cold["wrapper"],
                         cold["wall"])

    def test_calibrated_costs(self):
        tracer = spans.Tracer()
        tracer.calibrate()
        self.assertGreater(tracer.cost_out, 0.0)
        self.assertGreaterEqual(tracer.cost_in, 0.0)
        self.assertGreaterEqual(tracer.cost_reentry, 0.0)


class Wrapping(unittest.TestCase):

    def setUp(self):
        self.tracer = spans.Tracer()
        self.tracer.install()
        self.addCleanup(self.tracer.uninstall)

    def test_every_public_name_is_wrapped(self):
        wrapped = set(self.tracer.names)
        packages = [m for n, m in sys.modules.items()
                    if n == "prelie" or n.startswith("prelie.")]
        for layer in spans.LAYERS:
            module = importlib.import_module("prelie." + layer)
            listed = set(getattr(module, "__all__", ()))
            for name, obj in vars(module).items():
                if name.startswith("_") or \
                        getattr(obj, "__module__", None) != module.__name__:
                    continue
                qual = "%s.%s" % (layer, name)
                if inspect.isfunction(obj):
                    if qual in NOT_WRAPPED:
                        continue
                    self.assertTrue(layer == "cli" or name in listed,
                                    "%s is public but missing from __all__" % qual)
                    self.assertIn(qual, wrapped)
                    original = inspect.unwrap(obj)
                    for pkg in packages:
                        for attr, value in vars(pkg).items():
                            self.assertIsNot(
                                value, original, "%s.%s still binds the "
                                "unwrapped %s" % (pkg.__name__, attr, qual))
                elif inspect.isclass(obj):
                    self.assertIn(name, listed, "%s is public but missing "
                                  "from __all__" % qual)
                    every = (layer, name) in spans.ALL_METHODS
                    for attr, raw in vars(obj).items():
                        func = getattr(raw, "__func__", raw)
                        if not inspect.isfunction(func) or \
                                (attr.startswith("_") and not every):
                            continue
                        self.assertIn("%s.%s" % (qual, attr), wrapped)
                        self.assertTrue(hasattr(func, "__wrapped__"),
                                        "%s.%s is not wrapped" % (qual, attr))

    def test_recursion_opens_one_span(self):
        from prelie import trees
        t = trees.tree_from_string("[[[[]][]][[]]]")
        trees._SIGMA.clear()
        before = len(self.tracer)
        trees.sigma(t)
        nid = self.tracer.names.index("trees.sigma")
        self.assertEqual(len(self.tracer) - before, 1)
        self.assertGreater(self.tracer.calls[nid], 1)


class TracedOutput(unittest.TestCase):
    """The wrappers change no result: traced stdout equals untraced stdout."""

    def check(self, argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        untraced = subprocess.run([sys.executable, "-m", "prelie.cli"] + argv,
                                  stdout=subprocess.PIPE, env=env, check=True)
        want = hashlib.sha256(untraced.stdout).hexdigest()
        tracer, passes = run.traced_passes([argv], time.perf_counter())
        self.assertGreater(len(tracer), 0)
        self.assertEqual(len(passes), 2)
        for p in passes:
            (res,) = p["results"]
            self.assertIsNone(res["error"])
            self.assertEqual(res["code"], 0)
            self.assertEqual(run.sha256(res["out"]), want)

    def test_raising_pass_is_recorded(self):
        from prelie import cli

        def broken(args):
            raise RuntimeError("broken on purpose")

        with mock.patch.object(cli, "cmd_trees", broken):
            _, passes = run.traced_passes(
                [["trees", "--max-order", "2"], ["trees", "--help"]],
                time.perf_counter())
        self.assertEqual(len(passes), 2)
        for p in passes:
            raised, helped = p["results"]
            self.assertNotEqual(raised["code"], 0)
            self.assertIn("broken on purpose", raised["error"])
            # a raising command does not stop the pass
            self.assertEqual(helped["code"], 0)
            self.assertIsNone(helped["error"])

    def test_every_command(self):
        self.check(["trees", "--max-order", "7"])
        self.check(["series", "--which", "magnus", "--order", "4", "--check"])
        self.check(["verify", "--suite", "all", "--max-order", "3"])
        self.check(["forest", "--basis", "ck", "--index", "[[][]]", "--k", "3"])
        with tempfile.TemporaryDirectory() as tmp:
            table = run.cumulant_table(5)
            table["maxlen"] = 4
            table["values"] = {w: v for w, v in table["values"].items()
                               if len(w) <= 4}
            path = Path(tmp) / "table.json"
            path.write_text(json.dumps(table), encoding="utf-8")
            self.check(["cumulants", "--from", "free", "--to", "monotone",
                        "--route", "via-moments", "--input", str(path)])


if __name__ == "__main__":
    unittest.main()
