"""prelie benchmark: whole CLI commands, end to end and layer by layer.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  A workload is a pair of CLI commands (see
WORKLOADS).  With ``--trace 0`` the pair runs as fresh ``python -m
prelie.cli`` processes, one at a time, for about ``--seconds`` seconds (at
least two rounds), with fresh ``prelie --help`` processes before and between
the rounds for the set-up time; the last line of stdout is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the pair first runs twice inside
this process through ``prelie.cli.main`` with every public function of every
layer wrapped in a span recorder (cold, then warm), then as untraced
processes for the reference wall time; the last line carries the per-layer
metrics.  ``--workload all`` runs every workload in turn.  End-to-end times
are scaled to a reference speed to take out the machine's drift (see
SpeedScale).

Every output is checked outside the timed region; see perfbench/README.md.
Spans and per-run records go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
SETUP_RUNS = 7
DEADLINE_S = 165.0  # every run must end within 180 s
# the time of reference_loop at the reference speed, about its median on
# the reference machine (perfbench/README.md)
REFERENCE_S = 0.22

sys.path.insert(0, str(HERE))
import spans  # noqa: E402  (the benchmark's own module, next to this file)


# ---------------------------------------------------------------------------
# workloads


def cumulant_table(seed: int) -> dict:
    """Free-cumulant table over 2 variables up to length 7 (254 words), values
    p/q with p in [-9, 9] and q in [1, 5], drawn from ``seed``."""
    rng = random.Random(seed)
    words = ["".join(w) for n in range(1, 8) for w in product("ab", repeat=n)]
    return {"brand": "free", "variables": ["a", "b"], "maxlen": 7,
            "values": {w: "%d/%d" % (rng.randint(-9, 9), rng.randint(1, 5))
                       for w in words}}


def items_rows(text: str) -> int:
    return len(json.loads(text))


def items_words(text: str) -> int:
    return len(json.loads(text)["values"])


def items_instances(text: str) -> int:
    return sum(int(n) for n in re.findall(r"\((\d+) instances\)", text))


# command -> (CLI argv, how to count the items in its output, whether --seed
# changes the input).  Why each command is here: perfbench/README.md.
COMMANDS = {
    "tree-table": (["trees", "--max-order", "12"], items_rows, False),
    "magnus-check": (["series", "--which", "magnus", "--order", "6", "--check"],
                     items_rows, False),
    "cumulant-roundtrip": (["cumulants", "--from", "free", "--to", "monotone",
                            "--route", "via-moments", "--input", "{input}"],
                           items_words, True),
    "coproduct-check": (["verify", "--suite", "forest", "--max-order", "7"],
                        items_instances, False),
}

# workload -> the commands one round of it runs, in order.  Each pair joins
# commands whose dominant layers differ, so the per-layer figures still
# tell them apart.
WORKLOADS = {
    "tables": ("tree-table", "cumulant-roundtrip"),
    "checks": ("magnus-check", "coproduct-check"),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metrics besides <layer>.self_s, <layer>.calls, <layer>.warm_self_s
FN_SECONDS = ("trees.enumerate_trees", "trees.murua_omega", "freeprelie.sol1",
              "freeprelie.gl_product", "freeprelie.prelie",
              "freeprelie.magnus_fixed_point", "freeprelie.iterated_coproduct",
              "lincomb.iterate_coproduct", "forest.forest_formula",
              "forest.enumerate_decorated_trees",
              "words.word_iterated_coproducts", "nc.convert", "nc.enumerate_nc")
FN_CALLS = ("trees.murua_omega", "trees.sigma", "freeprelie.gl_product",
            "words.word_dual_coproduct", "nc.enumerate_nc", "nc.nesting_forest",
            "exactnum.bernoulli")


def per_layer_units() -> dict:
    units = {}
    for layer in spans.LAYERS:
        units["%s.self_s" % layer] = "s"
        units["%s.calls" % layer] = "count"
    for name in FN_SECONDS:
        units[name + ".s"] = "s"
    for name in FN_CALLS:
        units[name + ".calls"] = "count"
    units["freeprelie.terms_out"] = "count"
    units["freeprelie.sol1.tree_share"] = "ratio"
    for layer in spans.LAYERS:
        units["%s.warm_self_s" % layer] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.wrapper_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# checks (always outside the timed region)


def expected_digests() -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checker:
    """Decides whether one output of a command is correct.

    Fixed commands, and cumulant-roundtrip at the default seed, must give
    stdout with the digest recorded at the seed commit.  Any cumulant output
    is also converted back to free cumulants through the library and must
    give the generated input exactly.  coproduct-check must print PASS on
    every line.  Verdicts are cached by digest, so the costly round trip
    runs once per distinct output.
    """

    def __init__(self, command: str, seed: int, table: dict | None):
        fixed = not COMMANDS[command][2]
        self.want = (expected_digests().get(command)
                     if fixed or seed == DEFAULT_SEED else None)
        self.command = command
        self.table = table
        self.verdicts: dict[str, str | None] = {}

    def __call__(self, code: int, out: str, err: str) -> str | None:
        """None when the output is correct, otherwise the reason."""
        if code != 0:
            return "exit code %d" % code
        if "Traceback" in err:
            return "traceback on stderr"
        digest = sha256(out)
        if digest not in self.verdicts:
            self.verdicts[digest] = self._judge(digest, out)
        return self.verdicts[digest]

    def _judge(self, digest: str, out: str) -> str | None:
        if self.want is not None and digest != self.want:
            return "stdout digest %s, expected %s" % (digest[:16], self.want[:16])
        if self.command == "coproduct-check":
            lines = out.splitlines()
            if not lines or any(not l.startswith("PASS ") for l in lines):
                return "a verify line is not PASS"
        if self.table is not None:
            from prelie import nc
            given = nc.CumulantTable.from_json(self.table)
            try:
                got = nc.CumulantTable.from_json(json.loads(out))
            except ValueError as exc:
                return "stdout is not a cumulant table: %s" % exc
            if nc.convert(got, "free") != given:
                return "converting the output back to free does not give the input"
        return None


# ---------------------------------------------------------------------------
# untraced processes


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline()


def run_cli(argv: list, timeout: float, env: dict, tag: str):
    """Run one ``python -m prelie.cli`` process through perfbench/launch.py;
    return (exit code, stdout, stderr, wall s, cpu s, peak rss MB) of that
    process alone.  Exit code -1 means it was killed at the timeout."""
    out_path, err_path = OUT / (tag + ".out"), OUT / (tag + ".err")
    request = {"argv": [sys.executable, "-m", "prelie.cli"] + argv,
               "stdout": str(out_path), "stderr": str(err_path),
               "timeout": max(timeout, 0.01)}
    # the launcher kills the CLI at the timeout and then returns at once
    reply = subprocess.run(
        [sys.executable, "-S", str(HERE / "launch.py"), json.dumps(request)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT, env=env,
        check=True, text=True)
    r = json.loads(reply.stdout)
    text = out_path.read_text(encoding="utf-8", errors="replace")
    errs = err_path.read_text(encoding="utf-8", errors="replace")
    return (-1 if r["killed"] else r["code"], text, errs, r["wall_s"],
            r["cpu_s"], r["peak_rss_mb"])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def reference_loop() -> Fraction:
    """Fixed pure-Python work of the kinds prelie does, over a working set
    of a few MB: tuple keys, a dict of Fraction values built from them, and
    a Fraction sum over the dict in shuffled order."""
    keys = [(i % 97, (i // 97) % 89, ((i * 7) % 13,)) for i in range(50000)]
    table = {k: Fraction(k[0] - 48, k[1] + 1) for k in keys}
    random.Random(5).shuffle(keys)
    total = Fraction(0)
    for k in keys[:20000]:
        total += table[k]
    return total


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class SpeedScale:
    """Scales the times of measured processes to the reference speed.

    The machine's speed drifts by tens of percent over minutes (see
    perfbench/README.md).  So the reference loop runs right before and
    right after every measured process, and that process's times are
    multiplied by REFERENCE_S over the mean of the two reference times.
    """

    def __init__(self):
        self.times = [reference_time()]

    def factor(self) -> float:
        """Call right after a measured process: its scale factor."""
        self.times.append(reference_time())
        return REFERENCE_S / ((self.times[-2] + self.times[-1]) / 2)


def probe_setup(env: dict, start: float) -> tuple:
    """Wall time of one fresh ``prelie --help`` process, and whether it
    printed the usage."""
    code, out, _, wall, _, _ = run_cli(
        ["--help"], DEADLINE_S - (time.perf_counter() - start), env, "setup")
    return wall, code == 0 and out.startswith("usage: prelie")


def measure(commands: list, budget: float, min_rounds: int, env: dict,
            start: float) -> dict:
    """Run rounds of the workload, each round its ``commands`` (name, argv,
    checker) one process at a time: a closed loop with a single client.
    Stop when the next round would end after ``budget`` seconds, once
    ``min_rounds`` rounds are done.  Set-up probes run first (one
    unmeasured, to fill the bytecode cache, then SETUP_RUNS) and once after
    every round, so set-up time is sampled over the whole run.  Checks run
    between processes, off the clock.  A round's wall and CPU time are the
    sums over its processes, its peak RSS their maximum.  Every time comes
    as measured ("raw_" lists) and scaled by SpeedScale."""
    walls, cpus, rss, failures = [], [], [], []
    raw_walls, raw_setup = [], []
    by_command = {name: [] for name, _, _ in commands}
    first_out = {}
    _, setup_ok = probe_setup(env, start)
    scale = SpeedScale()
    setup = []

    def probe():
        nonlocal setup_ok
        wall, ok = probe_setup(env, start)
        raw_setup.append(wall)
        setup.append(wall * scale.factor())
        setup_ok = setup_ok and ok

    for _ in range(SETUP_RUNS):
        probe()
    t_begin = time.perf_counter()
    killed = False
    while not killed:
        elapsed = time.perf_counter() - t_begin
        left = DEADLINE_S - (time.perf_counter() - start)
        if raw_walls:
            est = statistics.median(raw_walls)
            if (len(walls) >= min_rounds and elapsed + est > budget) \
                    or left < 1.5 * est + 10:
                break
        round_raw = round_wall = round_cpu = round_rss = 0.0
        for name, argv, check in commands:
            left = DEADLINE_S - (time.perf_counter() - start)
            code, out, err, wall, cpu, mb = run_cli(argv, left - 5, env, name)
            f = scale.factor()
            by_command[name].append(wall)
            round_raw += wall
            round_wall += wall * f
            round_cpu += cpu * f
            round_rss = max(round_rss, mb)
            why = (check(code, out, err) if code != -1
                   else "killed at the deadline")
            if why is not None:
                failures.append("%s: %s" % (name, why))
            elif name not in first_out:
                first_out[name] = out
            if code == -1:
                killed = True
                break
        raw_walls.append(round_raw)
        walls.append(round_wall)
        cpus.append(round_cpu)
        rss.append(round_rss)
        if not killed:
            probe()
    return {"walls": walls, "cpus": cpus, "rss": rss, "failures": failures,
            "by_command": by_command, "out": first_out, "setup": setup,
            "setup_ok": setup_ok, "raw_walls": raw_walls,
            "raw_setup": raw_setup, "reference": scale.times}


def tail(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return "n/a (needs 11 samples, have %d)" % n
    return "p%d %.4f s" % (100 * (n - 10) // n, sorted(samples)[n - 11])


# ---------------------------------------------------------------------------
# traced run


def traced_passes(argvs: list, start: float):
    """Run ``prelie.cli.main(argv)`` for every argv in ``argvs``, in order,
    as one pass, twice in this process with every layer wrapped.  Returns
    the tracer and, per pass, its wall time, the tracer's call counts and
    sol1 tree count for that pass, and per argv the exit code, stdout and
    the traceback if it raised."""
    from prelie import cli
    tracer = spans.Tracer()
    tracer.install()
    passes = []
    signal.signal(signal.SIGALRM, _alarm)
    try:
        for run in (0, 1):
            tracer.begin(run)
            signal.setitimer(signal.ITIMER_REAL,
                             max(DEADLINE_S - (time.perf_counter() - start), 0.01))
            results = []
            t0 = time.perf_counter()
            for argv in argvs:
                buf = io.StringIO()
                error = None
                try:
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(argv)
                except Deadline:
                    code = -1
                except SystemExit as exc:  # argparse exits on a bad argv
                    code = (exc.code if isinstance(exc.code, int)
                            else int(exc.code is not None))
                except Exception:
                    code, error = 1, traceback.format_exc()
                results.append({"code": code, "out": buf.getvalue(),
                                "error": error})
                if code == -1:
                    break
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            passes.append({"wall": wall, "results": results,
                           "calls": list(tracer.calls),
                           "sol1_trees": tracer.sol1_trees})
            if results[-1]["code"] == -1:
                break
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        tracer.uninstall()
    return tracer, passes


def layer_metrics(tracer, cold_pass: dict, summaries: list,
                  overhead: float) -> dict:
    units = per_layer_units()
    cold = summaries[0]
    warm = summaries[1] if len(summaries) > 1 else None
    calls_by_name = dict(zip(tracer.names, cold_pass["calls"]))
    values = {}
    for layer in spans.LAYERS:
        values["%s.self_s" % layer] = cold["self"][layer]
        values["%s.calls" % layer] = sum(
            c for n, c in calls_by_name.items() if n.split(".", 1)[0] == layer)
        values["%s.warm_self_s" % layer] = warm["self"][layer] if warm else 0.0
    for name in FN_SECONDS:
        values[name + ".s"] = cold["fn_s"].get(name, 0.0)
    for name in FN_CALLS:
        values[name + ".calls"] = calls_by_name.get(name, 0)
    values["freeprelie.terms_out"] = cold["terms"]["freeprelie"]
    values["freeprelie.sol1.tree_share"] = sol1_tree_share(
        tracer, cold_pass["sol1_trees"])
    values["trace.overhead_s"] = overhead
    values["trace.wrapper_s"] = cold["wrapper"]
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# products whose terms sol1 builds before the non-tree ones cancel
PRODUCTS = ("freeprelie.graft", "freeprelie.prelie", "freeprelie.brace",
            "freeprelie.gl_product", "freeprelie.poly_mul")


def sol1_tree_share(tracer, trees: int) -> float:
    """Useful over attempted terms of sol1 in the cold pass: the ``trees``
    single-tree terms of its output over the terms of the products it
    formed (outermost product calls inside sol1).  0 when sol1 formed no
    product."""
    made = spans.terms_below(tracer, "freeprelie.sol1", PRODUCTS, 0)
    return trees / made if made else 0.0


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    input_path = OUT / ("%s-seed%d.json" % (name, seed))
    commands = []
    print("workload %s  seed %d" % (name, seed))
    for command in WORKLOADS[name]:
        template, _, seeded = COMMANDS[command]
        table = cumulant_table(seed) if seeded else None
        if seeded:
            input_path.write_text(json.dumps(table, indent=1), encoding="utf-8")
        argv = [a.replace("{input}", str(input_path.relative_to(ROOT)))
                for a in template]
        commands.append((command, argv, Checker(command, seed, table)))
        print("  %-18s prelie %s%s" % (command, " ".join(argv), "" if seeded
              else "  (fixed input: the seed changes nothing)"))
    env = child_env()

    record = {"workload": name, "seed": seed, "trace": int(trace),
              "argv": {command: argv for command, argv, _ in commands}}
    if trace:
        # traced passes first: the output checks import prelie into this
        # process and would warm its caches before the cold pass.  The
        # untraced rounds then get what is left of the run's seconds.
        tracer, passes = traced_passes([argv for _, argv, _ in commands], start)
        budget, min_rounds = seconds - (time.perf_counter() - start), 1
    else:
        budget, min_rounds = seconds, 2
    m = measure(commands, budget, min_rounds, env, start)
    walls = m["walls"]
    wall = statistics.median(walls)
    setup = statistics.median(m["setup"])
    items = sum(COMMANDS[command][1](m["out"][command])
                for command, _, _ in commands if command in m["out"])
    # every command process is one attempted run, the set-up probes one more
    failed = len(m["failures"]) + (0 if m["setup_ok"] else 1)
    attempted = sum(len(w) for w in m["by_command"].values()) + 1
    raw_wall = statistics.median(m["raw_walls"])
    raw_setup = statistics.median(m["raw_setup"])
    record.update(samples=walls, cpu=m["cpus"], rss=m["rss"],
                  raw_samples=m["raw_walls"], by_command=m["by_command"],
                  failures=m["failures"], items=items, setup=m["setup"],
                  raw_setup=m["raw_setup"], setup_ok=m["setup_ok"],
                  reference=m["reference"])
    for why in m["failures"]:
        print("  FAILED run: %s" % why)
    if not m["setup_ok"]:
        print("  FAILED set-up probe: prelie --help did not print its usage")
    print("  times scaled to the reference speed; reference loop %.4f s "
          "median, %.4f s at that speed" % (
              statistics.median(m["reference"]), REFERENCE_S))
    print("  wall_s      %.4f s median over %d rounds (%.4f s as measured); "
          "tail %s" % (wall, len(walls), raw_wall, tail(walls)))
    for command, samples in m["by_command"].items():
        print("    %-18s %.4f s median as measured, over %d" % (
            command, statistics.median(samples), len(samples)))
    print("  cpu_s       %.4f s median" % statistics.median(m["cpus"]))
    print("  items_per_s %.4f 1/s (%d items)" % (items / wall, items))
    print("  peak_rss_mb %.2f MB median" % statistics.median(m["rss"]))
    print("  setup_s     %.4f s median of %d prelie --help (%.4f s as measured)"
          % (setup, len(m["setup"]), raw_setup))

    if not trace:
        metrics = {"wall_s": wall, "cpu_s": statistics.median(m["cpus"]),
                   "items_per_s": items / wall,
                   "peak_rss_mb": statistics.median(m["rss"]),
                   "setup_s": setup}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}
    else:
        summaries = spans.summarize(tracer, [p["calls"] for p in passes])
        for i, p in enumerate(passes):
            for (command, _, check), res in zip(commands, p["results"]):
                attempted += 1
                if res["code"] == -1:
                    why = "killed at the deadline"
                elif res["error"] is not None:
                    why = "raised:\n" + res["error"]
                else:
                    why = check(res["code"], res["out"], "")
                if why is None and res["out"] != m["out"].get(command):
                    why = "traced output differs from the untraced output"
                if why is not None:
                    failed += 1
                    print("  FAILED traced pass %d, %s: %s" % (i, command, why))
        # the in-process pass has no interpreter start-up or imports, so it
        # is compared with the untraced wall time less the set-up time of
        # each process in a round, both as measured like the pass itself
        cold_wall = passes[0]["wall"]
        reference = raw_wall - len(commands) * raw_setup
        overhead = cold_wall - reference
        spans_path = OUT / ("%s-seed%d.spans" % (name, seed))
        tracer.write(spans_path, {"workload": name, "seed": seed})
        metrics = layer_metrics(tracer, passes[0], summaries, overhead)
        self_sum = sum(summaries[0]["self"].values())
        print("  traced      cold %.4f s, warm %s; %d spans -> %s"
              % (cold_wall,
                 "%.4f s" % passes[1]["wall"] if len(passes) > 1 else "n/a",
                 len(tracer), spans_path.relative_to(ROOT)))
        print("  wrapper cost %.0f ns per span inside it, %.0f ns outside it, "
              "%.0f ns per re-entrant call"
              % (tracer.cost_in * 1e9, tracer.cost_out * 1e9,
                 tracer.cost_reentry * 1e9))
        print("  self times sum to %.4f s; with the %.4f s wrapper cost taken "
              "out of them, %.4f s of the %.4f s traced wall"
              % (self_sum, summaries[0]["wrapper"],
                 self_sum + summaries[0]["wrapper"], cold_wall))
        print("  untraced wall less set-up %.4f s; traced wall minus that, "
              "the overhead, %.4f s" % (reference, overhead))
        for key, val in metrics.items():
            print("  %-40s %s %s" % (key, val["value"], val["unit"]))
        record.update(traced_walls=[p["wall"] for p in passes])

    print("  failed_share %.4f (%d of %d runs)" % (failed / attempted, failed, attempted))
    record["metrics"] = metrics
    with open(OUT / ("%s-seed%d-trace%d.json" % (name, seed, int(trace))),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prelie" / "cli.py").is_file():
        print("error: no prelie sources at %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    if args.workload != "all":
        sys.path.insert(0, str(SRC))
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    else:
        # one process per workload, so no workload runs with another's
        # memo tables or imports already in place
        results = {}
        for name in WORKLOADS:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                 str(args.trace)], stdout=subprocess.PIPE, text=True, check=True)
            print(child.stdout, end="", flush=True)
            results[name] = json.loads(child.stdout.splitlines()[-1])
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
