"""Span recorder for the benchmark's traced run.

``Tracer.install()`` wraps the public surface of every prelie layer module:
each module's ``__all__`` functions, the public methods of its ``__all__``
classes, every method of ``TermMap`` and ``BasisProvider``, and ``cli.main``
with the ``cli.cmd_*`` handlers.  The wrapper replaces the original in every
``prelie.*`` namespace that binds it, so call sites that did
``from .trees import sigma`` are recorded too.

Each outermost call opens a span: name, start, end, parent span, run id and
the number of terms it returned, kept in flat arrays until the run ends.  A
call that re-enters a function already on the span stack (graft, sigma, the
CK cut recursion) is counted but opens no span, so recursion does not
multiply the spans.

The wrapper's own bookkeeping runs outside the clock readings of the span it
opens, so it would land in the self time of the enclosing span.  At install
the tracer times wrapped empty functions to get the cost of one span and of
one re-entrant call, and ``summarize`` takes those costs back out of the
self times and reports their sum as the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from array import array

LAYERS = ("cli", "trees", "lincomb", "freeprelie", "words", "forest", "nc",
          "exactnum")

# classes whose private and special methods are wrapped as well: the linear
# combination arithmetic and the forest-formula basis interface
ALL_METHODS = {("lincomb", "TermMap"), ("forest", "BasisProvider")}

CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 5

SPAN_COLUMNS = ("span_name", "span_parent", "span_run", "span_start", "span_end",
                "span_terms")


def public_names(module) -> list:
    """Names of a layer module's public surface, as listed by the module."""
    if module.__name__ == "prelie.cli":
        return ["main"] + sorted(n for n in vars(module) if n.startswith("cmd_"))
    return list(module.__all__)


def targets(layer: str, module):
    """Yield (span name, owner, attribute, raw attribute value) for every
    callable of ``module`` that the tracer wraps.  ``owner`` is the module
    or the class that holds the attribute."""
    for name in public_names(module):
        obj = vars(module)[name]
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports such as exactnum.Rational = Fraction
        if inspect.isfunction(obj):
            yield "%s.%s" % (layer, name), module, name, obj
        elif inspect.isclass(obj):
            every = (layer, name) in ALL_METHODS
            for attr, raw in vars(obj).items():
                func = getattr(raw, "__func__", raw)
                if not inspect.isfunction(func):
                    continue
                if attr.startswith("_") and not every:
                    continue
                yield "%s.%s.%s" % (layer, name, attr), obj, attr, raw


class Tracer:
    """In-memory span store plus the wrappers that fill it.

    Spans are numbered in the order they open, so a span's children follow
    it and are sorted by start time.  ``run`` tags the spans of one pass of
    the workload (0 cold, 1 warm).
    """

    def __init__(self):
        self.names: list[str] = []     # name id -> span name
        self.calls: list[int] = []     # name id -> calls, re-entrant ones too
        self.sol1_trees = 0            # single-tree terms sol1 has returned
        # wrapper cost in seconds: inside a span's own clock readings, of a
        # span outside them (charged to its parent), of a re-entrant call
        self.cost_in = self.cost_out = self.cost_reentry = 0.0
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_run = array("B")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_terms = array("I")   # terms of the TermMap returned, else 0
        self.run = 0
        self._stack = [-1]
        self._installed: list[tuple] = []

    def __len__(self):
        return len(self.span_name)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, func, termmap=()):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        calls, stack = self.calls, self._stack
        s_name, s_parent, s_run = self.span_name, self.span_parent, self.span_run
        s_start, s_end, s_terms = self.span_start, self.span_end, self.span_terms
        count_trees = name == "freeprelie.sol1"
        clock = time.perf_counter
        active = [False]
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            if active[0]:
                return func(*args, **kwargs)
            active[0] = True
            sid = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_run.append(tracer.run)
            s_start.append(0.0)
            s_end.append(0.0)
            s_terms.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[0] = False
                s_start[sid] = t0
                s_end[sid] = t1
            if isinstance(result, termmap):
                s_terms[sid] = len(result.terms)
                if count_trees:
                    tracer.sol1_trees += sum(1 for f in result.terms
                                             if len(f.trees) == 1)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind it wherever prelie binds it."""
        self.calibrate()
        modules = {layer: importlib.import_module("prelie." + layer)
                   for layer in LAYERS}
        termmap = modules["lincomb"].TermMap
        swap: dict[int, tuple] = {}  # id(original function) -> (original, wrapper)
        for layer, module in modules.items():
            for name, owner, attr, raw in list(targets(layer, module)):
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._wrap(name, raw.__func__, termmap))
                else:
                    wrapped = self._wrap(name, raw, termmap)
                if inspect.isclass(owner):
                    self._installed.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                else:
                    swap[id(raw)] = (raw, wrapped)
        for modname, module in list(sys.modules.items()):
            if modname != "prelie" and not modname.startswith("prelie."):
                continue
            for attr, value in list(vars(module).items()):
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def calibrate(self) -> None:
        """Set the wrapper costs from wrapped functions that do nothing: the
        median over CALIBRATION_REPEATS of the extra time per call over
        CALIBRATION_CALLS calls, against the same calls unwrapped."""
        n = CALIBRATION_CALLS

        def leaf(_):
            pass

        def loop(k):
            f = target[0]
            for _ in range(k):
                f(0)

        def per_call(f):
            target[0] = f
            t0 = clock()
            loop(n)
            return (clock() - t0) / n

        scratch = Tracer()
        wrapped_leaf = scratch._wrap("leaf", leaf)
        wrapped_loop = scratch._wrap("loop", loop)
        clock = time.perf_counter
        target = [None]
        ins, outs, reentries = [], [], []
        for _ in range(CALIBRATION_REPEATS):
            plain_leaf = per_call(leaf)
            first = len(scratch)
            opened = per_call(wrapped_leaf)
            inside = max(sum(scratch.span_end[i] - scratch.span_start[i]
                             for i in range(first, len(scratch))) / n
                         - plain_leaf, 0.0)
            plain_loop = per_call(loop)
            target[0] = wrapped_loop   # every call below re-enters loop
            first = len(scratch)
            wrapped_loop(n)
            reentered = (scratch.span_end[first] - scratch.span_start[first]) / n
            ins.append(inside)
            outs.append(max(opened - plain_leaf - inside, 0.0))
            reentries.append(max(reentered - plain_loop, 0.0))
        self.cost_in = statistics.median(ins)
        self.cost_out = statistics.median(outs)
        self.cost_reentry = statistics.median(reentries)

    def begin(self, run: int) -> None:
        """Start pass ``run``: its spans get that run id, counters restart."""
        self.run = run
        self.calls[:] = [0] * len(self.calls)
        self.sol1_trees = 0

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def write(self, path, header: dict) -> None:
        """Write the spans: one JSON line (``header``, the span names and
        the array layout), then the span arrays in native byte order."""
        cols = [(c, getattr(self, c)) for c in SPAN_COLUMNS]
        meta = dict(header, spans=len(self), names=self.names,
                    columns=[[c, a.typecode] for c, a in cols],
                    byteorder=sys.byteorder)
        with open(path, "wb") as fh:
            fh.write(json.dumps(meta).encode("utf-8") + b"\n")
            for _, a in cols:
                a.tofile(fh)


def self_times(parents, starts, ends) -> array:
    """Self time of every span: its duration minus the durations of its
    child spans.  One thread records the spans with try/finally, so children
    never overlap each other or outlast their parent."""
    n = len(parents)
    own = array("d", (ends[i] - starts[i] for i in range(n)))
    for i in range(n):
        if parents[i] >= 0:
            own[parents[i]] -= ends[i] - starts[i]
    return own


def summarize(tracer: Tracer, calls_by_run: list) -> list:
    """Per run, {"self": {layer: s}, "terms": {layer: n}, "fn_s": {span
    name: s}, "wall": s, "wrapper": s}: each layer's self time without the
    wrapper cost, its returned terms, each name's inclusive time, the time
    the run's root spans cover and the wrapper cost taken out of the self
    times.  ``calls_by_run[r]`` holds the per-name call counts of run ``r``;
    a name's calls beyond its spans are re-entries, charged to its layer."""
    own = self_times(tracer.span_parent, tracer.span_start, tracer.span_end)
    layer_of = [LAYERS.index(n.split(".", 1)[0]) for n in tracer.names]
    runs = max(tracer.span_run, default=-1) + 1
    self_s = [[0.0] * len(LAYERS) for _ in range(runs)]
    terms = [[0] * len(LAYERS) for _ in range(runs)]
    fn_s = [[0.0] * len(tracer.names) for _ in range(runs)]
    opened = [[0] * len(tracer.names) for _ in range(runs)]
    wall = [0.0] * runs
    wrapper = [0.0] * runs
    names, parents, run_of = tracer.span_name, tracer.span_parent, tracer.span_run
    starts, ends, span_terms = tracer.span_start, tracer.span_end, tracer.span_terms
    cost_in, cost_out = tracer.cost_in, tracer.cost_out
    for i in range(len(tracer)):
        r, nid, p = run_of[i], names[i], parents[i]
        dur = ends[i] - starts[i]
        self_s[r][layer_of[nid]] += own[i] - cost_in
        wrapper[r] += cost_in
        if p >= 0:
            self_s[r][layer_of[names[p]]] -= cost_out
            wrapper[r] += cost_out
        else:
            wall[r] += dur
        terms[r][layer_of[nid]] += span_terms[i]
        fn_s[r][nid] += dur
        opened[r][nid] += 1
    for r, calls in enumerate(calls_by_run):
        for nid, n in enumerate(calls):
            cost = (n - opened[r][nid]) * tracer.cost_reentry
            self_s[r][layer_of[nid]] -= cost
            wrapper[r] += cost
    return [{"self": dict(zip(LAYERS, self_s[r])),
             "terms": dict(zip(LAYERS, terms[r])),
             "fn_s": dict(zip(tracer.names, fn_s[r])),
             "wall": wall[r], "wrapper": wrapper[r]} for r in range(runs)]


def terms_below(tracer: Tracer, outer: str, inner, run: int) -> int:
    """Terms returned by the outermost spans named in ``inner`` that open
    inside a span named ``outer``, in one run."""
    ids = {tracer.names.index(n) for n in inner if n in tracer.names}
    top = tracer.names.index(outer) if outer in tracer.names else -1
    total = 0
    inside_until = skip_until = float("-inf")
    for i in range(len(tracer)):
        if tracer.span_run[i] != run:
            continue
        nid, start = tracer.span_name[i], tracer.span_start[i]
        if nid == top:
            inside_until = max(inside_until, tracer.span_end[i])
        elif nid in ids and skip_until <= start < inside_until:
            total += tracer.span_terms[i]
            skip_until = tracer.span_end[i]
    return total
