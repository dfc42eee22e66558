"""Command line interface: coefficient tables, series dumps, forest-formula
dumps, cumulant conversion, and the verification suites of ``prelie.checks``.

Exit codes: 0 success, 1 verification failure, 2 input error.  Output is
deterministic for a given configuration; rationals are always rendered as
strings ("p/q").  Enumeration orders are capped (12 for tree tables and
series, 9 where sol1 runs, 8 for forest-formula indices, 6 for the forest
--k, 7 for cumulant word lengths, and per suite for verify) unless
--unsafe-uncapped is given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from math import factorial

from . import checks, freeprelie, nc
from .checks import FOREST_CAP, SOL1_CAP, SUITES, TREE_CAP
from .exactnum import format_rational
from .forest import (CKBasis, WordBasis, decorated_string,
                     enumerate_decorated_trees, _slot_maps)
from .trees import (LEAF, enumerate_trees, murua_omega, num_linearizations,
                    sigma, tree_factorial)

CUMULANT_CAP = 7
K_CAP = 6  # forest --k: 3 s for a grade-8 corolla in full flavor


def _write_output(text: str, path):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _input_error(message: str) -> int:
    print("error: %s" % message, file=sys.stderr)
    return 2


def _over_cap(what: str, value: int, cap: int) -> int:
    return _input_error("%s %d exceeds the cap %d (pass --unsafe-uncapped to "
                        "override)" % (what, value, cap))


# ---------------------------------------------------------------------------
# trees

def cmd_trees(args) -> int:
    if args.max_order > TREE_CAP and not args.unsafe_uncapped:
        return _over_cap("--max-order", args.max_order, TREE_CAP)
    if args.max_order < 1:
        return _input_error("--max-order must be >= 1")
    rows = []
    for n in range(1, args.max_order + 1):
        for idx, t in enumerate(enumerate_trees(n)):
            rows.append({
                "tree": t.key,
                "order": n,
                "index": "%d:%d" % (n, idx),
                "sigma": str(sigma(t)),
                "factorial": str(tree_factorial(t)),
                "linext": str(num_linearizations(t)),
                "cm": str(freeprelie.cm_coefficient(t)),
                "omega": format_rational(murua_omega(t)),
            })
    if args.format == "json":
        _write_output(json.dumps(rows, indent=2), args.output)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        _write_output(buf.getvalue(), args.output)
    return 0


# ---------------------------------------------------------------------------
# series

def _series_exp(order: int, method: str):
    """Exponential of the one-vertex tree, reported as Connes-Moscovici
    integers (|t|! times the raw series coefficient)."""
    if method == "closed":
        acc = {}
        for n in range(1, order + 1):
            for t in enumerate_trees(n):
                acc[t] = freeprelie.cm_coefficient(t)
        return freeprelie.TreeSeries(acc, order)
    if method == "fixed-point":
        raw = freeprelie.prelie_exp(freeprelie.TreeSeries({LEAF: 1}), order)
        return freeprelie.TreeSeries(
            {t: c * factorial(t.size) for t, c in raw.terms.items()}, order)
    raise ValueError("exp supports methods closed and fixed-point only")


def _series_magnus(order: int, method: str):
    if method == "closed":
        return freeprelie.magnus_closed_form(order)
    if method == "fixed-point":
        return freeprelie.magnus_fixed_point(
            freeprelie.TreeSeries({LEAF: 1}), order)
    if method == "sol1":
        gen = freeprelie.TreeSeries({LEAF: 1})
        return freeprelie.tree_part(
            freeprelie.sol1(freeprelie.poly_exp(gen, order)))
    raise ValueError("unknown method %r" % method)


def cmd_series(args) -> int:
    if args.order < 1:
        return _input_error("--order must be >= 1")
    # sol1 runs for --method sol1 and for every magnus --check
    cap = SOL1_CAP if args.which == "magnus" and (
        args.method == "sol1" or args.check) else TREE_CAP
    if args.order > cap and not args.unsafe_uncapped:
        return _over_cap("--order", args.order, cap)
    compute = _series_exp if args.which == "exp" else _series_magnus
    methods = ("closed", "fixed-point") if args.which == "exp" \
        else ("closed", "fixed-point", "sol1")
    if args.method not in methods:
        return _input_error("--which %s does not support --method %s"
                            % (args.which, args.method))
    series = compute(args.order, args.method)
    if args.check:
        results = {m: series if m == args.method else compute(args.order, m)
                   for m in methods}
        base = results[args.method]
        for m in methods:
            if results[m] != base:
                keys = sorted(set(base.terms) | set(results[m].terms),
                              key=base.sort_key)
                for t in keys:
                    if base.coeff(t) != results[m].coeff(t):
                        print("verification failure: methods %s and %s "
                              "disagree at %s: %s vs %s"
                              % (args.method, m, t.key,
                                 base.coeff(t), results[m].coeff(t)),
                              file=sys.stderr)
                        return 1
    _write_output(json.dumps(series.to_json(), indent=2), args.output)
    return 0


# ---------------------------------------------------------------------------
# cumulants

def cmd_cumulants(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
        return _input_error("cannot read table: %s" % exc)
    try:
        table = nc.CumulantTable.from_json(data)
    except ValueError as exc:
        return _input_error(str(exc))
    if table.brand != args.source:
        return _input_error("table brand is %r but --from is %r"
                            % (table.brand, args.source))
    if table.maxlen > CUMULANT_CAP and not args.unsafe_uncapped:
        return _over_cap("table maxlen", table.maxlen, CUMULANT_CAP)
    try:
        out = nc.convert(table, args.target, route=args.route)
    except ValueError as exc:
        return _input_error(str(exc))
    _write_output(json.dumps(out.to_json(), indent=2), args.output)
    return 0


# ---------------------------------------------------------------------------
# forest

def cmd_forest(args) -> int:
    if args.basis == "ck":
        basis = CKBasis()
    else:
        try:
            basis = WordBasis(args.alphabet)
        except ValueError as exc:
            return _input_error("bad --alphabet: %s" % exc)
    # the grade is read off the text and checked before the index is:
    # validating G:O, or ranking a bracket tree (one "[" per vertex), lists
    # every basis element of grade G
    try:
        if ":" in args.index:
            g, o = args.index.split(":", 1)
            index = (int(g), int(o))
            grade = index[0]
        else:
            index = None
            grade = args.index.count("[") if args.basis == "ck" \
                else len(args.index)
        if grade > FOREST_CAP and not args.unsafe_uncapped:
            return _over_cap("index grade", grade, FOREST_CAP)
        if index is None:
            index = basis.parse(args.index)
        else:
            basis.validate(index)
    except ValueError as exc:
        return _input_error("bad --index: %s" % exc)
    if args.k < 1:
        return _input_error("--k must be >= 1")
    if args.k > K_CAP and not args.unsafe_uncapped:
        return _over_cap("--k", args.k, K_CAP)
    lines = []
    for T, lam in enumerate_decorated_trees(index, basis):
        tree_str = decorated_string(T, basis)
        for slots in sorted(_slot_maps(T, args.k, args.flavor)):
            rendered = ["·".join(basis.label(j) for j in slot) or "1"
                        for slot in slots]
            lines.append((tree_str, rendered, lam))
    lines.sort(key=lambda row: (row[0], row[1]))
    if args.format == "json":
        text = "\n".join(
            json.dumps({"tree": t, "lambda": str(lam), "slots": slots})
            for t, slots, lam in lines)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["tree", "lambda"] + ["slot%d" % (j + 1) for j in range(args.k)])
        for t, slots, lam in lines:
            writer.writerow([t, str(lam)] + slots)
        text = buf.getvalue()
    _write_output(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    if args.max_order is not None and args.max_order < 1:
        return _input_error("--max-order must be >= 1")
    selected = list(SUITES) if args.suite == "all" else [args.suite]
    orders = {name: args.max_order or SUITES[name].order for name in selected}
    over = [name for name, order in orders.items()
            if order > SUITES[name].cap and not args.unsafe_uncapped]
    for name in over:
        _over_cap("%s suite order" % name, orders[name], SUITES[name].cap)
    if over:
        return 2
    failures = 0
    for name, order in orders.items():
        for identity, instances, failure in checks.run(name, order):
            print("%s %s.%s (%d instances)"
                  % ("FAIL" if failure else "PASS", name, identity, instances))
            if failure:
                failures += 1
                print(json.dumps({"suite": name, "identity": identity,
                                  **failure}), file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prelie",
        description="Exact rooted-tree, forest-formula and cumulant computations.")
    parser.add_argument("--unsafe-uncapped", action="store_true",
                        help="lift the built-in order caps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trees", help="statistics table for all rooted trees")
    p.add_argument("--max-order", type=int, default=6)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("series", help="pre-Lie exponential or Magnus series of "
                                      "the one-vertex tree")
    p.add_argument("--which", choices=("exp", "magnus"), required=True)
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--method", choices=("closed", "fixed-point", "sol1"),
                   default="closed")
    p.add_argument("--check", action="store_true",
                   help="recompute with every method and compare")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("cumulants", help="convert a cumulant/moment table")
    p.add_argument("--from", dest="source", choices=nc.BRANDS, required=True)
    p.add_argument("--to", dest="target", choices=nc.BRANDS, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--route", choices=("direct", "via-moments"), default="direct")
    p.set_defaults(func=cmd_cumulants)

    p = sub.add_parser("forest", help="dump forest-formula terms for one index")
    p.add_argument("--basis", choices=("ck", "words"), required=True)
    p.add_argument("--index", required=True,
                   help="basis label (tree brackets / word) or grade:ordinal")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--flavor", choices=("reduced", "full", "irr"),
                   default="reduced")
    p.add_argument("--alphabet", default="ab")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_forest)

    p = sub.add_parser("verify", help="run the identity verification suites")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    p.add_argument("--max-order", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
