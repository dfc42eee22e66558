"""Command line interface: coefficient tables, series dumps, forest-formula
dumps, cumulant conversion, and the verification suites of ``prelie.checks``.

Exit codes: 0 success, 1 verification failure, 2 input error (an output
that cannot be written, stdout included, counts as one).  Output is
deterministic for a given configuration; rationals are always rendered as
strings ("p/q").  Unless --unsafe-uncapped is given, enumeration orders are
capped, each cap read from ``prelie.caps``: tree tables at TREE_CAP; series
at the least cap in SERIES_CAPS of the routes that run; forest-formula
indices at FOREST_CAP and the forest --k at K_CAP; cumulant word lengths at
CUMULANT_CAP; verify at each suite's cap in SUITE_CAPS.

At the top level this module imports the standard library and
``prelie.caps`` only: the parser takes its choices and caps from that table,
and each command imports the layer modules it calls when it runs and reads
their functions as module attributes, so ``--help`` loads no layer and a
command only its own, and whatever rebinds a layer's names (a test's patch,
the benchmark's tracer) reaches the command.

Every command writes through ``_write_output``, which opens stdout or the
--output file before the first row is made and then writes the output in
pieces as the rows are made, one write per batch of at most ``_BATCH`` rows,
so no command holds the text of its whole output.  The trees table and the
series are flat records of str and int, made one tree at a time;
``_json_records`` writes each batch of them as ``json.dumps(..., indent=2)``
would write the same rows as dicts, and ``_csv_records`` puts each batch of
the trees CSV through ``csv.writer``.  The forest dump renders each distinct
row of a decorated tree once, from the per-tree counts of
``forest.slot_counts``, and writes it once per map; its index spellings and
slot texts are the basis's own.

Called as the process entry (``main()`` with no argv, as the ``prelie``
script and ``python -m prelie.cli`` call it), ``main`` freezes the heap with
``gc.freeze()`` before it returns, so the collection at interpreter exit
skips the intern tables and memos that die with the process; a caller that
passes argv runs in a process that goes on, and its heap is left as it was.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import sys
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _json_string
from math import factorial

from .caps import (BRANDS, CUMULANT_CAP, FOREST_CAP, K_CAP, SERIES_CAPS,
                   SUITE_CAPS, TREE_CAP)

# the columns of the trees table, in the order of its row tuples
_TREE_FIELDS = ("tree", "order", "index", "sigma", "factorial", "linext", "cm",
                "omega")


# rows per write: a write of the whole output would hold all of its text,
# and a write per row is one system call per row on an unbuffered stdout
# (PYTHONUNBUFFERED)
_BATCH = 1024


def _batches(items, size: int):
    """The items in lists of size, the last one shorter."""
    items = iter(items)
    while batch := list(islice(items, size)):
        yield batch


def _json_records(fields, rows, batch: int = _BATCH):
    """``json.dumps([dict(zip(fields, row)) for row in rows], indent=2)``
    for rows of str and int values, each column of one type, in pieces: one
    per batch of rows, then the closing bracket.

    The pure-Python encoder that json.dumps falls back to under ``indent``
    is skipped: the strings of a batch go through its C escaper column by
    column, and each row is one %-format of a template built from the field
    names."""
    template = "  {\n%s\n  }" % ",\n".join(
        "    %s: %%s" % _json_string(f).replace("%", "%%") for f in fields)
    head = "[\n"
    for chunk in _batches(rows, batch):
        columns = list(zip(*chunk))
        for j, value in enumerate(chunk[0]):
            if isinstance(value, str):
                columns[j] = map(_json_string, columns[j])
        yield head + ",\n".join(map(template.__mod__, zip(*columns)))
        head = ",\n"
    yield "[]" if head == "[\n" else "\n]"


def _csv_records(fields, rows):
    """The header row fields, then rows, as ``csv.writer`` writes them, in
    pieces of one batch of rows each."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fields)
    for chunk in _batches(rows, _BATCH):
        writer.writerows(chunk)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()
    yield buf.getvalue()


def _write_output(pieces, path) -> int:
    """Write the pieces of text, one write each, ended by a newline unless
    the text is empty, to stdout or to path, the same bytes either way.
    path is opened before the first piece is made; the exit code, 2 if it
    cannot be opened or written."""
    if path is None:
        _write_pieces(pieces, sys.stdout)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _write_pieces(pieces, fh)
    except OSError as exc:
        return _input_error("cannot write output: %s" % exc)
    return 0


def _write_pieces(pieces, out) -> None:
    """Write each nonempty piece to out, then a newline unless the text is
    empty or ends with one."""
    last = ""
    for piece in pieces:
        if piece:
            out.write(piece)
            last = piece
    if last and not last.endswith("\n"):
        out.write("\n")


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
    rows = _tree_rows(args.max_order)
    if args.format == "json":
        return _write_output(_json_records(_TREE_FIELDS, rows), args.output)
    return _write_output(_csv_records(_TREE_FIELDS, rows), args.output)


def _tree_rows(max_order: int):
    """The rows of the trees table, one tuple per tree, made as they are
    read."""
    from . import exactnum, trees
    for n in range(1, max_order + 1):
        top = factorial(n)
        for idx, t in enumerate(trees.enumerate_trees(n)):
            s, fac = trees.sigma(t), trees.tree_factorial(t)
            # both exact: num_linearizations and freeprelie.cm_coefficient
            # assert the divisibility
            linext = top // fac
            yield (t.key, n, "%d:%d" % (n, idx), str(s), str(fac),
                   str(linext), str(linext // s),
                   exactnum.format_rational(trees.murua_omega(t)))


# ---------------------------------------------------------------------------
# series

def cmd_series(args) -> int:
    if args.order < 1:
        return _input_error("--order must be >= 1")
    route_caps = SERIES_CAPS[args.which]
    if args.method not in route_caps:
        return _input_error("--which %s does not support --method %s"
                            % (args.which, args.method))
    others = [m for m in route_caps if args.check and m != args.method]
    cap = min(route_caps[m] for m in [args.method] + others)
    if args.order > cap and not args.unsafe_uncapped:
        return _over_cap("--order", args.order, cap)
    from . import checks
    routes = checks.ROUTES[args.which]
    series = routes[args.method][0](args.order)
    for m in others:
        other = routes[m][0](args.order)
        if other != series:
            t = min((t for t in set(series.terms) | set(other.terms)
                     if series.coeff(t) != other.coeff(t)), key=series.sort_key)
            print("verification failure: methods %s and %s disagree at %s: "
                  "%s vs %s" % (args.method, m, t.key, series.coeff(t),
                                other.coeff(t)), file=sys.stderr)
            return 1
    return _write_output(_json_records(
        ("forest", "coeff"),
        ((t.key, str(c)) for t, c in series.items())), args.output)


# ---------------------------------------------------------------------------
# cumulants

def cmd_cumulants(args) -> int:
    from . import nc
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
        out = nc.convert(table, args.target, route=args.route).to_json()
    except ValueError as exc:
        return _input_error(str(exc))
    return _write_output([json.dumps(out, indent=2)], args.output)


# ---------------------------------------------------------------------------
# forest

def cmd_forest(args) -> int:
    from . import forest
    if args.basis == "ck":
        basis = forest.CKBasis()
    else:
        try:
            basis = forest.WordBasis(args.alphabet)
        except ValueError as exc:
            return _input_error("bad --alphabet: %s" % exc)
    try:
        grade = basis.index_grade(args.index)
        if grade > FOREST_CAP and not args.unsafe_uncapped:
            return _over_cap("index grade", grade, FOREST_CAP)
        index = basis.read_index(args.index)
    except ValueError as exc:
        return _input_error("bad --index: %s" % exc)
    if args.k < 1:
        return _input_error("--k must be >= 1")
    if args.k > K_CAP and not args.unsafe_uncapped:
        return _over_cap("--k", args.k, K_CAP)
    rows = _forest_rows(basis, index, args.k, args.flavor)
    if args.format == "json":
        lines = chain.from_iterable(
            repeat(json.dumps({"tree": tree, "lambda": lam, "slots": slots})
                   + "\n", n)
            for (tree, lam, *slots), n in rows)
        return _write_output(map("".join, _batches(lines, _BATCH)),
                             args.output)
    return _write_output(_csv_records(
        ["tree", "lambda"] + ["slot%d" % (j + 1) for j in range(args.k)],
        chain.from_iterable(repeat(row, n) for row, n in rows)), args.output)


def _forest_rows(basis, index, k: int, flavor: str):
    """The distinct rows of the dump with their numbers of maps, sorted by
    (tree, slots), made one decorated tree at a time: decorated_string is
    injective, so sorting the trees by it and then each tree's rows sorts
    all rows."""
    from . import forest
    for tree, T, lam in sorted(
            ((forest.decorated_string(T, basis), T, str(lam))
             for T, lam in forest.enumerate_decorated_trees(index, basis)),
            key=lambda row: row[0]):
        yield from sorted(
            ([tree, lam] + list(map(basis.slot_text, slots)), n)
            for slots, n in forest.slot_counts(T, k, flavor).items())


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    if args.max_order is not None and args.max_order < 1:
        return _input_error("--max-order must be >= 1")
    selected = list(SUITE_CAPS) if args.suite == "all" else [args.suite]
    orders = {name: args.max_order or SUITE_CAPS[name][0] for name in selected}
    over = [name for name, order in orders.items()
            if order > SUITE_CAPS[name][1] and not args.unsafe_uncapped]
    for name in over:
        _over_cap("%s suite order" % name, orders[name], SUITE_CAPS[name][1])
    if over:
        return 2
    from . import checks
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

class _Parser(argparse.ArgumentParser):
    """An argument parser whose help text reaches stdout or raises OSError:
    the stock one drops a failed write and exits before main's flush."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())

    def exit(self, status=0, message=None):
        sys.stdout.flush()
        super().exit(status, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--which", choices=tuple(SERIES_CAPS), required=True)
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--method", default="closed", choices=sorted(
        {method for methods in SERIES_CAPS.values() for method in methods}))
    p.add_argument("--check", action="store_true",
                   help="recompute with every method and compare")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("cumulants", help="convert a cumulant/moment table")
    p.add_argument("--from", dest="source", choices=BRANDS, required=True)
    p.add_argument("--to", dest="target", choices=BRANDS, required=True)
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
    p.add_argument("--suite", choices=tuple(SUITE_CAPS) + ("all",),
                   default="all")
    p.add_argument("--max-order", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
    except OSError as exc:
        # the commands handle their own file errors, so this is stdout: full,
        # or a pipe whose reader is gone.  Point the descriptor at the null
        # device so the interpreter's flush at exit drops the rest quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _input_error("cannot write output: %s" % exc)
    finally:
        if argv is None:
            # the process entry: the heap dies with the process, so the
            # collection at exit need not walk it
            gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
