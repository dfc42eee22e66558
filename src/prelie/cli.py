"""Command line interface: coefficient tables, series dumps, forest-formula
dumps, cumulant conversion, and the self-verification suites.

Exit codes: 0 success, 1 verification failure, 2 input error.  Output is
deterministic for a given configuration; rationals are always rendered as
strings ("p/q").  Enumeration orders are capped (12 for tree tables, 8 for
forest-formula indices, 7 for cumulant word lengths) unless --unsafe-uncapped
is given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

from . import freeprelie, nc, words
from .exactnum import format_rational
from .forest import (CKBasis, WordBasis, decorated_string,
                     enumerate_decorated_trees, forest_formula, _slot_maps)
from .trees import (LEAF, enumerate_forests, enumerate_trees,
                    count_k_linearizations, count_weak_k_linearizations,
                    murua_omega, murua_omega_recursive, num_linearizations,
                    sigma, tree_factorial)

TREE_CAP = 12
FOREST_CAP = 8
CUMULANT_CAP = 7


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
    if args.order > TREE_CAP and not args.unsafe_uncapped:
        return _over_cap("--order", args.order, TREE_CAP)
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
    except (OSError, json.JSONDecodeError) as exc:
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
    # a bracket tree has one "[" per vertex; count them before the parse,
    # which recurses once per level
    if args.basis == "ck" and args.index.count("[") > FOREST_CAP \
            and not args.unsafe_uncapped:
        return _over_cap("index grade", args.index.count("["), FOREST_CAP)
    try:
        if ":" in args.index:
            g, o = args.index.split(":", 1)
            index = (int(g), int(o))
            basis.validate(index)
        else:
            index = basis.parse(args.index)
    except ValueError as exc:
        return _input_error("bad --index: %s" % exc)
    if args.k < 1:
        return _input_error("--k must be >= 1")
    grade = basis.grade(index)
    if grade > FOREST_CAP and not args.unsafe_uncapped:
        return _over_cap("index grade", grade, FOREST_CAP)
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

def _suite_trees(order: int):
    # enumeration vs the Euler-transform style recursion on rooted-tree counts
    target = max(order, 2)
    a = [0, 1]
    for n in range(1, target):
        total = 0
        for k in range(1, n + 1):
            div_sum = sum(d * a[d] for d in range(1, k + 1) if k % d == 0)
            total += div_sum * a[n - k + 1]
        a.append(total // n)
    counts_ok = all(len(enumerate_trees(n)) == a[n] for n in range(1, target + 1)
                    if n < len(a))
    yield ("tree-counts-vs-recursion", counts_ok, target, None)

    cayley_ok = True
    for n in range(1, order + 1):
        s = sum(Fraction(factorial(n), sigma(t)) for t in enumerate_trees(n))
        if s != n ** (n - 1):
            cayley_ok = False
    yield ("cayley-sum", cayley_ok, order, None)

    omega_ok, bad = True, None
    for n in range(1, order + 1):
        for t in enumerate_trees(n):
            if murua_omega(t) != murua_omega_recursive(t):
                omega_ok, bad = False, {"tree": t.key}
    yield ("omega-direct-vs-recursive", omega_ok,
           sum(len(enumerate_trees(n)) for n in range(1, order + 1)), bad)

    weak_ok, bad, cases = True, None, 0
    for n in range(1, min(order, 5) + 1):
        for f in enumerate_forests(n):
            for k in range(1, 5):
                lhs = count_weak_k_linearizations(f, k)
                rhs = sum(comb(k, l) * count_k_linearizations(f, l)
                          for l in range(1, k + 1))
                cases += 1
                if lhs != rhs:
                    weak_ok, bad = False, {"forest": f.key, "k": k}
    yield ("weak-vs-surjective-binomial", weak_ok, cases, bad)


def _suite_hopf(order: int):
    pool = [f for n in range(0, order + 1) for f in enumerate_forests(n)]
    dual_ok, bad, cases = True, None, 0
    for fz in pool:
        if fz.size == 0:
            continue
        dz = freeprelie.ck_coproduct(fz)
        for fx in pool:
            for fy in pool:
                if fx.size + fy.size != fz.size:
                    continue
                lhs = freeprelie.pairing(
                    freeprelie.gl_product(freeprelie.ForestPoly({fx: 1}),
                                          freeprelie.ForestPoly({fy: 1})),
                    freeprelie.ForestPoly({fz: 1}))
                rhs = freeprelie.tensor_pairing(
                    freeprelie.TensorPoly(2, {(fx, fy): 1}), dz)
                cases += 1
                if lhs != rhs:
                    dual_ok, bad = False, {"x": fx.key, "y": fy.key, "z": fz.key}
    yield ("gl-ck-duality", dual_ok, cases, bad)

    coassoc_ok, bad, cases = True, None, 0
    for n in range(1, order + 1):
        for t in enumerate_trees(n):
            left = freeprelie.iterated_coproduct(t, 3)
            right_terms = {}
            for (a, b), c in freeprelie.ck_coproduct(t).terms.items():
                for (b1, b2), d in freeprelie.ck_coproduct(
                        freeprelie.ForestPoly({b: 1})).terms.items():
                    key = (a, b1, b2)
                    right_terms[key] = right_terms.get(key, Fraction(0)) + c * d
            cases += 1
            if left != freeprelie.TensorPoly(3, right_terms):
                coassoc_ok, bad = False, {"tree": t.key}
    yield ("coassociativity", coassoc_ok, cases, bad)


def _suite_magnus(order: int):
    m1 = freeprelie.magnus_closed_form(order)
    m2 = freeprelie.magnus_fixed_point(freeprelie.TreeSeries({LEAF: 1}), order)
    m3 = freeprelie.tree_part(freeprelie.sol1(
        freeprelie.poly_exp(freeprelie.TreeSeries({LEAF: 1}), order)))
    agree = m1 == m2 == m3
    yield ("magnus-three-way", agree,
           sum(len(enumerate_trees(n)) for n in range(1, order + 1)),
           None if agree else {"order": order})

    inv_order = min(order, 5)
    composed = freeprelie.prelie_exp(
        freeprelie.magnus_closed_form(inv_order), inv_order)
    want = freeprelie.TreeSeries({LEAF: 1}, inv_order)
    ok = composed == want
    yield ("exp-after-magnus-identity", ok, inv_order,
           None if ok else {"order": inv_order})


def _suite_words(order: int):
    alphabet = "ab"
    dual_ok, bad, cases = True, None, 0
    pool = [w for n in range(1, order + 1)
            for w in words.enumerate_words(alphabet, n)]
    for w in pool:
        L = len(w)
        by_n = {}
        for (l, r), c in words.word_dual_coproduct(w).terms.items():
            by_n.setdefault(len(r), {}).setdefault(l[0], []).append((r, c))
        for ncuts in range(1, L):
            for cuts in combinations(range(1, L), ncuts):
                lens = [b - a for a, b in zip((0,) + cuts, cuts + (L,))]
                for alpha in words.enumerate_words(alphabet, lens[0]):
                    for gam in product(*[words.enumerate_words(alphabet, m)
                                         for m in lens[1:]]):
                        lhs = words.word_pairing(words.word_brace(alpha, gam), w)
                        gm = words.monomial(gam)
                        rhs = Fraction(0)
                        for r, c in by_n.get(len(gam), {}).get(alpha, []):
                            rhs += c * words._mono_pairing(gm, r)
                        cases += 1
                        if lhs != rhs:
                            dual_ok, bad = False, {"alpha": alpha,
                                                   "gammas": list(gam), "w": w}
    yield ("brace-coproduct-duality", dual_ok, cases, bad)

    grading_ok, bad, cases = True, None, 0
    for w in pool:
        for (l, r), _ in words.word_dual_coproduct(w).terms.items():
            cases += 1
            if len(l[0]) + sum(len(u) for u in r) != len(w):
                grading_ok, bad = False, {"w": w}
    yield ("coproduct-grading", grading_ok, cases, bad)


def _suite_forest(order: int):
    ck = CKBasis()
    ok, bad, cases = True, None, 0
    for n in range(1, order + 1):
        for t in enumerate_trees(n):
            i = ck.index_of(t)
            for k in range(2, 5):
                for flavor, direct in (
                        ("full", freeprelie.iterated_coproduct),
                        ("reduced", freeprelie.reduced_iterated_coproduct),
                        ("irr", freeprelie.irr_iterated_coproduct)):
                    got = ck.slot_tensor(forest_formula(i, k, flavor, ck), k)
                    cases += 1
                    if got != direct(t, k):
                        ok, bad = False, {"tree": t.key, "k": k, "flavor": flavor}
    yield ("ck-forest-formula-vs-direct", ok, cases, bad)

    wb = WordBasis("ab")
    ok, bad, cases = True, None, 0
    max_len = min(order, 5)
    for n in range(1, max_len + 1):
        for w in words.enumerate_words("ab", n):
            i = wb.index_of(w)
            poly = words.WordPoly({(w,): 1})
            for k in range(2, 5):
                for flavor in ("full", "reduced", "irr"):
                    got = wb.slot_tensor(forest_formula(i, k, flavor, wb), k)
                    cases += 1
                    if got != words.word_iterated_coproducts(poly, k, flavor):
                        ok, bad = False, {"word": w, "k": k, "flavor": flavor}
    yield ("word-forest-formula-vs-direct", ok, cases, bad)


def _suite_cumulants(order: int):
    rng = random.Random(20210917)
    variables = ("a", "b")
    N = min(order, 6)

    def rand_table(brand):
        return nc.CumulantTable(brand, variables, N, {
            w: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for w in nc.iter_words(variables, N)})

    moments = rand_table("moment")
    ok, bad, cases = True, None, 0
    for brand in ("free", "boolean", "monotone"):
        back = nc.convert(nc.convert(moments, brand), "moment")
        cases += 1
        if back != moments:
            ok, bad = False, {"brand": brand}
    yield ("moment-roundtrips", ok, cases, bad)

    ok, bad, cases = True, None, 0
    for src in nc.BRANDS:
        tab = moments if src == "moment" else rand_table(src)
        for tgt in nc.BRANDS:
            cases += 1
            if nc.convert(tab, tgt, "direct") != nc.convert(tab, tgt, "via-moments"):
                ok, bad = False, {"from": src, "to": tgt}
    yield ("direct-vs-via-moments", ok, cases, bad)

    # through moments: the direct monotone -> boolean / free sums are the
    # ones exp_functional and magnus_functional evaluate
    rho = rand_table("monotone")
    beta = nc.convert(rho, "boolean", "via-moments")
    nu = nc.convert(rho, "free", "via-moments")
    ok, bad, cases = True, None, 0
    for w in nc.iter_words(variables, N):
        checks = (
            nc.exp_functional(rho.values, w) == beta.values[w],
            -nc.exp_functional(rho.negated().values, w) == nu.values[w],
            nc.magnus_functional(beta.values, w) == rho.values[w],
            -nc.magnus_functional(nu.negated().values, w) == rho.values[w],
        )
        cases += 4
        if not all(checks):
            ok, bad = False, {"word": w}
    yield ("exp-magnus-functionals", ok, cases, bad)


SUITES = {
    "trees": (_suite_trees, 6),
    "hopf": (_suite_hopf, 6),
    "magnus": (_suite_magnus, 6),
    "words": (_suite_words, 5),
    "forest": (_suite_forest, 5),
    "cumulants": (_suite_cumulants, 6),
}


def cmd_verify(args) -> int:
    if args.max_order is not None and args.max_order < 1:
        return _input_error("--max-order must be >= 1")
    selected = list(SUITES) if args.suite == "all" else [args.suite]
    orders = {name: args.max_order or SUITES[name][1] for name in selected}
    for name, order in orders.items():
        cap = FOREST_CAP if name == "forest" else TREE_CAP
        if order > cap and not args.unsafe_uncapped:
            return _over_cap("%s suite order" % name, order, cap)
    failures = 0
    for name, order in orders.items():
        for identity, ok, cases, record in SUITES[name][0](order):
            # an identity checked on no instance has shown nothing
            passed = ok and cases > 0
            print("%s %s.%s (%d instances)"
                  % ("PASS" if passed else "FAIL", name, identity, cases))
            if not passed:
                failures += 1
                detail = {"instance": record} if not ok else \
                    {"reason": "no instances"}
                print(json.dumps({"suite": name, "identity": identity,
                                  **detail}), file=sys.stderr)
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
