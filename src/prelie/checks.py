"""The cross-route identities that ``prelie verify`` reruns.

Each identity is a generator named after it, ``_`` for ``-``, that yields
one ``(instance record, got, want)`` per instance; the two sides come from
routes that do not call each other.  ``run`` counts and compares them.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

from . import freeprelie, nc, words
from .forest import CKBasis, WordBasis, forest_formula
from .freeprelie import ForestPoly, TensorPoly, TreeSeries
from .trees import (LEAF, enumerate_forests, enumerate_trees,
                    count_k_linearizations, count_weak_k_linearizations,
                    murua_omega, murua_omega_recursive, sigma)

# orders past these take minutes or more: tree orders, forest-formula grades
TREE_CAP = 12
FOREST_CAP = 8
# where sol1 runs (series --which magnus --method sol1 or --check, and the
# magnus suite): on a 2-core machine --order 9 --check takes 3.2-4.9 s,
# sol1 alone 13-20 s at order 10 and --order 10 --check 16-38 s
SOL1_CAP = 9


def tree_counts_vs_recursion(order: int):
    """Enumerated tree counts against the Euler-transform recursion."""
    target = max(order, 2)
    a = [0, 1]
    for n in range(1, target):
        a.append(sum(sum(d * a[d] for d in range(1, k + 1) if k % d == 0)
                     * a[n - k + 1] for k in range(1, n + 1)) // n)
    for n in range(1, target + 1):
        yield {"order": n}, len(enumerate_trees(n)), a[n]


def cayley_sum(order: int):
    """The sum of n!/sigma(t) over trees of order n is n^(n-1)."""
    for n in range(1, order + 1):
        yield ({"order": n}, sum(Fraction(factorial(n), sigma(t))
                                 for t in enumerate_trees(n)), n ** (n - 1))


def omega_direct_vs_recursive(order: int):
    for n in range(1, order + 1):
        for t in enumerate_trees(n):
            yield {"tree": t.key}, murua_omega(t), murua_omega_recursive(t)


def weak_vs_surjective_binomial(order: int):
    for n in range(1, min(order, 5) + 1):
        for f in enumerate_forests(n):
            for k in range(1, 5):
                yield ({"forest": f.key, "k": k},
                       count_weak_k_linearizations(f, k),
                       sum(comb(k, l) * count_k_linearizations(f, l)
                           for l in range(1, k + 1)))


def gl_ck_duality(order: int):
    """<x * y, z> = <x (x) y, Delta z> for forests with |x| + |y| = |z|."""
    by_grade = [enumerate_forests(n) for n in range(order + 1)]
    for n in range(1, order + 1):  # all but the empty forest
        # each x * y and x (x) y once per grade, not once per z
        pairs = [({"x": fx.key, "y": fy.key},
                  freeprelie.gl_product(ForestPoly({fx: 1}), ForestPoly({fy: 1})),
                  TensorPoly(2, {(fx, fy): 1}))
                 for a in range(n + 1)
                 for fx, fy in product(by_grade[a], by_grade[n - a])]
        for fz in by_grade[n]:
            z, dz = ForestPoly({fz: 1}), freeprelie.ck_coproduct(fz)
            for xy, gl, tensor in pairs:
                yield ({**xy, "z": fz.key}, freeprelie.pairing(gl, z),
                       freeprelie.tensor_pairing(tensor, dz))


def coassociativity(order: int):
    """The third iterate against (id (x) Delta) Delta, term by term."""
    for n in range(1, order + 1):
        for t in enumerate_trees(n):
            left = freeprelie.iterated_coproduct(t, 3)
            right = {}
            for (a, b), c in freeprelie.ck_coproduct(t).terms.items():
                for (b1, b2), d in freeprelie.ck_coproduct(
                        ForestPoly({b: 1})).terms.items():
                    key = (a, b1, b2)
                    right[key] = right.get(key, 0) + c * d
            yield {"tree": t.key}, left, TensorPoly(3, right)


def magnus_three_way(order: int):
    """Each tree's coefficient: fixed point and sol1 against closed form."""
    closed = freeprelie.magnus_closed_form(order)
    fixed = freeprelie.magnus_fixed_point(TreeSeries({LEAF: 1}), order)
    via_sol1 = freeprelie.tree_part(freeprelie.sol1(
        freeprelie.poly_exp(TreeSeries({LEAF: 1}), order)))
    for n in range(1, order + 1):
        for t in enumerate_trees(n):
            c = closed.coeff(t)
            yield {"tree": t.key}, (fixed.coeff(t), via_sol1.coeff(t)), (c, c)


def exp_after_magnus_identity(order: int):
    """exp(Magnus(a)) = a for the one-vertex tree a, grade by grade."""
    top = min(order, 5)
    composed = freeprelie.prelie_exp(freeprelie.magnus_closed_form(top), top)
    for n in range(1, top + 1):
        yield ({"grade": n},
               {t: c for t, c in composed.terms.items() if t.size == n},
               {LEAF: 1} if n == 1 else {})


def brace_coproduct_duality(order: int):
    """<alpha{gammas}, w> = <alpha (x) gammas, delta_bar w>, all lengths."""
    for w in nc.iter_words("ab", order):
        L = len(w)
        delta = words.word_dual_coproduct(w)
        for ncuts in range(1, L):
            for cuts in combinations(range(1, L), ncuts):
                lens = [b - a for a, b in zip((0,) + cuts, cuts + (L,))]
                for alpha, *gam in product(*[words.enumerate_words("ab", m)
                                             for m in lens]):
                    gm = words.monomial(gam)
                    yield ({"alpha": alpha, "gammas": gam, "w": w},
                           words.word_pairing(words.word_brace(alpha, gam), w),
                           delta.coeff(((alpha,), gm)) * words._mono_pairing(gm, gm))


def coproduct_grading(order: int):
    """Every term of delta_bar w splits the letters of w."""
    for w in nc.iter_words("ab", order):
        for l, r in words.word_dual_coproduct(w).terms:
            yield {"w": w}, len(l[0]) + sum(len(u) for u in r), len(w)


def ck_forest_formula_vs_direct(order: int):
    ck = CKBasis()
    for n in range(1, order + 1):
        for t in enumerate_trees(n):
            i = ck.index_of(t)
            for k in range(2, 5):
                for flavor, direct in (
                        ("full", freeprelie.iterated_coproduct),
                        ("reduced", freeprelie.reduced_iterated_coproduct),
                        ("irr", freeprelie.irr_iterated_coproduct)):
                    yield ({"tree": t.key, "k": k, "flavor": flavor},
                           ck.slot_tensor(forest_formula(i, k, flavor, ck), k),
                           direct(t, k))


def word_forest_formula_vs_direct(order: int):
    wb = WordBasis("ab")
    for n in range(1, min(order, 5) + 1):
        for w in words.enumerate_words("ab", n):
            i = wb.index_of(w)
            poly = words.WordPoly({(w,): 1})
            for k in range(2, 5):
                for flavor in ("full", "reduced", "irr"):
                    yield ({"word": w, "k": k, "flavor": flavor},
                           wb.slot_tensor(forest_formula(i, k, flavor, wb), k),
                           words.word_iterated_coproducts(poly, k, flavor))


def _random_tables(order: int) -> list:
    """Tables on a, b up to length min(order, 6) from one seeded generator:
    one per brand in nc.BRANDS order (moments first), then monotone again."""
    rng = random.Random(20210917)
    maxlen = min(order, 6)
    return [nc.CumulantTable(brand, ("a", "b"), maxlen, {
                w: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for w in nc.iter_words(("a", "b"), maxlen)})
            for brand in nc.BRANDS + ("monotone",)]


def moment_roundtrips(order: int):
    moments = _random_tables(order)[0]
    for brand in ("free", "boolean", "monotone"):
        yield ({"brand": brand},
               nc.convert(nc.convert(moments, brand), "moment"), moments)


def direct_vs_via_moments(order: int):
    for src, table in zip(nc.BRANDS, _random_tables(order)):
        for tgt in nc.BRANDS:
            yield ({"from": src, "to": tgt}, nc.convert(table, tgt, "direct"),
                   nc.convert(table, tgt, "via-moments"))


def exp_magnus_functionals(order: int):
    rho = _random_tables(order)[-1]
    # through moments: the direct monotone -> boolean / free sums are the
    # ones exp_functional and magnus_functional evaluate
    beta = nc.convert(rho, "boolean", "via-moments")
    nu = nc.convert(rho, "free", "via-moments")
    minus_rho, minus_nu = rho.negated().values, nu.negated().values
    for w in nc.iter_words(rho.variables, rho.maxlen):
        instance = {"word": w}
        yield instance, nc.exp_functional(rho.values, w), beta.values[w]
        yield instance, -nc.exp_functional(minus_rho, w), nu.values[w]
        yield instance, nc.magnus_functional(beta.values, w), rho.values[w]
        yield instance, -nc.magnus_functional(minus_nu, w), rho.values[w]


# order is the suite's default order; each cap is the last order a suite
# finishes within seconds, measured on a 2-core machine: trees 5.2 s at 10 and
# 28 s at 11, hopf 3.6-4.0 s at 8 and 28 s at 9, magnus 5.8 s at 9 and 27 s
# at 10, words 4.9 s at 6 and over 60 s at 7, cumulants 3.8 s at 12 (its
# tables stop at length 6)
Suite = namedtuple("Suite", "identities order cap")


SUITES = {
    "trees": Suite((tree_counts_vs_recursion, cayley_sum,
                    omega_direct_vs_recursive, weak_vs_surjective_binomial),
                   6, 10),
    "hopf": Suite((gl_ck_duality, coassociativity), 6, 8),
    "magnus": Suite((magnus_three_way, exp_after_magnus_identity), 6, SOL1_CAP),
    "words": Suite((brace_coproduct_duality, coproduct_grading), 5, 6),
    "forest": Suite((ck_forest_formula_vs_direct,
                     word_forest_formula_vs_direct), 5, FOREST_CAP),
    "cumulants": Suite((moment_roundtrips, direct_vs_via_moments,
                        exp_magnus_functionals), 6, TREE_CAP),
}


def run(suite: str, order: int):
    """Yield ``(name, instances, failure)`` per identity of ``suite``;
    ``failure`` is None, the first failing ``{"instance": record}`` or
    ``{"reason": "no instances"}``."""
    for identity in SUITES[suite].identities:
        instances, failure = 0, None
        for instance, got, want in identity(order):
            instances += 1
            if failure is None and got != want:
                failure = {"instance": instance}
        if not instances:
            # an identity checked on no instance has shown nothing
            failure = {"reason": "no instances"}
        yield identity.__name__.replace("_", "-"), instances, failure
