"""The routes of the printed series and the cross-route identities that
``prelie verify`` reruns.

``ROUTES`` maps each series ``prelie series`` prints (``--which``) to the
routes that compute it (``--method``), whose names and order caps are
``prelie.caps.SERIES_CAPS``; ``series`` runs one and ``series --check``
compares them all, as the magnus suite does.  Each identity is a generator
named after it, ``_`` for ``-``, that yields one ``(instance record, got,
want)`` per instance; the two sides come from routes that do not call each
other.  ``run`` counts and compares them.  ``SUITES`` groups the identities
by suite, in the order of ``prelie.caps.SUITE_CAPS``, which holds each
suite's default order and cap.

At the top level this module loads ``freeprelie`` and the layers it
imports, which ``ROUTES`` needs; an identity that reads ``nc``, ``words`` or
``forest`` imports it when it runs (the words identities ``words`` alone),
so ``series`` and each suite load only the layers they call.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

from . import freeprelie
from .caps import BRANDS
from .freeprelie import ForestPoly, TreeSeries
from .lincomb import Tensor, iterate_coproduct, project
from .trees import (LEAF, enumerate_forests, enumerate_trees,
                    count_k_linearizations, count_weak_k_linearizations,
                    murua_omega, murua_omega_recursive, sigma)

# the one-vertex tree, the generator of every series in ROUTES
_GENERATOR = TreeSeries({LEAF: 1})

# which -> method -> series_of_order: series_of_order(n) is the series
# `series --which` prints, truncated at order n; the names and caps of the
# routes are caps.SERIES_CAPS.  Every route looks its freeprelie function up
# per call, so that whatever rebinds the module's names also sees the calls.
ROUTES = {
    "exp": {  # as Connes-Moscovici integers, |t|! times each coefficient
        "closed": lambda n: TreeSeries(
            {t: freeprelie.cm_coefficient(t)
             for k in range(1, n + 1) for t in enumerate_trees(k)}),
        "fixed-point": lambda n: TreeSeries(
            {t: c * factorial(t.size) for t, c in
             freeprelie.prelie_exp(_GENERATOR, n).terms.items()}),
    },
    "magnus": {
        "closed": lambda n: freeprelie.magnus_closed_form(n),
        "fixed-point": lambda n: freeprelie.magnus_fixed_point(_GENERATOR, n),
        "sol1": lambda n: freeprelie.tree_part(freeprelie.sol1(
            freeprelie.poly_exp(_GENERATOR, n))),
    },
}


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
                  Tensor(2, {(fx, fy): 1}))
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
            left = freeprelie.coproduct_iterates(t, 3)[2]
            right = {}
            for (a, b), c in freeprelie.ck_coproduct(t).terms.items():
                for (b1, b2), d in freeprelie.ck_coproduct(
                        ForestPoly({b: 1})).terms.items():
                    key = (a, b1, b2)
                    right[key] = right.get(key, 0) + c * d
            yield {"tree": t.key}, left, Tensor(3, right)


def magnus_three_way(order: int):
    """Each tree's coefficient: every other Magnus route of ROUTES against
    the closed form."""
    routes = ROUTES["magnus"]
    closed = routes["closed"](order)
    others = [series(order) for method, series in routes.items()
              if method != "closed"]
    for n in range(1, order + 1):
        for t in enumerate_trees(n):
            yield ({"tree": t.key}, tuple(s.coeff(t) for s in others),
                   (closed.coeff(t),) * len(others))


def exp_after_magnus_identity(order: int):
    """exp(Magnus(a)) = a for the one-vertex tree a, grade by grade."""
    top = min(order, 5)
    composed = freeprelie.prelie_exp(freeprelie.magnus_closed_form(top), top)
    for n in range(1, top + 1):
        yield ({"grade": n},
               {t: c for t, c in composed.terms.items() if t.size == n},
               {LEAF: 1} if n == 1 else {})


def _two_letter_words(order: int) -> list:
    """The words over a, b of lengths 1..order, shorter words first."""
    from . import words
    return [w for n in range(1, order + 1)
            for w in words.enumerate_words("ab", n)]


def brace_coproduct_duality(order: int):
    """<alpha{gammas}, w> = <alpha (x) gammas, delta_bar w>, all lengths."""
    from . import words
    for w in _two_letter_words(order):
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
                           delta.coeff(((alpha,), gm)) * words.monomial_weight(gm))


def coproduct_grading(order: int):
    """Every term of delta_bar w splits the letters of w."""
    from . import words
    for w in _two_letter_words(order):
        for l, r in words.word_dual_coproduct(w).terms:
            yield {"w": w}, len(l[0]) + sum(len(u) for u in r), len(w)


def _forest_formula_vs_direct(basis, key, elements):
    """The forest formula of each element's index i in basis against the
    direct iterates of b_i, for k = 2, 3, 4, both in index space: tensors
    over tuples of sorted index tuples, so no term is converted back to a
    native monomial.  One forest-formula call and one left iteration per
    element; the k-th iterate's projections are the three flavors, irr
    projected from reduced, and each record names the element's label under
    key.

    Both sides read the basis's one structure hook, basis._coproduct, the
    full coproduct of a slot's monomial (freeprelie.ck_coproduct, or
    words.word_coproduct_iterates at k = 2).  The formula reads it on
    one-index slots only, through delta_bar, and sums over decorated trees
    and onto maps.  The direct side reads it on every monomial it meets,
    through basis.slot_coproduct, which relabels it with code of its own,
    and iterates it with lincomb.iterate_coproduct; it reads neither
    delta_bar, the decorated trees nor the maps.  Shared by design:
    the layer's coproduct of one basis element (freeprelie's cut coproduct
    of a tree, or a word's odd factorizations with its two unit terms), the
    thing the formula iterates, and the basis's index_of."""
    from . import forest
    for element in elements:
        i = basis.index_of(element)
        label = basis.label(i)
        direct = iterate_coproduct(basis.slot_coproduct, {(i,): 1}, 4)
        by_k = forest.forest_formula(i, 4, basis)
        for k in range(2, 5):
            want = direct[k - 1]
            for flavor in ("full", "reduced", "irr"):
                # each flavor's terms are a part of the one before's
                want = project(want, flavor)
                yield ({key: label, "k": k, "flavor": flavor},
                       Tensor(k, by_k[k][flavor]), want)


def ck_forest_formula_vs_direct(order: int):
    from .forest import CKBasis
    yield from _forest_formula_vs_direct(
        CKBasis(), "tree",
        (t for n in range(1, order + 1) for t in enumerate_trees(n)))


def word_forest_formula_vs_direct(order: int):
    from . import words
    from .forest import WordBasis
    yield from _forest_formula_vs_direct(
        WordBasis("ab"), "word",
        (w for n in range(1, min(order, 5) + 1)
         for w in words.enumerate_words("ab", n)))


def _random_tables(order: int) -> list:
    """Tables on a, b up to length min(order, 6) from one seeded generator:
    one per brand in BRANDS order (moments first), then monotone again."""
    import random
    from . import nc
    rng = random.Random(20210917)
    maxlen = min(order, 6)
    return [nc.CumulantTable(brand, ("a", "b"), maxlen, {
                w: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for w in nc.iter_words(("a", "b"), maxlen)})
            for brand in BRANDS + ("monotone",)]


def moment_roundtrips(order: int):
    from . import nc
    moments = _random_tables(order)[0]
    for brand in ("free", "boolean", "monotone"):
        yield ({"brand": brand},
               nc.convert(nc.convert(moments, brand), "moment"), moments)


def direct_vs_via_moments(order: int):
    # cumulant brands only: from = to copies the table, and with moments on
    # either side via-moments is the direct route (moment-roundtrips has them)
    from . import nc
    tables = dict(zip(BRANDS, _random_tables(order)))
    del tables["moment"]
    for src, table in tables.items():
        for tgt in tables:
            if tgt != src:
                yield ({"from": src, "to": tgt},
                       nc.convert(table, tgt, "direct"),
                       nc.convert(table, tgt, "via-moments"))


def exp_magnus_functionals(order: int):
    # boolean = exp(monotone), free = -exp(-monotone), monotone = Omega(boolean)
    # = -Omega(-free) under insertion of words, against both lattice routes
    from . import nc, words
    _, nu, beta, _, rho = _random_tables(order)
    exp, omega = freeprelie.prelie_exp, freeprelie.magnus_fixed_point
    for source, target, op, sign in (
            (rho, "boolean", exp, 1), (rho, "free", exp, -1),
            (beta, "monotone", omega, 1), (nu, "monotone", omega, -1)):
        series = words.WordPoly({(w,): v for w, v in source.values.items()})
        got = op(series.scaled(sign), source.maxlen, words.word_prelie_series)
        direct = nc.convert(source, target, "direct").values
        via = nc.convert(source, target, "via-moments").values
        for w, d in direct.items():
            yield ({"from": source.brand, "to": target, "word": w},
                   (sign * got.coeff((w,)), d), (via[w], via[w]))


# suite -> its identities, in the order of caps.SUITE_CAPS, which holds each
# suite's default order and cap
SUITES = {
    "trees": (tree_counts_vs_recursion, cayley_sum, omega_direct_vs_recursive,
              weak_vs_surjective_binomial),
    "hopf": (gl_ck_duality, coassociativity),
    "magnus": (magnus_three_way, exp_after_magnus_identity),
    "words": (brace_coproduct_duality, coproduct_grading),
    "forest": (ck_forest_formula_vs_direct, word_forest_formula_vs_direct),
    "cumulants": (moment_roundtrips, direct_vs_via_moments,
                  exp_magnus_functionals),
}


def run(suite: str, order: int):
    """Yield ``(name, instances, failure)`` per identity of ``suite``;
    ``failure`` is None, the first failing ``{"instance": record}`` or
    ``{"reason": "no instances"}``."""
    for identity in SUITES[suite]:
        instances, failure = 0, None
        for instance, got, want in identity(order):
            instances += 1
            if failure is None and got != want:
                failure = {"instance": instance}
        if not instances:
            # an identity checked on no instance has shown nothing
            failure = {"reason": "no instances"}
        yield identity.__name__.replace("_", "-"), instances, failure
