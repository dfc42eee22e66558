"""One test per acceptance criterion, each printing its own pass line.

Run with `python3 -m pytest tests/test_acceptance.py -v` for one result line
per criterion, or add -s to see the timing lines.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import prelie.forest
from prelie import freeprelie, nc, words
from prelie.forest import (
    CKBasis, DecoratedTree, WordBasis, forest_formula, lambda_coeff, leaf,
)
from prelie.freeprelie import (
    cm_coefficient, magnus_closed_form, magnus_fixed_point, poly_exp,
    prelie_exp, sol1, tree_part,
)
from prelie.lincomb import Tensor, project
from prelie.trees import (
    LEAF, RootedTree, enumerate_trees, murua_omega, murua_omega_recursive,
    sigma, tree_factorial,
)
from prelie.words import (
    WordPoly, enumerate_words, monomial, monomial_weight, word_brace,
    word_dual_coproduct, word_pairing, word_prelie_series,
)

import oracles

CHAIN2 = RootedTree((LEAF,))
CHERRY = RootedTree((LEAF, LEAF))


def _report(num, name, t0, budget=None):
    elapsed = time.monotonic() - t0
    if budget is not None:
        assert elapsed < budget, "criterion %d exceeded %ds (%.1fs)" % (
            num, budget, elapsed)
    print("PASS criterion %d: %s (%.2fs)" % (num, name, elapsed))


def test_criterion_1_connes_moscovici_closed_form():
    t0 = time.monotonic()
    e = prelie_exp(freeprelie.TreeSeries({LEAF: 1}), 6)
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert e.coeff(t) * factorial(n) == cm_coefficient(t)
            assert cm_coefficient(t) == Fraction(
                factorial(n), sigma(t) * tree_factorial(t))
    _report(1, "pre-Lie exponential matches |t|!/(sigma t!)", t0, budget=5)


def test_criterion_2_three_way_magnus_order_6():
    t0 = time.monotonic()
    gen = freeprelie.TreeSeries({LEAF: 1})
    closed = magnus_closed_form(6)
    fixed = magnus_fixed_point(gen, 6)
    via_sol1 = tree_part(sol1(poly_exp(gen, 6)))
    assert closed == fixed
    assert closed == via_sol1
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert closed.coeff(t) == Fraction(murua_omega(t), sigma(t))
    _report(2, "closed form, fixed point and sol1 Magnus agree", t0, budget=5)


def test_criterion_3_omega_direct_vs_recursion():
    t0 = time.monotonic()
    checked = 0
    for n in range(1, 10):
        for t in enumerate_trees(n):
            assert murua_omega(t) == murua_omega_recursive(t), t.key
            checked += 1
    assert checked == 1 + 1 + 2 + 4 + 9 + 20 + 48 + 115 + 286
    _report(3, "Murua omega: linearization sum equals Bernoulli-style "
               "recursion through 9 vertices", t0, budget=10)


def test_criterion_4_forest_formula_oracle_equivalence(monkeypatch):
    t0 = time.monotonic()
    ck = CKBasis()
    for n in range(1, 7):
        for t in enumerate_trees(n):
            i = ck.index_of(t)
            iterates = freeprelie.coproduct_iterates(t, 4)
            for k in range(1, 5):
                for flavor in ("full", "reduced", "irr"):
                    got = ck.slot_tensor(
                        forest_formula(i, k, ck)[k][flavor], k)
                    assert got == project(iterates[k - 1], flavor), \
                        (t.key, k, flavor)
    wb = WordBasis("ab")
    for n in range(1, 6):
        for w in enumerate_words("ab", n):
            i = wb.index_of(w)
            iterates = words.word_coproduct_iterates(WordPoly({(w,): 1}), 4)
            for k in range(1, 5):
                for flavor in ("full", "reduced", "irr"):
                    got = wb.slot_tensor(
                        forest_formula(i, k, wb)[k][flavor], k)
                    assert got == project(iterates[k - 1], flavor), \
                        (w, k, flavor)

    # dropping the symmetry factor must break the formula on an instance
    # with repeated non-identical subtrees
    t = RootedTree((CHAIN2, CHAIN2))
    honest_basis = CKBasis()
    honest = forest_formula(
        honest_basis.index_of(t), 3, honest_basis)[3]["reduced"]
    monkeypatch.setattr(prelie.forest, "sym", lambda children: 1)
    mutated_basis = CKBasis()
    mutated = forest_formula(
        mutated_basis.index_of(t), 3, mutated_basis)[3]["reduced"]
    monkeypatch.undo()
    assert mutated != honest
    assert honest_basis.slot_tensor(honest, 3) == \
        project(freeprelie.coproduct_iterates(t, 3)[2], "reduced")
    _report(4, "forest formula equals iterated coproducts (both bases, "
               "all flavors, k<=4); sym mutation detected", t0, budget=5)


def test_criterion_5_worked_example_lambda_6():
    t0 = time.monotonic()
    ck = CKBasis()
    t = RootedTree((CHERRY, RootedTree((CHAIN2, LEAF, LEAF, LEAF)), CHERRY))
    assert t.size == 13
    i = ck.index_of(t)
    i0 = ck.index_of(LEAF)
    i1 = ck.index_of(CHERRY)
    i2 = ck.index_of(RootedTree((CHAIN2, LEAF, LEAF, LEAF)))
    i3 = ck.index_of(CHAIN2)
    T = DecoratedTree(i, i0, (
        leaf(i1),
        DecoratedTree(i2, i1, (leaf(i3), leaf(i0))),
        DecoratedTree(i1, i0, (leaf(i0), leaf(i0))),
    ))
    assert lambda_coeff(T, ck) == 6
    _report(5, "13-vertex decorated-tree coefficient equals 2*3 = 6", t0)


def test_criterion_6_exp_inverts_magnus():
    t0 = time.monotonic()
    omega = magnus_closed_form(5)
    assert prelie_exp(omega, 5) == freeprelie.TreeSeries({LEAF: 1})
    _report(6, "pre-Lie exponential of the Magnus series returns the "
               "generator through order 5", t0)


def test_criterion_7_word_duality_exhaustive():
    t0 = time.monotonic()
    gammas_pool = [w for n in range(1, 4) for w in enumerate_words("ab", n)]
    deltas = {w: word_dual_coproduct(w)
              for n in range(1, 6) for w in enumerate_words("ab", n)}
    checked = 0
    for alpha_len in range(1, 5):
        for alpha in enumerate_words("ab", alpha_len):
            for n_args in range(1, 5 - alpha_len + 1):
                for gs in combinations_with_replacement(gammas_pool, n_args):
                    L = alpha_len + sum(len(g) for g in gs)
                    if L > 5:
                        continue
                    braced = word_brace(alpha, gs)
                    probe = Tensor(2, {((alpha,), monomial(gs)): 1})
                    for w in enumerate_words("ab", L):
                        lhs = word_pairing(braced, w)
                        rhs = _tensor_pair(probe, deltas[w])
                        assert lhs == rhs, (alpha, gs, w)
                        checked += 1
    # every (alpha, gamma-multiset, w) with matching total length <= 5
    assert checked == 9664
    _report(7, "brace/coproduct duality on every 2-letter instance with "
               "|w| <= 5 (%d cases)" % checked, t0)


def _tensor_pair(a, b):
    out = Fraction(0)
    for (l1, r1), c in a.terms.items():
        for (l2, r2), d in b.terms.items():
            if l1 == l2 and r1 == r2:
                out += c * d * monomial_weight(l1) * monomial_weight(r1)
    return out


def test_criterion_8_cumulant_suite():
    t0 = time.monotonic()
    rng = random.Random(20260817)
    variables = ("a", "b")
    N = 6

    def rand_table(brand):
        return nc.CumulantTable(brand, variables, N, {
            w: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for w in nc.iter_words(variables, N)})

    # (a) moments -> brand -> moments and brand -> moments -> brand
    moments = rand_table("moment")
    for brand in ("free", "boolean", "monotone"):
        assert nc.convert(nc.convert(moments, brand), "moment") == moments
        table = rand_table(brand)
        assert nc.convert(nc.convert(table, "moment"), brand) == table

    # (b) every direct formula equals the via-moments composite
    tables = {brand: rand_table(brand) for brand in nc.BRANDS}
    for source in nc.BRANDS:
        for target in nc.BRANDS:
            direct = nc.convert(tables[source], target)
            via = nc.convert(tables[source], target, route="via-moments")
            assert direct == via, (source, target)

    # (c) exp and Magnus in the insertion pre-Lie algebra of words against
    # the conversion theorems, on both lattice routes
    def series(values, sign=1):
        return WordPoly({(w,): sign * v for w, v in values.items()})

    rho = rand_table("monotone")
    exp_rho = prelie_exp(series(rho.values), N, word_prelie_series)
    minus_exp = prelie_exp(series(rho.values, -1), N, word_prelie_series)
    for route in ("direct", "via-moments"):
        beta = nc.convert(rho, "boolean", route)
        nu = nc.convert(rho, "free", route)
        omega_beta = magnus_fixed_point(series(beta.values), N,
                                        word_prelie_series)
        minus_omega = magnus_fixed_point(series(nu.values, -1), N,
                                         word_prelie_series)
        for w in nc.iter_words(variables, N):
            assert beta.values[w] == exp_rho.coeff((w,))
            assert nu.values[w] == -minus_exp.coeff((w,))
            assert rho.values[w] == omega_beta.coeff((w,))
            assert rho.values[w] == -minus_omega.coeff((w,))
    _report(8, "cumulant round trips, route agreement and the word "
               "algebra's exp/Magnus theorems at N = 6", t0, budget=5)


def test_criterion_9_counting_cross_checks():
    t0 = time.monotonic()
    expected = [1, 1, 2, 4, 9, 20, 48, 115, 286]
    assert oracles.tree_counts(9) == expected
    for n in range(1, 10):
        assert len(enumerate_trees(n)) == expected[n - 1]
    for n in range(1, 9):
        assert sum(Fraction(factorial(n), sigma(t))
                   for t in enumerate_trees(n)) == n ** (n - 1)
        assert len(nc.enumerate_nc(n)) == oracles.catalan(n)
        assert len(nc.enumerate_nc_irr(n)) == oracles.catalan(n - 1)
    _report(9, "tree counts, Cayley sums and Catalan counts line up", t0)
