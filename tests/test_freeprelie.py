import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from prelie import freeprelie
from prelie.exactnum import bernoulli
from prelie.freeprelie import (
    ForestPoly, TreeSeries, brace, ck_coproduct, cm_coefficient,
    coproduct_iterates, gl_product, graft, magnus_closed_form,
    magnus_fixed_point, pairing, poly_exp, poly_mul, prelie, prelie_exp, sol1,
    tensor_pairing, tree_part,
)
from prelie.lincomb import Tensor, project
from prelie.trees import (
    EMPTY_FOREST, Forest, LEAF, RootedTree, enumerate_forests, enumerate_trees,
    sigma, tree_factorial, tree_from_string,
)
from prelie.words import WordPoly, word_prelie_series

CHAIN2 = RootedTree((LEAF,))
CHAIN3 = RootedTree((CHAIN2,))
CHERRY = RootedTree((LEAF, LEAF))

trees_st = st.recursive(
    st.just(LEAF),
    lambda kids: st.builds(lambda cs: RootedTree(tuple(cs)),
                           st.lists(kids, min_size=1, max_size=3)),
    max_leaves=4,
)
forests_st = st.builds(lambda ts: Forest(tuple(ts)), st.lists(trees_st, max_size=2))


def series(t):
    return TreeSeries({t: 1})


def poly(f):
    return ForestPoly({f: 1})


# ---------------------------------------------------------------------------
# graft and the pre-Lie identity

def test_graft_fixtures():
    assert graft(CHAIN2, LEAF) == TreeSeries({CHAIN3: 1, CHERRY: 1})
    assert graft(LEAF, CHAIN2) == TreeSeries({CHAIN3: 1})
    assert graft(LEAF, LEAF) == TreeSeries({CHAIN2: 1})


@settings(deadline=None, max_examples=60)
@given(trees_st, trees_st, trees_st)
def test_prelie_identity(a, b, c):
    sa, sb, sc = series(a), series(b), series(c)
    lhs = prelie(prelie(sa, sb), sc) - prelie(sa, prelie(sb, sc))
    rhs = prelie(prelie(sa, sc), sb) - prelie(sa, prelie(sc, sb))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# braces

def test_brace_base_cases():
    assert brace(LEAF, ()) == series(LEAF)
    assert brace(CHAIN2, (LEAF,)) == graft(CHAIN2, LEAF)
    assert brace(LEAF, (LEAF, LEAF)) == series(CHERRY)


def test_brace_matches_simultaneous_grafting():
    # hosts through order 5, so some have equal branches ([[][]], [[[]][[]]]);
    # on the smaller ones also the Oudom-Guin recursion, run over the
    # brute-force single graft, since graft is itself a brace
    def single_graft(a, b):
        return oracles.simultaneous_grafting(a, (b,))

    hosts = [t for n in range(1, 6) for t in enumerate_trees(n)]
    args_pool = [t for n in range(1, 3) for t in enumerate_trees(n)]
    for t in hosts:
        for n_args in range(1, 5):
            for args in _multisets(args_pool, n_args):
                want = oracles.simultaneous_grafting(t, args)
                got = brace(t, args)
                assert got == TreeSeries(want), (t.key, [a.key for a in args])
                if t.size <= 4 and n_args <= 3:
                    assert got == TreeSeries(oracles.oudom_guin_brace(
                        single_graft, t, args)), (t.key, [a.key for a in args])


def _multisets(pool, n):
    from itertools import combinations_with_replacement
    return combinations_with_replacement(pool, n)


@settings(deadline=None, max_examples=40)
@given(trees_st, st.lists(trees_st, min_size=2, max_size=3), st.randoms())
def test_brace_is_symmetric_in_arguments(t, args, rng):
    shuffled = list(args)
    rng.shuffle(shuffled)
    assert brace(t, args) == brace(t, shuffled)


def test_brace_accepts_forest_argument():
    assert brace(LEAF, Forest((LEAF, LEAF))) == series(CHERRY)


# ---------------------------------------------------------------------------
# Grossman-Larson product

def test_gl_unit_and_single_graft():
    unit = poly(EMPTY_FOREST)
    x = poly(Forest((CHAIN2,)))
    assert gl_product(unit, x) == x
    assert gl_product(x, unit) == x
    dot = poly(Forest((LEAF,)))
    assert gl_product(dot, dot) == ForestPoly({
        Forest((LEAF, LEAF)): 1, Forest((CHAIN2,)): 1})


def test_gl_dot_times_dotdot():
    # 4 maps {1,2} -> {0,1}: both free, both grafted (2 ways when split), ...
    dot = poly(Forest((LEAF,)))
    dotdot = poly(Forest((LEAF, LEAF)))
    got = gl_product(dot, dotdot)
    want = ForestPoly({
        Forest((LEAF, LEAF, LEAF)): 1,
        Forest((CHAIN2, LEAF)): 2,
        Forest((CHERRY,)): 1,
    })
    assert got == want
    # cross-checks: no 3-chain term, confirmed by duality with the 3-chain
    assert got.terms.get(Forest((CHAIN3,)), 0) == 0
    assert pairing(got, poly(Forest((CHAIN3,)))) == 0


def test_gl_matches_brute_force_maps():
    forests = [f for n in range(8) for f in enumerate_forests(n)]
    pairs = [(fa, fb) for fa in forests for fb in forests
             if fa.size + fb.size <= 7]
    assert len(pairs) == 790
    for fa, fb in pairs:
        got = gl_product(poly(fa), poly(fb))
        assert got == ForestPoly(oracles.brute_gl_product(fa, fb)), (fa, fb)


@settings(deadline=None, max_examples=40)
@given(forests_st, forests_st, forests_st)
def test_gl_associativity(fa, fb, fc):
    a, b, c = poly(fa), poly(fb), poly(fc)
    assert gl_product(gl_product(a, b), c) == gl_product(a, gl_product(b, c))


def test_gl_truncation_respects_grades():
    dot = ForestPoly({Forest((LEAF,)): 1})
    assert not gl_product(dot, dot, 1).terms  # every product term has grade 2
    assert {f.size for f in gl_product(dot, dot, 2).terms} == {2}


# ---------------------------------------------------------------------------
# admissible cuts and the coproduct

def test_cut_terms_against_brute_edge_subsets():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            # the terms with a nonempty trunk are the admissible cuts
            got = {(trunk.key, pruning.key): count
                   for (trunk, pruning), count in ck_coproduct(t).terms.items()
                   if trunk}
            assert got == oracles.brute_admissible_cuts(t)


def test_ck_coproduct_fixtures():
    d = ck_coproduct(CHERRY)
    assert d == Tensor(2, {
        (EMPTY_FOREST, Forest((CHERRY,))): 1,
        (Forest((CHERRY,)), EMPTY_FOREST): 1,
        (Forest((CHAIN2,)), Forest((LEAF,))): 2,
        (Forest((LEAF,)), Forest((LEAF, LEAF))): 1,
    })
    d3 = ck_coproduct(CHAIN3)
    assert d3 == Tensor(2, {
        (EMPTY_FOREST, Forest((CHAIN3,))): 1,
        (Forest((CHAIN3,)), EMPTY_FOREST): 1,
        (Forest((CHAIN2,)), Forest((LEAF,))): 1,
        (Forest((LEAF,)), Forest((CHAIN2,))): 1,
    })


def test_ck_coproduct_is_multiplicative():
    for fa in enumerate_forests(2):
        for fb in enumerate_forests(2):
            prod_first = ck_coproduct(poly_mul(poly(fa), poly(fb)))
            da, db = ck_coproduct(fa), ck_coproduct(fb)
            merged = {}
            for (l1, r1), c in da.terms.items():
                for (l2, r2), d in db.terms.items():
                    key = (Forest(l1.trees + l2.trees), Forest(r1.trees + r2.trees))
                    merged[key] = merged.get(key, Fraction(0)) + c * d
            assert prod_first == Tensor(2, merged)


def test_counit_corners():
    for n in range(1, 5):
        for t in enumerate_trees(n):
            f = Forest((t,))
            d = ck_coproduct(t)
            assert d.terms[(EMPTY_FOREST, f)] == 1
            assert d.terms[(f, EMPTY_FOREST)] == 1


def test_iterated_coproduct_identity_and_reduced():
    for n in range(1, 5):
        for t in enumerate_trees(n):
            f = Forest((t,))
            one, two = coproduct_iterates(t, 2)
            assert one == Tensor(1, {(f,): 1})
            reduced = project(two, "reduced")
            full = ck_coproduct(t)
            want = {k: c for k, c in full.terms.items()
                    if k[0] != EMPTY_FOREST and k[1] != EMPTY_FOREST}
            assert reduced == Tensor(2, want)


def test_irr_keeps_only_single_tree_slots():
    out = project(coproduct_iterates(CHERRY, 2)[1], "irr")
    assert out == Tensor(2, {(Forest((CHAIN2,)), Forest((LEAF,))): 2})


# ---------------------------------------------------------------------------
# pairing

def test_pairing_fixtures():
    assert pairing(poly(Forest((CHAIN2,))), poly(Forest((CHAIN2,)))) == 1
    assert pairing(poly(Forest((LEAF, LEAF))), poly(Forest((LEAF, LEAF)))) == 2
    assert pairing(poly(Forest((CHERRY,))), poly(Forest((CHERRY,)))) == 2
    assert pairing(poly(Forest((CHAIN2,))), poly(Forest((LEAF, LEAF)))) == 0


def test_gl_ck_duality_small():
    pool = [f for n in range(0, 5) for f in enumerate_forests(n)]
    for fz in pool:
        dz = ck_coproduct(fz)
        for fx in pool:
            for fy in pool:
                if fx.size + fy.size != fz.size:
                    continue
                lhs = pairing(gl_product(poly(fx), poly(fy)), poly(fz))
                rhs = tensor_pairing(Tensor(2, {(fx, fy): 1}), dz)
                assert lhs == rhs


def test_tensor_pairing_arity_guard():
    with pytest.raises(ValueError):
        tensor_pairing(Tensor(2, {}), Tensor(3, {}))


# ---------------------------------------------------------------------------
# series

def test_prelie_exp_coefficients_are_cm_over_factorial():
    e = prelie_exp(series(LEAF), 5)
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert e.coeff(t) * factorial(n) == cm_coefficient(t)


def test_cm_coefficients_are_ints():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            c = cm_coefficient(t)
            assert type(c) is int
            assert c * sigma(t) * tree_factorial(t) == factorial(n)


def test_cm_fixtures():
    assert cm_coefficient(LEAF) == 1
    assert cm_coefficient(CHERRY) == 1
    assert cm_coefficient(RootedTree((CHAIN2, LEAF))) == 3


def test_magnus_closed_form_low_orders():
    m = magnus_closed_form(3)
    assert m.coeff(LEAF) == 1
    assert m.coeff(CHAIN2) == Fraction(-1, 2)
    assert m.coeff(CHAIN3) == Fraction(1, 3)
    assert m.coeff(CHERRY) == Fraction(1, 12)


def test_magnus_three_ways_agree_to_order_5():
    m1 = magnus_closed_form(5)
    m2 = magnus_fixed_point(series(LEAF), 5)
    m3 = tree_part(sol1(poly_exp(series(LEAF), 5)))
    assert m1 == m2
    assert m1 == m3


def test_series_operators_read_prelie_at_call_time(monkeypatch):
    # a default bound at definition would keep the original prelie, unseen
    # by anything that rebinds the module's name afterwards
    want = (prelie_exp(series(LEAF), 5), magnus_fixed_point(series(LEAF), 5))
    calls = []

    def counted(*args):
        calls.append(args)
        return prelie(*args)

    monkeypatch.setattr(freeprelie, "prelie", counted)
    assert prelie_exp(series(LEAF), 5) == want[0] and calls
    calls.clear()
    assert magnus_fixed_point(series(LEAF), 5) == want[1] and calls


def test_magnus_fixed_point_matches_closed_form_at_order_10():
    assert magnus_fixed_point(series(LEAF), 10) == magnus_closed_form(10)


def _fixed_point_full_passes(a, order):
    """`order` passes of Omega = sum_n (B_n/n!) r^(n+1)_Omega(a), each
    computing every grade up to order."""
    omega = TreeSeries({})
    for _ in range(order):
        acc = TreeSeries({})
        r = a.truncated(order)
        n = 0
        while r and n <= order:
            b = bernoulli(n)
            if b:
                acc = acc + r.scaled(b / factorial(n))
            r = prelie(r, omega, order)
            n += 1
        omega = acc
    return omega


def test_magnus_fixed_point_of_a_non_generator_series():
    a = TreeSeries({LEAF: 1, CHAIN2: 3, CHERRY: Fraction(-1, 2),
                    CHAIN3: Fraction(2, 7)})
    for order in range(1, 8):
        got = magnus_fixed_point(a, order)
        assert got == _fixed_point_full_passes(a, order), order
        assert all(t.size <= order for t in got.terms), order


def test_sol1_projects_group_like_onto_trees():
    out = sol1(poly_exp(series(LEAF), 5))
    assert all(len(f.trees) == 1 for f in out.terms)


def test_sol1_fixtures():
    assert sol1(poly(EMPTY_FOREST)) == ForestPoly({})
    assert sol1(poly(Forest((CHAIN2,)))) == poly(Forest((CHAIN2,)))
    assert sol1(poly(Forest((LEAF, LEAF)))) == ForestPoly({Forest((CHAIN2,)): -1})


def test_sol1_matches_ordered_partition_oracle():
    # every forest of grade <= 5, so repeated non-leaf trees ([[]][[]],
    # [][[]][[]]) and mixed multiplicities are covered, and two forests with
    # distinct trees of one size
    def gl_on_basis(a, b):
        return gl_product(poly(a), poly(b)).terms

    forests = [f for n in range(6) for f in enumerate_forests(n)]
    forests += [Forest((CHAIN3, CHERRY)), Forest((CHAIN3, CHERRY, CHAIN3))]
    for f in forests:
        assert sol1(poly(f)).terms == oracles.brute_sol1(f, gl_on_basis), f


def test_exp_after_magnus_is_identity():
    omega = magnus_closed_form(4)
    assert prelie_exp(omega, 4) == TreeSeries({LEAF: 1})


def test_operators_truncate_by_their_own_order():
    # every input holds a term above order; a series carries no order, so
    # only each operator's own argument can cut it
    five = tree_from_string("[[[[[]]]]]")
    a = TreeSeries({LEAF: 1, CHAIN2: Fraction(1, 2), CHERRY: -1, five: 3})
    p = ForestPoly({Forest((LEAF,)): 1, Forest((CHAIN2, LEAF)): 2,
                    Forest((five,)): 1})
    w = WordPoly({("a",): 1, ("ab",): -2, ("abaab",): 1})
    for order in range(2, 5):  # every product has a term at grade 2
        outputs = [
            prelie_exp(a, order), magnus_fixed_point(a, order),
            prelie_exp(w, order, word_prelie_series),
            magnus_fixed_point(w, order, word_prelie_series),
            poly_exp(a, order), prelie(a, a, order), gl_product(p, p, order),
            poly_mul(p, p, order),
        ]
        for out in outputs:
            assert out and all(out.grade(k) <= order for k in out.terms), \
                (order, out)
    # the GL product is graded, so sol1 is and needs no order of its own
    for f in (f for n in range(6) for f in enumerate_forests(n)):
        assert all(g.size == f.size for g in sol1(poly(f)).terms), f


def test_poly_exp_includes_unit_and_grades():
    e = poly_exp(series(LEAF), 3)
    assert e.terms[EMPTY_FOREST] == 1
    assert e.terms[Forest((LEAF,))] == 1
    assert e.terms[Forest((LEAF, LEAF))] == Fraction(1, 2)
    assert e.terms[Forest((LEAF, LEAF, LEAF))] == Fraction(1, 6)
    with pytest.raises(ValueError):
        poly_exp(ForestPoly({EMPTY_FOREST: 1}), 3)  # a grade-0 term


# ---------------------------------------------------------------------------
# containers

def test_series_truncation_and_order_propagation():
    s = TreeSeries({LEAF: 1, CHAIN2: -1, CHERRY: 1})
    assert s.truncated(2) == TreeSeries({LEAF: 1, CHAIN2: -1})
    assert s.truncated(0) == TreeSeries({})
    # a sum truncates nothing: the order is only ever an argument
    assert (s.truncated(2) + TreeSeries({CHAIN3: 1})).coeff(CHAIN3) == 1


def test_tensor_arity_validation():
    with pytest.raises(ValueError):
        Tensor(2, {(EMPTY_FOREST,): 1})


def test_json_round_trip_of_series():
    m = magnus_closed_form(4)
    data = json.loads(json.dumps(oracles.series_json(m)))
    rebuilt = TreeSeries({tree_from_string(row["forest"]): Fraction(row["coeff"])
                          for row in data})
    assert rebuilt == m


def test_type_mismatch_is_rejected():
    with pytest.raises(TypeError):
        series(LEAF) + poly(Forest((LEAF,)))
    with pytest.raises(TypeError):
        ck_coproduct("x")
