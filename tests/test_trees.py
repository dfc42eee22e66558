import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from prelie.trees import (
    EMPTY_FOREST, Forest, LEAF, RootedTree, b_minus, b_plus,
    count_k_linearizations, count_weak_k_linearizations, cut_above,
    enumerate_forests, enumerate_trees, forest_factorial, forest_from_string,
    induced_subforest, labeled, murua_omega, murua_omega_forest,
    murua_omega_recursive, num_linearizations, root_subforests, sigma,
    tree_by_rank, tree_factorial, tree_from_string, tree_rank,
)

CHAIN2 = RootedTree((LEAF,))
CHAIN3 = RootedTree((CHAIN2,))
CHAIN4 = RootedTree((CHAIN3,))
CHERRY = RootedTree((LEAF, LEAF))

trees_st = st.recursive(
    st.just(LEAF),
    lambda kids: st.builds(lambda cs: RootedTree(tuple(cs)),
                           st.lists(kids, min_size=1, max_size=3)),
    max_leaves=4,
)
forests_st = st.builds(lambda ts: Forest(tuple(ts)), st.lists(trees_st, max_size=3))


# ---------------------------------------------------------------------------
# canonical form and parsing

def test_children_order_does_not_matter():
    assert RootedTree((CHAIN2, LEAF, LEAF)) == RootedTree((LEAF, CHAIN2, LEAF))
    assert RootedTree((CHAIN2, LEAF)).key == RootedTree((LEAF, CHAIN2)).key


@given(trees_st, st.randoms())
def test_key_invariant_under_shuffle(t, rng):
    kids = list(t.children)
    rng.shuffle(kids)
    assert RootedTree(tuple(kids)) == t


@given(trees_st)
def test_tree_string_roundtrip(t):
    assert tree_from_string(t.key) == t


@given(forests_st)
def test_forest_string_roundtrip(f):
    assert forest_from_string(f.key) == f


def test_forest_string_empty():
    assert forest_from_string("") == EMPTY_FOREST
    assert EMPTY_FOREST.key == ""


@pytest.mark.parametrize("bad", ["[", "]", "[]]", "[[]", "x", "[]x", "[] []"])
def test_parser_rejects_malformed(bad):
    with pytest.raises(ValueError):
        forest_from_string(bad)


def test_deep_chain_parses_without_recursion():
    text = "[" * 1200 + "]" * 1200
    t = tree_from_string(text)
    assert t.size == 1200
    assert t.key == text


def test_tree_from_string_rejects_forests_and_empty():
    with pytest.raises(ValueError):
        tree_from_string("")
    with pytest.raises(ValueError):
        tree_from_string("[][]")


# ---------------------------------------------------------------------------
# enumeration

def test_tree_counts_match_independent_recursion():
    want = oracles.tree_counts(8)
    assert [len(enumerate_trees(n)) for n in range(1, 9)] == want
    assert want == [1, 1, 2, 4, 9, 20, 48, 115]


def test_forests_biject_with_trees_one_size_up():
    for n in range(0, 7):
        forests = enumerate_forests(n)
        assert len(forests) == len(enumerate_trees(n + 1))
        assert len(set(b_plus(f) for f in forests)) == len(forests)


def test_enumerations_are_duplicate_free_and_sized():
    for n in range(1, 7):
        ts = enumerate_trees(n)
        assert len(set(ts)) == len(ts)
        assert all(t.size == n for t in ts)


def test_enumerate_rejects_bad_order():
    with pytest.raises(ValueError):
        enumerate_trees(0)
    with pytest.raises(ValueError):
        enumerate_forests(-1)


def test_rank_roundtrip():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert tree_by_rank(n, tree_rank(t)) == t


def test_b_plus_b_minus_roundtrip():
    for n in range(0, 6):
        for f in enumerate_forests(n):
            assert b_minus(b_plus(f)) == f


# ---------------------------------------------------------------------------
# statistics

def test_sigma_matches_automorphism_count():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert sigma(t) == oracles.brute_automorphisms(t)


def test_tree_factorial_fixtures():
    assert tree_factorial(LEAF) == 1
    assert tree_factorial(CHAIN4) == 24
    assert tree_factorial(CHERRY) == 3
    assert tree_factorial(RootedTree((CHAIN2, LEAF))) == 8


def test_linear_extensions_against_brute_force():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            m = num_linearizations(t)
            assert m == oracles.brute_linear_extensions(Forest((t,)))
            assert m * tree_factorial(t) == factorial(n)


def test_forest_factorial_is_multiplicative():
    f = Forest((CHERRY, CHAIN2))
    assert forest_factorial(f) == tree_factorial(CHERRY) * tree_factorial(CHAIN2)
    assert forest_factorial(EMPTY_FOREST) == 1


def test_cayley_mass_formula():
    for n in range(1, 8):
        s = sum(Fraction(factorial(n), sigma(t)) for t in enumerate_trees(n))
        assert s == n ** (n - 1)


# ---------------------------------------------------------------------------
# k-linearizations

def test_k_linearizations_against_brute_force():
    for n in range(1, 6):
        for f in enumerate_forests(n):
            for k in range(1, n + 2):
                assert count_k_linearizations(f, k) == \
                    oracles.brute_k_linearizations(f, k)
                assert count_weak_k_linearizations(f, k) == \
                    oracles.brute_k_linearizations(f, k, weak=True)


def test_k_linearization_boundaries():
    assert count_k_linearizations(EMPTY_FOREST, 1) == 0
    assert count_weak_k_linearizations(EMPTY_FOREST, 3) == 1
    with pytest.raises(ValueError):
        count_k_linearizations(Forest((LEAF,)), 0)


@settings(deadline=None)
@given(forests_st, st.integers(min_value=1, max_value=5))
def test_weak_equals_binomial_sum_of_surjective(f, k):
    lhs = count_weak_k_linearizations(f, k)
    rhs = sum(comb(k, l) * count_k_linearizations(f, l) for l in range(1, k + 1))
    if f.size == 0:
        rhs += 1  # the empty map is weak but not surjective onto any [l]
    assert lhs == rhs


# ---------------------------------------------------------------------------
# omega

def test_omega_paper_values():
    assert murua_omega(LEAF) == 1
    assert murua_omega(CHAIN2) == Fraction(-1, 2)
    assert murua_omega(CHERRY) == Fraction(1, 6)
    assert murua_omega(CHAIN3) == Fraction(1, 3)
    assert murua_omega(CHAIN4) == Fraction(-1, 4)


def test_omega_forest_is_multiplicative():
    f = Forest((CHAIN2, CHERRY))
    assert murua_omega_forest(f) == murua_omega(CHAIN2) * murua_omega(CHERRY)
    assert murua_omega_forest(EMPTY_FOREST) == 1


def test_omega_alternating_sum_against_brute_maps():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            p = Forest((t,))
            want = sum(Fraction((-1) ** (k - 1), k)
                       * oracles.brute_k_linearizations(p, k)
                       for k in range(1, n + 1))
            assert murua_omega(t) == want


def test_omega_recursive_matches_direct_small():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert murua_omega_recursive(t) == murua_omega(t)


# ---------------------------------------------------------------------------
# concrete selections (the K(f) machinery)

def test_root_subforests_counts():
    # every selection contains all roots; non-root vertices are free
    for f in [Forest((CHAIN2,)), Forest((CHERRY, LEAF)), Forest((CHAIN3,))]:
        sels = root_subforests(f)
        non_roots = f.size - len(f.trees)
        assert len(sels) == 2 ** non_roots
        assert len(set(map(frozenset, sels))) == len(sels)
        lf = labeled(f)
        for sel in sels:
            assert set(lf.roots) <= set(sel)


def test_induced_subforest_skips_unselected_levels():
    # preorder ids on a 3-chain are root=0, child=1, grandchild=2; selecting
    # {root, grandchild} induces a 2-chain
    f = Forest((CHAIN3,))
    assert induced_subforest(f, frozenset({0, 2})) == Forest((CHAIN2,))


def test_cut_above_detaches_selected_vertices():
    # severing the middle vertex of a 3-chain leaves a point and a 2-chain
    f = Forest((CHAIN3,))
    assert cut_above(f, frozenset({0, 1})) == Forest((LEAF, CHAIN2))


def test_cut_above_validates_selection():
    f = Forest((CHAIN2,))
    with pytest.raises(ValueError):
        cut_above(f, frozenset())  # missing the root
    with pytest.raises(ValueError):
        cut_above(f, frozenset({0, 99}))
