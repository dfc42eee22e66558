import copy
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from prelie import trees
from prelie.exactnum import bernoulli
from prelie.trees import (
    EMPTY_FOREST, Forest, LEAF, RootedTree, b_minus, b_plus,
    count_k_linearizations, count_weak_k_linearizations, enumerate_forests,
    enumerate_trees, forest_factorial, forest_from_string, murua_omega,
    murua_omega_forest, murua_omega_recursive, num_linearizations, sigma,
    tree_by_rank, tree_factorial, tree_from_string, tree_rank,
)

SRC = Path(trees.__file__).resolve().parents[1]

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
    assert RootedTree((CHAIN2, LEAF, LEAF)) is RootedTree((LEAF, CHAIN2, LEAF))
    assert RootedTree((CHAIN2, LEAF)).key == RootedTree((LEAF, CHAIN2)).key


@given(trees_st, st.randoms())
def test_key_invariant_under_shuffle(t, rng):
    kids = list(t.children)
    rng.shuffle(kids)
    assert RootedTree(tuple(kids)) is t


@given(trees_st)
def test_tree_string_roundtrip(t):
    assert tree_from_string(t.key) is t


@given(forests_st)
def test_forest_string_roundtrip(f):
    assert forest_from_string(f.key) is f


def test_forest_string_empty():
    assert forest_from_string("") is EMPTY_FOREST
    assert EMPTY_FOREST.key == ""


def test_trees_and_forests_are_interned():
    # one object per canonical form, so equality and hashing are identity's:
    # no class may bring back a hash or comparison of bracket strings
    for cls in (RootedTree, Forest):
        assert cls.__hash__ is object.__hash__, cls
        assert cls.__eq__ is object.__eq__, cls
    f = Forest((CHERRY, LEAF, CHAIN2))
    assert Forest((CHAIN2, CHERRY, LEAF)) is f
    assert Forest(()) is EMPTY_FOREST and RootedTree(()) is LEAF
    # copying or pickling hands back the interned object
    for x in (LEAF, CHERRY, f, EMPTY_FOREST):
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x
    assert LEAF.key == "[]" and LEAF.children == ()


def _random_bracket_string(rng, n):
    """A random n-vertex tree as a (usually non-canonical) bracket string,
    built without constructing any tree."""
    kids = [[] for _ in range(n)]
    for v in range(1, n):
        kids[rng.randrange(v)].append(v)
    return "".join("[" if v >= 0 else "]" for v in _brackets(kids, 0))


def _brackets(kids, v):
    yield v
    for c in kids[v]:
        yield from _brackets(kids, c)
    yield -1


def test_interning_gives_one_object_across_threads():
    # threads that build the same new trees and forests at once must get
    # the same objects: a lost race in the intern tables would give two
    rng = random.Random(7)
    texts = [_random_bracket_string(rng, rng.randrange(20, 40))
             for _ in range(150)]
    results = [None] * 6

    def work(slot):
        results[slot] = [forest_from_string(a + b)
                         for a, b in zip(texts, texts[1:])]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,))
                   for j in range(len(results))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    first = results[0]
    for other in results[1:]:
        assert all(f is g for f, g in zip(first, other))
        assert all(t is u for f, g in zip(first, other)
                   for t, u in zip(f.trees, g.trees))


@pytest.mark.parametrize("bad", ["[", "]", "[]]", "[[]", "x", "[]x", "[] []"])
def test_parser_rejects_malformed(bad):
    with pytest.raises(ValueError):
        forest_from_string(bad)


def test_deep_chain_parses_without_recursion():
    text = "[" * 1200 + "]" * 1200
    t = tree_from_string(text)
    assert t.size == 1200
    assert t.key == text
    chain = LEAF
    for _ in range(1199):
        chain = RootedTree((chain,))
    assert chain is t


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
    # the trees do not come from the forests' memo: B+ must map the forests
    # of n onto the trees of n + 1, one to one
    for n in range(0, 10):
        forests = enumerate_forests(n)
        assert len(set(forests)) == len(forests)
        assert {b_plus(f) for f in forests} == set(enumerate_trees(n + 1))


def test_trees_are_enumerated_without_forests():
    # a fresh interpreter, so no other test's forests are interned
    script = ("from prelie import trees\n"
              "for n in range(1, 13):\n"
              "    trees.enumerate_trees(n)\n"
              "print(trees._forests.cache_info().currsize,"
              " len(trees.Forest._table))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         stdout=subprocess.PIPE, text=True, timeout=120).stdout
    assert out.split() == ["0", "1"]  # only the empty forest is interned


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
    with pytest.raises(ValueError):
        tree_by_rank(3, 99)  # there are 2 trees of size 3


def test_b_plus_b_minus_roundtrip():
    for n in range(0, 6):
        for f in enumerate_forests(n):
            assert b_minus(b_plus(f)) is f


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
    with pytest.raises(ValueError):
        count_weak_k_linearizations(LEAF, -1)


def test_top_k_linearization_count_is_linear_extension_count():
    # the order polynomial's top coefficient against |t|!/t!
    for n in range(1, 11):
        for t in enumerate_trees(n):
            assert count_k_linearizations(t, n) == num_linearizations(t)


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


def test_closed_forms_on_ladders_and_corollas():
    # the chain (ladder) and the corolla of n vertices: omega(ladder_n) =
    # (-1)^(n-1)/n, omega(corolla_n) = B_(n-1) with B_1 = -1/2, t!(ladder_n)
    # = n! and sigma(corolla_n) = (n-1)!; both omega routes
    ladder = LEAF
    for n in range(1, 13):
        corolla = RootedTree((LEAF,) * (n - 1))
        assert ladder.size == corolla.size == n
        for omega in (murua_omega, murua_omega_recursive):
            assert omega(ladder) == Fraction((-1) ** (n - 1), n), n
            assert omega(corolla) == bernoulli(n - 1), n
        assert tree_factorial(ladder) == factorial(n)
        assert sigma(corolla) == factorial(n - 1)
        ladder = RootedTree((ladder,))
    assert bernoulli(1) == Fraction(-1, 2)


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


def test_omega_is_the_binomial_basis_alternating_sum():
    # the route through the order polynomial's binomial-basis coefficients,
    # which murua_omega does not take
    for n in range(1, 11):
        for t in enumerate_trees(n):
            assert murua_omega(t) == sum(
                Fraction((-1) ** (k - 1), k) * count_k_linearizations(t, k)
                for k in range(1, n + 1)), t.key


def test_omega_weights_differentiate_exactly():
    # sum_j w_j j^d / L is the derivative at 0 of x^d: 1 for d = 1, else 0
    for n in range(1, 14):
        L, weights = trees._omega_weights(n)
        assert len(weights) == n
        for d in range(1, n + 1):
            assert sum(w * j ** d for j, w in enumerate(weights, 1)) == \
                (L if d == 1 else 0), (n, d)


def test_omega_recursive_matches_direct_small():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert murua_omega_recursive(t) == murua_omega(t)


def _route_called(*args):
    raise AssertionError("a checked route called the route it is checked against")


def _clear_omega_caches():
    for memo in (trees._surjections, trees._omega_rec, trees._weak_values):
        memo.cache_clear()


def test_omega_routes_do_not_call_each_other(monkeypatch):
    # the selection recursion and the weak count run without the order
    # polynomial, and the order polynomial runs without the recursion
    small = [t for n in range(1, 9) for t in enumerate_trees(n)]
    _clear_omega_caches()
    with monkeypatch.context() as m:
        m.setattr(trees, "_surjections", _route_called)
        recursive = [murua_omega_recursive(t) for t in small]
        for t in small:
            count_weak_k_linearizations(t, t.size)
    _clear_omega_caches()
    with monkeypatch.context() as m:
        m.setattr(trees, "_omega_rec", _route_called)
        assert [murua_omega(t) for t in small] == recursive
    _clear_omega_caches()
    # omega reads the order polynomial's values, not its binomial-basis
    # coefficients
    with monkeypatch.context() as m:
        m.setattr(trees, "_surjections", _route_called)
        m.setattr(trees, "_binomial_product", _route_called)
        assert [murua_omega(t) for t in small] == recursive
    _clear_omega_caches()
    # and the recursion reads neither the values nor the coefficients
    with monkeypatch.context() as m:
        m.setattr(trees, "_weak_values", _route_called)
        assert [murua_omega_recursive(t) for t in small] == recursive
    _clear_omega_caches()
