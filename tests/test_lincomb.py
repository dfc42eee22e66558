"""The number policy: coefficients are int or Fraction, never float, and a
Fraction appears only where a division does."""

from fractions import Fraction
from itertools import product

import pytest

from prelie.forest import CKBasis, WordBasis, forest_formula
from prelie.freeprelie import (
    ForestPoly, TreeSeries, brace, ck_coproduct, gl_product, graft,
    iterated_coproduct, magnus_closed_form, magnus_fixed_point, pairing,
    poly_exp, prelie_exp, sol1, tree_part,
)
from prelie.trees import LEAF, enumerate_forests, enumerate_trees
from prelie.words import WordPoly, enumerate_words, word_iterated_coproducts

TREES = [t for n in range(1, 5) for t in enumerate_trees(n)]
FORESTS = [f for n in range(4) for f in enumerate_forests(n)]
WORDS = [w for n in range(1, 5) for w in enumerate_words("ab", n)]
FLAVORS = ("full", "reduced", "irr")


def coeffs(x):
    return list((x if isinstance(x, dict) else x.terms).values())


def integer_routes():
    for t, u in product(TREES, repeat=2):
        yield graft(t, u)
        yield brace(t, (u, LEAF))
    for fa, fb in product(FORESTS, repeat=2):
        yield gl_product(ForestPoly({fa: 1}), ForestPoly({fb: 1}))
    for t in TREES:
        yield ck_coproduct(t)
        yield iterated_coproduct(t, 3)
    for w, flavor in product(WORDS, FLAVORS):
        yield word_iterated_coproducts(WordPoly({(w,): 1}), 3, flavor)
    ck, wb = CKBasis(), WordBasis("ab")
    indices = ([(ck, ck.index_of(t)) for t in TREES + enumerate_trees(5)]
               + [(wb, wb.index_of(w)) for w in WORDS])
    for (basis, i), k, flavor in product(indices, (2, 3), FLAVORS):
        yield forest_formula(i, k, flavor, basis)


def test_integer_routes_give_ints():
    seen = 0
    for x in integer_routes():
        for c in coeffs(x):
            assert type(c) is int, (x, c)
            seen += 1
    assert seen > 1000


def test_pairing_of_integer_combinations_is_an_int():
    for f in FORESTS[1:]:
        assert type(pairing(f, f)) is int


GEN = TreeSeries({LEAF: 1})


@pytest.mark.parametrize("route", [
    lambda: magnus_closed_form(6),
    lambda: magnus_fixed_point(GEN, 6),
    lambda: tree_part(sol1(poly_exp(GEN, 6))),
    lambda: prelie_exp(GEN, 6),
    lambda: poly_exp(GEN, 6),
], ids=["closed", "fixed-point", "sol1", "prelie-exp", "poly-exp"])
def test_no_route_gives_a_float(route):
    got = coeffs(route())
    assert got and all(type(c) in (int, Fraction) for c in got)
    # every route divides somewhere, so a Fraction shows up
    assert any(type(c) is Fraction for c in got)


def test_float_input_becomes_an_exact_fraction():
    s = TreeSeries({LEAF: 0.5})
    assert type(s.coeff(LEAF)) is Fraction and s.coeff(LEAF) == Fraction(1, 2)
    scaled = s.scaled(0.25)
    assert type(scaled.coeff(LEAF)) is Fraction
    assert scaled.coeff(LEAF) == Fraction(1, 8)
    assert s.scaled(3).coeff(LEAF) == Fraction(3, 2)
