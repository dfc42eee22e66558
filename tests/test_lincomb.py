"""The number policy: coefficients are int or Fraction, never float, and a
Fraction appears only where a division does; the shared slot projections;
the one left-iteration loop that hands out every iterate; and the one tensor
type of every basis, with a repr that names every term."""

from fractions import Fraction
from itertools import product

import pytest

import oracles
from prelie import freeprelie, words
from prelie.forest import CKBasis, WordBasis, forest_formula
from prelie.freeprelie import (
    ForestPoly, TreeSeries, brace, ck_coproduct,
    coproduct_iterates, gl_product, graft, magnus_closed_form,
    magnus_fixed_point, pairing, poly_exp, prelie_exp, sol1, tree_part,
)
from prelie.lincomb import Tensor, TermMap, iterate_coproduct, project
from prelie.trees import LEAF, Forest, enumerate_forests, enumerate_trees
from prelie.words import (WordPoly, enumerate_words, word_coproduct_iterates,
                          word_dual_coproduct, word_prelie_series)

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
        yield coproduct_iterates(t, 3)[2]
    for w, flavor in product(WORDS, FLAVORS):
        yield project(word_coproduct_iterates(WordPoly({(w,): 1}), 3)[2],
                      flavor)
    ck, wb = CKBasis(), WordBasis("ab")
    indices = ([(ck, ck.index_of(t)) for t in TREES + enumerate_trees(5)]
               + [(wb, wb.index_of(w)) for w in WORDS])
    for (basis, i), k, flavor in product(indices, (2, 3), FLAVORS):
        yield forest_formula(i, k, basis)[k][flavor]


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
WORD_SERIES = WordPoly({(w,): 1 for w in WORDS})


@pytest.mark.parametrize("route", [
    lambda: magnus_closed_form(6),
    lambda: magnus_fixed_point(GEN, 6),
    lambda: tree_part(sol1(poly_exp(GEN, 6))),
    lambda: prelie_exp(GEN, 6),
    lambda: poly_exp(GEN, 6),
    lambda: prelie_exp(WORD_SERIES, 6, word_prelie_series),
    lambda: magnus_fixed_point(WORD_SERIES, 6, word_prelie_series),
], ids=["closed", "fixed-point", "sol1", "prelie-exp", "poly-exp",
        "word-exp", "word-magnus"])
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


_KEEPS = {"full": lambda slots: True,
          "reduced": lambda slots: all(len(s) for s in slots),
          "irr": lambda slots: all(len(s) == 1 for s in slots)}


@pytest.mark.parametrize("flavor", FLAVORS)
def test_project_keeps_what_the_slot_definitions_keep(flavor):
    full = ([d for t in TREES for d in coproduct_iterates(t, 3)[1:]]
            + [d for w in WORDS
               for d in word_coproduct_iterates(WordPoly({(w,): 1}), 3)[1:]])
    kept = 0
    for tensor in full:
        got = project(tensor, flavor)
        assert type(got) is type(tensor) and got.arity == tensor.arity
        assert list(got.terms.items()) == [
            (slots, c) for slots, c in tensor.terms.items()
            if _KEEPS[flavor](slots)]
        kept += len(got.terms)
    assert kept > 50


def test_project_rejects_an_unknown_flavor():
    with pytest.raises(ValueError):
        project(Tensor(2), "nonempty")


def test_every_iterate_matches_the_per_k_left_iteration():
    # one loop hands out delta^[1..k]; each must equal k-1 left steps
    # started afresh
    cases = [(freeprelie._delta_forest, {Forest((t,)): 1}, t,
              coproduct_iterates, Tensor)
             for t in TREES + enumerate_trees(5)]
    cases += [(words._delta_monomial, {(w,): 1}, WordPoly({(w,): 1}),
               word_coproduct_iterates, Tensor)
              for w in WORDS + enumerate_words("ab", 5)]
    terms = 0
    for delta2, x_terms, x, iterates, tensor in cases:
        want = [oracles.left_iterate(delta2, x_terms, k) for k in range(1, 6)]
        assert iterate_coproduct(delta2, x_terms, 5) == [
            Tensor(k, w) for k, w in enumerate(want, 1)], x
        got = iterates(x, 5)
        assert got == [tensor(k, w) for k, w in enumerate(want, 1)], x
        assert [g.arity for g in got] == [1, 2, 3, 4, 5]
        terms += sum(len(g.terms) for g in got)
    assert terms > 10000
    with pytest.raises(ValueError):
        iterate_coproduct(freeprelie._delta_forest, {}, 0)


def test_every_basis_builds_the_one_tensor_type():
    ck, wb = CKBasis(), WordBasis("ab")
    t, w = enumerate_trees(4)[1], "abbab"
    by_k = [forest_formula(basis.index_of(x), 3, basis)[3]["full"]
            for basis, x in ((ck, t), (wb, w))]
    tensors = ([ck_coproduct(t), word_dual_coproduct(w),
                ck.slot_tensor(by_k[0], 3), wb.slot_tensor(by_k[1], 3)]
               + coproduct_iterates(t, 3)
               + word_coproduct_iterates(WordPoly({(w,): 1}), 3))
    assert [type(x) for x in tensors] == [Tensor] * 10
    assert all(x.terms for x in tensors)


def test_a_tensors_arity_is_part_of_its_value():
    # delta_bar of a word shorter than 3 letters is zero, so both sides of
    # each comparison hold no term
    assert Tensor(2, {}) != Tensor(3, {})
    assert word_dual_coproduct("ab") != Tensor(5, {})
    assert word_dual_coproduct("ab") == Tensor(2, {})
    with pytest.raises(TypeError):
        Tensor(2, {}) + Tensor(3, {})


def test_repr_names_every_term_in_any_basis():
    t = enumerate_trees(4)[1]
    gen = WordPoly({("ab",): 1, ("a",): 2})
    combinations = [magnus_closed_form(4), poly_exp(TreeSeries({LEAF: 1}), 3),
                    word_prelie_series(gen, gen), ck_coproduct(t),
                    word_dual_coproduct("abbab")]
    for x in combinations:
        text = repr(x)
        assert text.startswith(type(x).__name__ + "({") and text.endswith("})")
        assert text.count(": ") == len(x.terms) > 1
        for key, c in x.terms.items():
            assert "%s: %s" % (key, c) in text, (key, text)


def test_dict_input_turns_float_and_bool_coefficients_into_fractions():
    # ints and Fractions are kept as given, anything else becomes the
    # Fraction of its exact value, in a TermMap and in a Tensor alike
    terms = {"a": 0.5, "b": True, "c": 3, "d": Fraction(1, 3), "e": -0.25}
    for got in (TermMap(terms).terms,
                {k[0]: c for k, c in Tensor(1, {(k,): c for k, c
                                                in terms.items()}).terms.items()}):
        assert got == {"a": Fraction(1, 2), "b": 1, "c": 3,
                       "d": Fraction(1, 3), "e": Fraction(-1, 4)}
        assert [type(c) for c in got.values()] == [
            Fraction, Fraction, int, Fraction, Fraction]
    assert terms["a"] == 0.5  # the caller's dict is not touched


@pytest.mark.parametrize("zero", [0, Fraction(0), 0.0, -0.0, False])
def test_zero_coefficients_are_dropped(zero):
    for terms in ({"a": zero, "b": 2}, [("a", zero), ("b", 2)],
                  [("a", 1), ("b", 2), ("a", -1)]):
        assert TermMap(terms).terms == {"b": 2}, terms
    assert TermMap({"a": zero}).terms == {}
    assert Tensor(2, {("a", "b"): zero}) == Tensor(2)
    # a dropped term is not checked for arity
    assert Tensor(2, {("a",): zero, ("a", "b"): 1}).terms == {("a", "b"): 1}


def test_an_arity_mismatch_names_the_first_bad_term():
    terms = [(("a", "b"), 1), (("c",), 2), (("d", "e", "f"), 3)]
    for given in (dict(terms), terms, iter(terms)):
        with pytest.raises(ValueError) as err:
            Tensor(2, given)
        assert str(err.value) == "tensor term ('c',) does not have arity 2"
    with pytest.raises(ValueError) as err:
        Tensor(3, {("a", "b", "c"): 1, (): Fraction(1, 2)})
    assert str(err.value) == "tensor term () does not have arity 3"
