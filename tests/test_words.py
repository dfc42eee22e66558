from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from prelie.lincomb import Tensor, bilinear, project
from prelie.words import (
    WordPoly, enumerate_words, monomial, monomial_weight, word_brace,
    word_coproduct_iterates, word_dual_coproduct, word_pairing, word_prelie,
    word_prelie_series,
)

words_st = st.text(alphabet="ab", min_size=1, max_size=4)


def wp(w):
    return WordPoly({(w,): 1})


# ---------------------------------------------------------------------------
# insertion product

def test_prelie_fixtures():
    assert word_prelie("a", "b") == WordPoly({})
    assert word_prelie("ab", "c") == wp("acb")
    assert word_prelie("abc", "d") == WordPoly({("adbc",): 1, ("abdc",): 1})
    assert word_prelie("aa", "a") == wp("aaa")


def test_prelie_rejects_the_empty_word():
    for alpha, gamma in (("ab", ""), ("", "ab"), ("", "")):
        with pytest.raises(ValueError, match="empty word"):
            word_prelie(alpha, gamma)


def test_prelie_series_is_bilinear_word_prelie():
    a = WordPoly({("ab",): 2, ("abc",): Fraction(1, 3)})
    b = WordPoly({("c",): 1, ("dd",): -1})
    want = WordPoly({})
    for (x,), ca in a.terms.items():
        for (y,), cb in b.terms.items():
            want = want + word_prelie(x, y).scaled(ca * cb)
    assert word_prelie_series(a, b) == want
    assert len(want.terms) == 6
    # truncation by total letter count drops the five-letter words
    assert word_prelie_series(a, b, 4) == want.truncated(4) == \
        WordPoly({("acb",): 2, ("addb",): -2, ("acbc",): Fraction(1, 3),
                  ("abcc",): Fraction(1, 3)})


def test_prelie_series_rejects_other_monomials():
    for bad in (WordPoly({(): 1}), WordPoly({("a", "b"): 1})):
        for a, b in ((wp("ab"), bad), (bad, wp("ab"))):
            with pytest.raises(ValueError, match="single words"):
                word_prelie_series(a, b)
    # also where truncation would skip the pair
    with pytest.raises(ValueError, match="single words"):
        word_prelie_series(WordPoly({("ab", "ab"): 1}), wp("ab"), 2)


@settings(deadline=None, max_examples=100)
@given(words_st, words_st, words_st)
def test_prelie_identity_on_words(a, b, c):
    ins = word_prelie_series
    a, b, c = wp(a), wp(b), wp(c)
    lhs = ins(ins(a, b), c) - ins(a, ins(b, c))
    rhs = ins(ins(a, c), b) - ins(a, ins(c, b))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# braces

def test_brace_fixtures():
    assert word_brace("a", ("b",)) == WordPoly({})
    assert word_brace("ab", ()) == wp("ab")
    # both orders of insertion at the single interior slot
    assert word_brace("ab", ("c", "d")) == WordPoly({("acdb",): 1, ("adcb",): 1})
    assert word_brace("ab", ("c",)) == wp("acb")


def test_brace_rejects_the_empty_word():
    for alpha, gammas in (("", ()), ("", ("a",)), ("ab", ("",)),
                          ("abc", ("a", ""))):
        with pytest.raises(ValueError, match="empty word"):
            word_brace(alpha, gammas)


def test_brace_matches_oudom_guin_recursion():
    def op(u, v):
        return {w: c for (w,), c in word_prelie(u, v).terms.items()}

    alphas = [w for n in (1, 2, 3) for w in enumerate_words("ab", n)]
    gammas = [w for n in (1, 2) for w in enumerate_words("ab", n)]
    checked = 0
    for alpha in alphas:
        for n in (1, 2, 3):
            for args in combinations_with_replacement(gammas, n):
                want = oracles.oudom_guin_brace(op, alpha, args)
                got = {w: c for (w,), c in word_brace(alpha, args).terms.items()}
                assert got == want, (alpha, args)
                checked += 1
    assert checked > 300


@settings(deadline=None, max_examples=40)
@given(words_st, st.lists(words_st, min_size=2, max_size=3), st.randoms())
def test_brace_symmetry(alpha, gammas, rng):
    shuffled = list(gammas)
    rng.shuffle(shuffled)
    assert word_brace(alpha, gammas) == word_brace(alpha, shuffled)


# ---------------------------------------------------------------------------
# coproducts

def test_dual_coproduct_fixtures():
    assert word_dual_coproduct("ab") == Tensor(2, {})
    assert word_dual_coproduct("abc") == Tensor(2, {(("ac",), ("b",)): 1})
    assert word_dual_coproduct("abcd") == Tensor(2, {
        (("acd",), ("b",)): 1,
        (("abd",), ("c",)): 1,
        (("ad",), ("bc",)): 1,
        (("ad",), ("b", "c")): 1,
    })


def test_full_coproduct_on_a_letter():
    d = word_coproduct_iterates(wp("a"), 2)[1]
    assert d == Tensor(2, {((), ("a",)): 1, (("a",), ()): 1})


def test_full_coproduct_is_multiplicative():
    u, v = "ab", "ba"
    du = _delta_terms((u,))
    dv = _delta_terms((v,))
    merged = {}
    for (l1, r1), c in du.items():
        for (l2, r2), d in dv.items():
            key = (monomial(l1 + l2), monomial(r1 + r2))
            merged[key] = merged.get(key, Fraction(0)) + c * d
    got = word_coproduct_iterates(WordPoly({monomial((u, v)): 1}), 2)[1]
    assert got == Tensor(2, merged)


def _delta_terms(mono):
    return dict(word_coproduct_iterates(WordPoly({mono: 1}), 2)[1].terms)


def test_iterated_flavors():
    irr2 = project(word_coproduct_iterates(wp("abc"), 2)[1], "irr")
    assert irr2 == Tensor(2, {(("ac",), ("b",)): 1})
    irr3 = project(word_coproduct_iterates(wp("abcde"), 3)[2], "irr")
    assert irr3.terms.get((("ace",), ("b",), ("d",))) == 1
    assert irr3.terms.get((("ace",), ("d",), ("b",))) == 1
    red = project(word_coproduct_iterates(wp("abc"), 2)[1], "reduced")
    assert red == Tensor(2, {(("ac",), ("b",)): 1})
    with pytest.raises(ValueError):
        project(word_coproduct_iterates(wp("abc"), 2)[1], "bogus")


def test_coproduct_respects_grading():
    for w in enumerate_words("ab", 4):
        for slots, c in word_coproduct_iterates(wp(w), 2)[1].terms.items():
            assert sum(sum(len(u) for u in m) for m in slots) == 4
            assert c > 0


# ---------------------------------------------------------------------------
# duality brace vs coproduct

def test_brace_coproduct_duality_sample():
    # <alpha{gammas} | w> = <alpha (x) gammas | delta_bar(w)> on 2 letters
    gammas_pool = [w for n in (1, 2) for w in enumerate_words("ab", n)]
    alphas = [w for n in (1, 2, 3) for w in enumerate_words("ab", n)]
    deltas = {w: word_dual_coproduct(w)
              for n in range(3, 5) for w in enumerate_words("ab", n)}
    checked = 0
    for alpha in alphas:
        for n in (1, 2):
            for gs in combinations_with_replacement(gammas_pool, n):
                L = len(alpha) + sum(len(g) for g in gs)
                if L > 4:
                    continue
                braced = word_brace(alpha, gs)
                probe = Tensor(2, {((alpha,), monomial(gs)): 1})
                for w in enumerate_words("ab", L):
                    lhs = word_pairing(braced, w)
                    rhs = _tensor_pair(probe, deltas[w]) if L >= 3 else Fraction(0)
                    assert lhs == rhs, (alpha, gs, w)
                    checked += 1
    assert checked > 400


def _tensor_pair(a, b):
    out = Fraction(0)
    for (l1, r1), c in a.terms.items():
        for (l2, r2), d in b.terms.items():
            out += c * d * _mp(l1, l2) * _mp(r1, r2)
    return out


def _mp(u, v):
    return monomial_weight(u) if u == v else 0


# ---------------------------------------------------------------------------
# pairing and containers

def test_pairing_fixtures():
    assert word_pairing("ab", "ab") == 1
    assert word_pairing(WordPoly({("ab", "ab"): 1}), WordPoly({("ab", "ab"): 1})) == 2
    assert word_pairing("ab", "ba") == 0
    assert word_pairing(WordPoly({("a", "b"): 1}), WordPoly({("a", "b"): 1})) == 1


def test_monomial_canonicalization():
    assert monomial(("b", "a")) == ("a", "b")
    with pytest.raises(ValueError):
        monomial(("a", ""))


def test_enumerate_words():
    assert enumerate_words("ab", 2) == ["aa", "ab", "ba", "bb"]
    with pytest.raises(ValueError):
        enumerate_words("ab", 0)


def test_word_poly_truncates_by_total_letters():
    x = WordPoly({("ab",): 1, ("a", "b"): 2, ("abc",): 3, ("a",): 4})
    assert x.truncated(2) == WordPoly({("ab",): 1, ("a", "b"): 2,
                                       ("a",): 4})
    assert x.truncated(1) == WordPoly({("a",): 4})
    assert WordPoly({(): 5, ("a",): 1}).truncated(0) == WordPoly({(): 5})

    def concat(u, v):
        return WordPoly({tuple(sorted(u + v)): 1})

    y = WordPoly({("a",): 1, ("bb",): 1})
    assert bilinear(y, y, concat, 3) == WordPoly(
        {("a", "a"): 1, ("a", "bb"): 2})
    assert bilinear(y, y, concat, 3) == bilinear(y, y, concat).truncated(3)


def test_tensor_arity_guard():
    with pytest.raises(ValueError):
        Tensor(2, {(("a",),): 1})
