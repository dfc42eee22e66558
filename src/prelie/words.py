"""The pre-Lie algebra of nonempty words under insertion.

alpha <| gamma inserts gamma at each of the |alpha|-1 interior positions of
alpha.  The brace alpha{gamma_1,...,gamma_n} has a closed form: sum over
permutations and over n-tuples of interior cut positions (ends stay nonempty,
consecutive insertion points may coincide).  Dual to it is the coproduct
delta_bar(w), a sum over odd-length factorizations w = w_1 ... w_{2m+1} with
nonempty ends and even factors; the left slot keeps the concatenated odd
factors, the right slot the commutative product of even factors.  With
w (x) 1 + 1 (x) w added and extended multiplicatively to monomials it is
the full coproduct that word_coproduct_iterates iterates on the left,
keeping every iterate up to k; lincomb.project takes the reduced and
irreducible parts of the iterates.

Monomials are multisets of words, stored as sorted tuples; () is the unit.
The pairing is the permanent extension of the orthonormal one on words:
equal multisets pair to the product of multiplicity factorials.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations_with_replacement, permutations, product
from math import factorial

from .lincomb import (Tensor, TermMap, bilinear, iterate_coproduct,
                      multiplicative_coproduct, pair)

__all__ = [
    "WordPoly", "monomial", "enumerate_words",
    "word_prelie", "word_prelie_series", "word_brace", "word_dual_coproduct",
    "word_coproduct_iterates", "monomial_weight", "word_pairing",
]


def monomial(words) -> tuple:
    """Canonical (sorted) multiset form; rejects empty words."""
    words = tuple(sorted(words))
    if any(not w for w in words):
        raise ValueError("empty word in monomial")
    return words


class WordPoly(TermMap):
    """Finite rational combination of word monomials; key () is the unit 1."""

    __slots__ = ()

    @staticmethod
    def grade(mono):
        return sum(len(w) for w in mono)


def enumerate_words(alphabet, n: int) -> list:
    """All length-n words, lexicographic in the declared symbol order."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    return ["".join(p) for p in product(alphabet, repeat=n)]


def _check_nonempty(*words):
    if not all(words):
        raise ValueError("the word pre-Lie algebra has no empty word")


def word_prelie(alpha: str, gamma: str) -> WordPoly:
    """alpha <| gamma: insert gamma between the two halves of each proper split."""
    _check_nonempty(alpha, gamma)
    return WordPoly(((alpha[:i] + gamma + alpha[i:],), 1)
                    for i in range(1, len(alpha)))


def word_prelie_series(a: WordPoly, b: WordPoly, order=None) -> WordPoly:
    """Bilinear word_prelie, the product for freeprelie's exp and Magnus of a
    cumulant table; keys other than single words raise ValueError."""
    if any(len(m) != 1 for x in (a, b) for m in x.terms):
        raise ValueError("the insertion product takes single words only")
    return bilinear(a, b, lambda x, y: word_prelie(x[0], y[0]), order)


def word_brace(alpha: str, gammas) -> WordPoly:
    """alpha{gamma_1,..,gamma_n}: permutations x interior cut positions.

    Cut positions are a non-decreasing n-tuple from 1..|alpha|-1, so the two
    outer pieces of alpha stay nonempty while interior pieces may be empty
    (adjacent insertions).  n = 0 returns alpha itself.
    """
    gammas = tuple(gammas)
    _check_nonempty(alpha, *gammas)
    n = len(gammas)
    if n == 0:
        return WordPoly({(alpha,): 1})
    if len(alpha) < 2:
        return WordPoly({})
    acc: dict = {}
    for perm in permutations(range(n)):
        for cuts in combinations_with_replacement(range(1, len(alpha)), n):
            pieces = [alpha[:cuts[0]]]
            for j in range(n):
                pieces.append(gammas[perm[j]])
                end = cuts[j + 1] if j + 1 < n else len(alpha)
                pieces.append(alpha[cuts[j]:end])
            key = ("".join(pieces),)
            acc[key] = acc.get(key, 0) + 1
    return WordPoly(acc)


def word_dual_coproduct(w: str) -> Tensor:
    """delta_bar(w): odd factorizations, concatenated odd parts (x) even parts.

    Ends and even factors are nonempty; interior odd factors may be empty.
    Zero for |w| < 3.
    """
    L = len(w)
    acc: dict = {}
    for m in range(1, L - 1):
        for cuts in combinations_with_replacement(range(1, L), 2 * m):
            if any(cuts[2 * i] == cuts[2 * i + 1] for i in range(m)):
                continue  # even factor would be empty
            bounds = (0,) + cuts + (L,)
            parts = [w[bounds[j]:bounds[j + 1]] for j in range(2 * m + 1)]
            left = ("".join(parts[0::2]),)
            right = monomial(parts[1::2])
            key = (left, right)
            acc[key] = acc.get(key, 0) + 1
    return Tensor(2, acc)


@cache
def _delta_monomial(mono: tuple) -> dict:
    """Full coproduct of a monomial as {(left, right): count}."""
    return multiplicative_coproduct(mono, _delta_word, (), _join)


def _delta_word(w: str) -> dict:
    """delta_bar(w) + w (x) 1 + 1 (x) w."""
    out = {((w,), ()): 1, ((), (w,)): 1}
    out.update(word_dual_coproduct(w).terms)
    return out


def _join(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b))


def word_coproduct_iterates(x: WordPoly, k: int) -> list:
    """[delta^[1], ..., delta^[k]] of x from one left-iteration loop, delta =
    delta_bar + 1 (x) w + w (x) 1 on words and multiplicative on monomials;
    lincomb.project takes their reduced and irreducible parts."""
    return iterate_coproduct(_delta_monomial, x.terms, k)


def monomial_weight(mono: tuple) -> int:
    """<m|m> for a word monomial m: the product of its multiplicity
    factorials."""
    out = 1
    for mult in Counter(mono).values():
        out *= factorial(mult)
    return out


def word_pairing(x, y):
    """Permanent pairing: equal multisets pair to prod(multiplicity!); an int
    on integer combinations."""
    if isinstance(x, str):
        x = WordPoly({(x,): 1})
    if isinstance(y, str):
        y = WordPoly({(y,): 1})
    return pair(x.terms, y.terms, monomial_weight)
