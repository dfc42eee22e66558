"""The free pre-Lie algebra on one generator and its Hopf envelope.

Products: one grafting recursion, the symmetric brace t{u1,...,un}, the sum
over all ways to attach each u_i below some vertex of t, computed branch by
branch over sub-multisets of the arguments.  The pre-Lie product is the
one-argument brace graft(t, u) = t{u}, and the Grossman-Larson product of
forests is a * b = B-(B+(a){b}) (Oudom-Guin): each tree of b goes below a
vertex of a or becomes a component of its own.  Coproduct: Connes-Kreimer,
the admissible cuts with the trunk on the left and the pruning on the right,
and its left iterates (every one up to k from one loop), whose reduced
and irreducible parts lincomb.project takes, as for words.  The
coproduct is multiplicative on forests, and on a tree B+(f) it follows from
the coproduct of the branch forest f by the B+ cocycle

    Delta(B+(f)) = 1 (x) B+(f) + (B+ (x) id) Delta(f),

so every cut of B+(f) but the total one keeps the root and cuts f.  The
sigma-weighted pairing makes the coproduct dual to the Grossman-Larson
product.  Coefficients of the products and coproducts are ints; the series
operators make Fractions where they divide.

Series operators, each truncated by total grade: prelie_exp and the Magnus
series three ways (closed form via Murua coefficients, fixed point with
Bernoulli weights, and sol1 of the polynomial exponential); prelie_exp and
the fixed point take any pre-Lie product of series, graft by default.

Truncation discipline: a series carries no order of its own.  The products
and series operators take their order as an argument and keep the terms of
grade <= order; sol1, being graded, needs none.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, groupby, product
from math import comb, factorial, prod

from .exactnum import bernoulli
from .lincomb import (Tensor, TermMap, bilinear, iterate_coproduct,
                      multiplicative_coproduct, pair)
from .trees import (
    EMPTY_FOREST, Forest, RootedTree, b_minus, b_plus, enumerate_trees,
    murua_omega, sigma, tree_factorial,
)

__all__ = [
    "TreeSeries", "ForestPoly",
    "graft", "prelie", "brace", "gl_product", "poly_mul",
    "ck_coproduct", "coproduct_iterates",
    "pairing", "tensor_pairing",
    "prelie_exp", "cm_coefficient",
    "magnus_closed_form", "magnus_fixed_point", "sol1", "poly_exp",
    "tree_part",
]


class TreeSeries(TermMap):
    """Finite rational combination of rooted trees, graded by tree size;
    the one combination printed, so the one that sorts its terms."""

    __slots__ = ()

    @staticmethod
    def sort_key(t):
        return (t.size, t.key)

    def items(self):
        """Terms in printed order: by size, then by canonical key."""
        return sorted(self.terms.items(), key=lambda kv: self.sort_key(kv[0]))


class ForestPoly(TermMap):
    """Finite rational combination of forests (empty forest = the unit 1)."""

    __slots__ = ()


def tree_part(p: ForestPoly) -> TreeSeries:
    """Projection onto single-tree monomials."""
    return TreeSeries({f.trees[0]: c for f, c in p.terms.items()
                       if len(f.trees) == 1})


# ---------------------------------------------------------------------------
# grafting: the pre-Lie product, braces and the Grossman-Larson product

@cache
def _splits(args: tuple) -> tuple:
    """(sub, rest, ways) for every sub-multiset sub of the key-sorted trees
    args, rest being what is left; ways = prod_u C(m_u, c_u) counts the
    positions of args that hold sub.  sub and rest stay key-sorted."""
    runs = [tuple(g) for _, g in groupby(args)]
    return tuple(
        (tuple(chain.from_iterable(run[:c] for run, c in zip(runs, block))),
         tuple(chain.from_iterable(run[c:] for run, c in zip(runs, block))),
         prod(comb(len(run), c) for run, c in zip(runs, block)))
        for block in product(*(range(len(run) + 1) for run in runs)))


@cache
def _brace(t: RootedTree, args: tuple) -> TreeSeries:
    """t{args} for key-sorted argument trees: every way to attach each
    argument below some vertex of t.  Branch by branch, the root's branches
    each take a sub-multiset of the arguments not yet placed and are braced
    with it; the root keeps the rest as new branches."""
    if not args:
        return TreeSeries({t: 1})
    partial = {((), args): 1}  # (braced branches so far, unplaced) -> count
    for c in t.children:
        nxt: dict = {}
        for (kids, rem), w in partial.items():
            for sub, rest, ways in _splits(rem):
                for s, d in _brace(c, sub).terms.items():
                    key = (kids + (s,), rest)
                    nxt[key] = nxt.get(key, 0) + w * ways * d
        partial = nxt
    terms: dict = {}
    for (kids, rest), w in partial.items():
        grown = RootedTree(kids + rest)
        terms[grown] = terms.get(grown, 0) + w
    return TreeSeries(terms)


def graft(t: RootedTree, u: RootedTree) -> TreeSeries:
    """t <| u: sum over vertices v of t of (t with u's root attached below v)."""
    return _brace(t, (u,))


def prelie(a: TreeSeries, b: TreeSeries, order=None) -> TreeSeries:
    """Bilinear extension of graft, truncated to order if given."""
    return bilinear(a, b, graft, order)


def brace(t: RootedTree, args) -> TreeSeries:
    """Symmetric brace t{args} for a forest or sequence of argument trees:
    the sum over all ways to attach every argument below some vertex of t."""
    return _brace(t, tuple(sorted(args, key=lambda u: u.key)))


@cache
def _gl_monomial(fa: Forest, fb: Forest) -> ForestPoly:
    """fa * fb = B-(B+(fa){fb}): each tree of fb goes below a vertex of fa
    or, below the new root, becomes a component of its own."""
    return ForestPoly({b_minus(r): c
                       for r, c in _brace(b_plus(fa), fb.trees).terms.items()})


def gl_product(a: ForestPoly, b: ForestPoly, order=None) -> ForestPoly:
    """Grossman-Larson product, bilinear over monomials; unit = empty forest."""
    return bilinear(a, b, _gl_monomial, order)


def _juxtapose(fa: Forest, fb: Forest) -> Forest:
    return Forest(fa.trees + fb.trees)


def poly_mul(a: ForestPoly, b: ForestPoly, order=None) -> ForestPoly:
    """Commutative polynomial product (forest juxtaposition)."""
    return bilinear(a, b, lambda fa, fb: ForestPoly({_juxtapose(fa, fb): 1}),
                    order)


# ---------------------------------------------------------------------------
# Connes-Kreimer coproduct

@cache
def _delta_forest(f: Forest) -> dict:
    """Full coproduct of a forest monomial as {(left, right): count}."""
    return multiplicative_coproduct(f.trees, _delta_tree, EMPTY_FOREST, _juxtapose)


@cache
def _delta_tree(t: RootedTree) -> dict:
    """Coproduct of one tree by the B+ cocycle: 1 (x) t, plus B+(left) (x)
    right over the terms of the coproduct of t's branch forest."""
    out = {(EMPTY_FOREST, Forest((t,))): 1}
    for (left, right), c in _delta_forest(b_minus(t)).items():
        out[(Forest((b_plus(left),)), right)] = c
    return out


def _as_forest_poly(x) -> ForestPoly:
    if isinstance(x, ForestPoly):
        return x
    if isinstance(x, TreeSeries):
        return ForestPoly({Forest((t,)): c for t, c in x.terms.items()})
    if isinstance(x, RootedTree):
        return ForestPoly({Forest((x,)): 1})
    if isinstance(x, Forest):
        return ForestPoly({x: 1})
    raise TypeError("expected ForestPoly/TreeSeries/RootedTree/Forest, got %r"
                    % (type(x),))


def ck_coproduct(x) -> Tensor:
    """Connes-Kreimer coproduct: 1 (x) t + sum over admissible cuts, trunk (x)
    pruning (the empty cut giving t (x) 1); multiplicative on forests."""
    return coproduct_iterates(x, 2)[1]


def coproduct_iterates(x, k: int) -> list:
    """[delta^[1], ..., delta^[k]] of x from one left-iteration loop
    (delta^[1] is the identity); delta^[k] alone is the last."""
    return iterate_coproduct(_delta_forest, _as_forest_poly(x).terms, k)


# ---------------------------------------------------------------------------
# pairing

def pairing(a, b):
    """<s|t> = sigma(B+(t)) when the forests are isomorphic, else 0; bilinear,
    so an int on integer combinations."""
    return pair(_as_forest_poly(a).terms, _as_forest_poly(b).terms,
                lambda f: sigma(b_plus(f)))


def tensor_pairing(a: Tensor, b: Tensor):
    """Slotwise product extension of the pairing to equal-arity tensors."""
    if a.arity != b.arity:
        raise ValueError("tensor arities differ")
    return pair(a.terms, b.terms,
                lambda slots: prod(sigma(b_plus(f)) for f in slots))


# ---------------------------------------------------------------------------
# series operators

def _right_powers(a, x, weight, order: int, product):
    """sum_{n>=0} weight(n) r_n, r_0 = a, r_(n+1) = r_n <| x, truncated at
    order; a's terms have grade >= 1, so r_n has grade > n."""
    acc = type(a)({})
    r = a.truncated(order)
    n = 0
    while r and n < order:
        acc = acc + r.scaled(weight(n))
        r = product(r, x, order)
        n += 1
    return acc


def prelie_exp(a: TermMap, order: int, product=None) -> TermMap:
    """sum_{n>=1} (1/n!) r^(n)_a(a), r^(n) = r^(n-1) <| a, in a's type, with
    product(x, y, order) as <|: prelie, looked up per call, when None."""
    return _right_powers(a, a, lambda n: Fraction(1, factorial(n + 1)), order,
                         product or prelie)


def cm_coefficient(t: RootedTree) -> int:
    """Connes-Moscovici coefficient |t|!/(sigma(t) t!), an int: it counts
    the increasing labelings of t up to automorphism, and the automorphisms
    act freely on them."""
    cm, rem = divmod(factorial(t.size), sigma(t) * tree_factorial(t))
    assert rem == 0
    return cm


def magnus_closed_form(order: int) -> TreeSeries:
    """Omega(generator) = sum over trees of (omega(t)/sigma(t)) t, by grade."""
    acc: dict = {}
    for n in range(1, order + 1):
        for t in enumerate_trees(n):
            c = murua_omega(t) / sigma(t)
            if c:
                acc[t] = c
    return TreeSeries(acc)


def magnus_fixed_point(a: TermMap, order: int, product=None) -> TermMap:
    """Grade-by-grade solution of Omega = sum_{n>=0} (B_n/n!) r^(n+1)_Omega(a).

    The n = 0 term is a itself, the n = 1 term is B_1 (a <| Omega), and so on.
    Every term of a has grade >= 1, so grade p of the right side reads only
    grades < p of Omega: pass p, truncated at grade p, fixes grade p.  Each
    pass's products are cut at its own grade p, the last pass's at `order`.
    """
    product = product or prelie
    acc = type(a)({})
    for p in range(1, order + 1):
        acc = _right_powers(a, acc, lambda n: bernoulli(n) / factorial(n), p,
                            product)
    return acc


def _sol1_monomial(f: Forest) -> ForestPoly:
    """sol1 of one monomial, summed over compositions of its multiplicities.

    Ordered set partitions of the positions whose blocks hold the same
    multisets of trees give the same GL product; the walk picks each next
    block as a nonempty sub-multiset of the trees left (`_splits`), weighted
    by the number of position sets that hold it.  The blocks are picked depth
    first, so a prefix product B1 * ... * Bi is formed once and shared by
    every composition that starts with it.
    """
    acc: dict = {}

    def walk(prefix, rem, k, weight):
        if not rem:
            c = Fraction((-1) ** (k - 1) * weight, k)
            for g, d in prefix.terms.items():
                acc[g] = acc.get(g, 0) + c * d
            return
        for sub, rest, ways in _splits(rem):
            if sub:
                mono = ForestPoly({Forest(sub): 1})
                walk(mono if prefix is None else gl_product(prefix, mono),
                     rest, k + 1, weight * ways)

    if f.trees:  # sol1(1) = 0
        walk(None, f.trees, 0, 1)
    return ForestPoly(acc)


def sol1(x: ForestPoly) -> ForestPoly:
    """Alternating ordered-partition sum of Grossman-Larson products.

    sol1(b1...bn) = sum_{k=1..n} ((-1)^(k-1)/k) sum over ordered partitions
    (I1,..,Ik) of [n] of b_{I1} * ... * b_{Ik}; linear in x; sol1(1) = 0.
    The GL product is graded, so sol1 is: a grade-g monomial maps to grade-g
    terms only, and sol1 needs no truncation order.
    """
    acc = ForestPoly({})
    for f, c in x.terms.items():
        acc = acc + _sol1_monomial(f).scaled(c)
    return acc


def poly_exp(a: TreeSeries, order: int) -> ForestPoly:
    """Polynomial (juxtaposition) exponential sum_n a^n / n!, by total grade."""
    p = _as_forest_poly(a).truncated(order)
    if any(f.size == 0 for f in p.terms):
        raise ValueError("poly_exp needs grade >= 1 terms only")
    # juxtaposition commutes, so the right powers of p are its powers
    return ForestPoly({EMPTY_FOREST: 1}) + prelie_exp(p, order, poly_mul)
