"""The free pre-Lie algebra on one generator and its Hopf envelope.

Products: graft (the pre-Lie product, sum over attachment vertices), the
symmetric brace t{u1,...,un} by the Oudom-Guin recursion, and the
Grossman-Larson product on forest polynomials.  Coproduct: Connes-Kreimer,
the admissible cuts with the trunk on the left and the pruning on the right,
with iterated, reduced and irreducible variants.  It is multiplicative on
forests, and on a tree B+(f) it follows from the coproduct of the branch
forest f by the B+ cocycle

    Delta(B+(f)) = 1 (x) B+(f) + (B+ (x) id) Delta(f),

so every cut of B+(f) but the total one keeps the root and cuts f.  The
sigma-weighted pairing makes the coproduct dual to the Grossman-Larson
product.  Coefficients of the products and coproducts are ints; the series
operators make Fractions where they divide.

Series operators: prelie_exp (exp under graft), the Magnus series three ways
(closed form via Murua coefficients, fixed point with Bernoulli weights, and
sol1 of the polynomial exponential), each truncated by total grade.

Truncation discipline: TreeSeries and ForestPoly carry a truncation order
(None = untruncated); binary operations keep the min of the declared orders
and every series operator takes an explicit order argument.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, groupby, product
from math import comb, factorial, prod

from .exactnum import bernoulli
from .lincomb import (Tensor, TermMap, bilinear, iterate_coproduct,
                      multiplicative_coproduct, pair, project)
from .trees import (
    EMPTY_FOREST, Forest, RootedTree, b_minus, b_plus, enumerate_trees,
    murua_omega, sigma, tree_factorial,
)

__all__ = [
    "TreeSeries", "ForestPoly", "TensorPoly",
    "graft", "prelie", "brace", "gl_product", "poly_mul",
    "ck_coproduct", "iterated_coproduct", "reduced_iterated_coproduct",
    "irr_iterated_coproduct",
    "pairing", "tensor_pairing",
    "prelie_exp", "cm_coefficient",
    "magnus_closed_form", "magnus_fixed_point", "sol1", "poly_exp",
    "tree_series_to_poly", "tree_part",
]


class TreeSeries(TermMap):
    """Finite rational combination of rooted trees, with a truncation order."""

    __slots__ = ()

    def to_json(self):
        return [{"forest": t.key, "coeff": str(c)} for t, c in self.items()]


class ForestPoly(TermMap):
    """Finite rational combination of forests (empty forest = the unit 1)."""

    __slots__ = ()


class TensorPoly(Tensor):
    """Rational combination of k-tuples of forests (Sweedler tensors)."""

    __slots__ = ()


def tree_series_to_poly(s: TreeSeries) -> ForestPoly:
    return ForestPoly({Forest((t,)): c for t, c in s.terms.items()}, s.order)


def tree_part(p: ForestPoly) -> TreeSeries:
    """Projection onto single-tree monomials."""
    return TreeSeries({f.trees[0]: c for f, c in p.terms.items() if len(f.trees) == 1},
                      p.order)


# ---------------------------------------------------------------------------
# pre-Lie product and braces

def graft(t: RootedTree, u: RootedTree) -> TreeSeries:
    """t <| u: sum over vertices v of t of (t with u's root attached below v)."""
    return _graft(t, u)


@cache
def _graft(t: RootedTree, u: RootedTree) -> TreeSeries:
    terms: dict = {RootedTree(t.children + (u,)): 1}
    for i, c in enumerate(t.children):
        rest = t.children[:i] + t.children[i + 1:]
        for sub, coeff in _graft(c, u).terms.items():
            grown = RootedTree(rest + (sub,))
            terms[grown] = terms.get(grown, 0) + coeff
    return TreeSeries(terms)


def prelie(a: TreeSeries, b: TreeSeries, order=None) -> TreeSeries:
    """Bilinear extension of graft, truncated to order if given."""
    return bilinear(a, b, graft, order)


@cache
def _brace_basis(t: RootedTree, args: tuple) -> TreeSeries:
    """Symmetric brace t{args} by the Oudom-Guin recursion.

    t{} = t, t{u} = t <| u, and
    t{u1..un} = (t{u1..u_{n-1}}){un} - sum_i t{u1, .., ui <| un, .., u_{n-1}}.
    """
    if not args:
        return TreeSeries({t: 1})
    if len(args) == 1:
        return graft(t, args[0])
    head, last = args[:-1], args[-1]
    out = prelie(_brace_basis(t, head), TreeSeries({last: 1}))
    for i in range(len(head)):
        for s, c in graft(head[i], last).terms.items():
            out = out - _brace_basis(t, head[:i] + (s,) + head[i + 1:]).scaled(c)
    return out


def brace(t: RootedTree, args) -> TreeSeries:
    """t{args} for a forest or sequence of argument trees."""
    if isinstance(args, Forest):
        args = args.trees
    return _brace_basis(t, tuple(args))


# ---------------------------------------------------------------------------
# Grossman-Larson product

@cache
def _gl_monomial(fa: Forest, fb: Forest) -> ForestPoly:
    a_trees, b_trees = fa.trees, fb.trees
    ell, m = len(a_trees), len(b_trees)
    acc: dict = {}
    for assign in product(range(ell + 1), repeat=m):
        groups: list = [[] for _ in range(ell + 1)]
        for pos, dest in enumerate(assign):
            groups[dest].append(b_trees[pos])
        # distribute the product of brace series over the a-factors
        partial = [(tuple(groups[0]), 1)]
        for i in range(ell):
            # braces are symmetric in their arguments: sort for memo reuse
            args = tuple(sorted(groups[i + 1], key=lambda u: u.key))
            fac = _brace_basis(a_trees[i], args)
            partial = [(trees + (r,), c * d)
                       for trees, c in partial
                       for r, d in fac.terms.items()]
        for trees, c in partial:
            f = Forest(trees)
            acc[f] = acc.get(f, 0) + c
    return ForestPoly(acc)


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
        return tree_series_to_poly(x)
    if isinstance(x, RootedTree):
        return ForestPoly({Forest((x,)): 1})
    if isinstance(x, Forest):
        return ForestPoly({x: 1})
    raise TypeError("expected ForestPoly/TreeSeries/RootedTree/Forest, got %r"
                    % (type(x),))


def ck_coproduct(x) -> TensorPoly:
    """Connes-Kreimer coproduct: 1 (x) t + sum over admissible cuts, trunk (x)
    pruning (the empty cut giving t (x) 1); multiplicative on forests."""
    return iterated_coproduct(x, 2)


def iterated_coproduct(x, k: int) -> TensorPoly:
    """delta^[k] by left iteration (k = 1 is the identity)."""
    poly = _as_forest_poly(x)
    return TensorPoly(k, iterate_coproduct(_delta_forest, poly.terms, k))


def reduced_iterated_coproduct(x, k: int) -> TensorPoly:
    """(Id - unit counit)^(x)k of delta^[k]: drop terms with an empty slot."""
    return TensorPoly(k, project(iterated_coproduct(x, k).terms, "reduced"))


def irr_iterated_coproduct(x, k: int) -> TensorPoly:
    """delta_irr^[k]: project every slot onto single-tree monomials."""
    return TensorPoly(k, project(iterated_coproduct(x, k).terms, "irr"))


# ---------------------------------------------------------------------------
# pairing

def pairing(a, b):
    """<s|t> = sigma(B+(t)) when the forests are isomorphic, else 0; bilinear,
    so an int on integer combinations."""
    return pair(_as_forest_poly(a).terms, _as_forest_poly(b).terms,
                lambda f: sigma(b_plus(f)))


def tensor_pairing(a: TensorPoly, b: TensorPoly):
    """Slotwise product extension of the pairing to equal-arity tensors."""
    if a.arity != b.arity:
        raise ValueError("tensor arities differ")
    return pair(a.terms, b.terms,
                lambda slots: prod(sigma(b_plus(f)) for f in slots))


# ---------------------------------------------------------------------------
# series operators

def prelie_exp(a: TreeSeries, order: int) -> TreeSeries:
    """exp under graft: sum_{n>=1} (1/n!) r^(n)_a(a), r^(n) = r^(n-1) <| a."""
    out = TreeSeries({}, order)
    r = a.truncated(order)
    n = 1
    while r and n <= order:
        out = out + r.scaled(Fraction(1, factorial(n)))
        r = prelie(r, a, order)
        n += 1
    return out


def cm_coefficient(t: RootedTree) -> Fraction:
    """Connes-Moscovici coefficient |t|!/(sigma(t) t!)."""
    return Fraction(factorial(t.size), sigma(t) * tree_factorial(t))


def magnus_closed_form(order: int) -> TreeSeries:
    """Omega(generator) = sum over trees of (omega(t)/sigma(t)) t, by grade."""
    acc: dict = {}
    for n in range(1, order + 1):
        for t in enumerate_trees(n):
            c = murua_omega(t) / sigma(t)
            if c:
                acc[t] = c
    return TreeSeries(acc, order)


def magnus_fixed_point(a: TreeSeries, order: int) -> TreeSeries:
    """Grade-by-grade solution of Omega = sum_{n>=0} (B_n/n!) r^(n+1)_Omega(a).

    The n = 0 term is a itself, the n = 1 term is B_1 (a <| Omega), and so on;
    each pass through the loop fixes one more grade, so `order` passes settle
    every grade up to the truncation.
    """
    omega = TreeSeries({}, order)
    for _ in range(order):
        acc = TreeSeries({}, order)
        r = a.truncated(order)  # r^(1)
        n = 0
        while r and n <= order:
            b = bernoulli(n)
            if b:
                acc = acc + r.scaled(b / factorial(n))
            r = prelie(r, omega, order)
            n += 1
        omega = acc
    return omega


@cache
def _sol1_monomial(f: Forest) -> ForestPoly:
    """sol1 of one monomial, summed over compositions of its multiplicities.

    Ordered set partitions of the positions whose blocks hold the same
    multisets of trees give the same GL product, and there are
    prod_j m_j! / prod_(i,j) c_ij! of them for blocks c_1..c_k of the tree
    multiplicities m.  The walk picks the blocks depth first, so a prefix
    product B1 * ... * Bi is formed once and shared by every composition
    that starts with it.
    """
    # f.trees is sorted by key, so equal trees form runs
    runs = [tuple(g) for _, g in groupby(f.trees, key=lambda t: t.key)]
    acc: dict = {}

    def walk(prefix, rem, k, weight):
        if not any(rem):
            c = Fraction((-1) ** (k - 1) * weight, k)
            for g, d in prefix.terms.items():
                acc[g] = acc.get(g, 0) + c * d
            return
        for block in product(*(range(r + 1) for r in rem)):
            if not any(block):
                continue
            mono = ForestPoly({Forest(tuple(chain.from_iterable(
                run[:c] for run, c in zip(runs, block)))): 1})
            walk(mono if prefix is None else gl_product(prefix, mono),
                 tuple(r - c for r, c in zip(rem, block)), k + 1,
                 weight * prod(comb(r, c) for r, c in zip(rem, block)))

    if runs:  # sol1(1) = 0
        walk(None, tuple(len(run) for run in runs), 0, 1)
    return ForestPoly(acc)


def sol1(x: ForestPoly) -> ForestPoly:
    """Alternating ordered-partition sum of Grossman-Larson products.

    sol1(b1...bn) = sum_{k=1..n} ((-1)^(k-1)/k) sum over ordered partitions
    (I1,..,Ik) of [n] of b_{I1} * ... * b_{Ik}; linear in x; sol1(1) = 0.
    """
    acc = ForestPoly({}, x.order)
    for f, c in x.terms.items():
        acc = acc + _sol1_monomial(f).truncated(x.order).scaled(c)
    return acc


def poly_exp(a: TreeSeries, order: int) -> ForestPoly:
    """Polynomial (juxtaposition) exponential sum_n a^n / n!, by total grade."""
    p = _as_forest_poly(a).truncated(order)
    if any(f.size == 0 for f in p.terms):
        raise ValueError("poly_exp needs grade >= 1 terms only")
    out = ForestPoly({EMPTY_FOREST: 1}, order)
    term = ForestPoly({EMPTY_FOREST: 1}, order)
    for n in range(1, order + 1):
        term = poly_mul(term, p, order).scaled(Fraction(1, n))
        if not term:
            break
        out = out + term
    return out
