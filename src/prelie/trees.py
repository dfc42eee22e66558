"""Non-planar rooted trees, forests, and their scalar statistics.

Canonical form: a tree is encoded as a nested bracket string, children sorted
by their own encodings ("[]" is the single vertex, "[[]]" the 2-chain,
"[[][]]" the cherry).  Trees are interned: there is one object per canonical
form, i.e. per isomorphism class of rooted posets, so equality is identity
and hashing is the object's own.  A forest is a multiset of trees, interned
the same way; its key is the juxtaposition of the sorted member keys (empty
string for the empty forest), and it iterates over its trees.  Enumeration
builds each tree of size n as a root over a multiset of smaller trees, with
no forest in between; only enumerate_forests interns those multisets as
forests.

Poset orientation: the root is MINIMAL.  A k-linearization is a surjective
strictly order preserving map onto {1..k} (smaller labels closer to the root);
the weak version drops surjectivity.  All linearization counts are counts of
maps on a concrete vertex set, not of maps up to isomorphism.

Statistics: sigma(t) is the automorphism count, tree_factorial the usual
t! = |t| * (branch factorials), so that t has |t|!/t! linear extensions, and
murua_omega the alternating sum over k of k-linearization counts a_k.  The
a_k are the coefficients of the order polynomial W_t(x), the number of
strictly order preserving maps from t into {1..x}, in the binomial basis:
W_t(x) = sum_k a_k C(x, k) (Stanley, EC1 3.12).  count_k_linearizations
builds them from the branches' coefficients by a binomial-basis product and
an index shift for the root.  As d/dx C(x, k) at 0 is (-1)^(k-1)/k, omega is
W_t'(0); murua_omega reads it from the values W_t(1..|t|), the weak
linearization counts, with one weight vector per order (Lagrange at the
nodes 0..|t|), never forming the a_k.  It keeps no memo of its own: the
weights and the values are cached, and it takes one dot product of them.
murua_omega_recursive recomputes omega through the Bernoulli-weighted sum
over root-containing vertex selections of B-(t), walking the parent and
children arrays of its LabeledForest: the factorial s! of a selection is the
product, over its vertices, of the number of selected vertices at or below
each, so no induced shape is built, and only the cut-above components are
built as trees.  It reads neither the weak counts nor the a_k.  The two
routes must agree on every tree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import accumulate, combinations
from math import comb, factorial, lcm, prod
from operator import attrgetter, mul

from .exactnum import bernoulli

__all__ = [
    "RootedTree", "Forest", "LEAF",
    "tree_from_string", "forest_from_string",
    "enumerate_trees", "enumerate_forests", "tree_rank", "tree_by_rank",
    "b_plus", "b_minus",
    "sigma", "tree_factorial", "forest_factorial",
    "count_k_linearizations", "count_weak_k_linearizations",
    "murua_omega", "murua_omega_forest", "murua_omega_recursive",
    "LabeledForest",
]


_key = attrgetter("key")  # the canonical sort key of trees and forests


class RootedTree:
    """An unlabeled rooted tree with multiset children, one shared object per
    canonical form: equality is identity and the hash is the object's."""

    __slots__ = ("children", "size", "key")
    # the interned trees, keyed by their sorted (already interned) children
    _table: dict = {}

    def __new__(cls, children=()):
        kids = tuple(sorted(children, key=_key))
        t = cls._table.get(kids)
        if t is None:
            t = object.__new__(cls)
            t.children = kids
            t.size = 1 + sum(c.size for c in kids)
            t.key = "[" + "".join(c.key for c in kids) + "]"
            t = cls._table.setdefault(kids, t)  # one winner if two threads race
        return t

    def __reduce__(self):
        # copy and pickle rebuild through __new__, so they hand back the
        # interned object instead of overwriting one
        return (RootedTree, (self.children,))

    def __repr__(self):
        return "RootedTree(%r)" % (self.key,)

    def __str__(self):
        return self.key


LEAF = RootedTree()


class Forest:
    """A multiset of rooted trees (the empty forest is the unit monomial),
    interned like RootedTree."""

    __slots__ = ("trees", "size", "key")
    # the interned forests, keyed by their sorted (interned) trees
    _table: dict = {}

    def __new__(cls, trees=()):
        ts = tuple(sorted(trees, key=_key))
        f = cls._table.get(ts)
        if f is None:
            f = object.__new__(cls)
            f.trees = ts
            f.size = sum(t.size for t in ts)
            f.key = "".join(t.key for t in ts)
            f = cls._table.setdefault(ts, f)
        return f

    def __reduce__(self):
        return (Forest, (self.trees,))

    def __len__(self):
        return len(self.trees)

    def __iter__(self):
        return iter(self.trees)

    def __repr__(self):
        return "Forest(%r)" % (self.key,)

    def __str__(self):
        return self.key


EMPTY_FOREST = Forest()


def _parse_trees(s: str) -> list:
    """The trees of juxtaposed bracket strings, in one left-to-right pass;
    ``stack`` holds the children found so far of each open bracket."""
    stack: list = [[]]
    for pos, ch in enumerate(s):
        if ch == "[":
            stack.append([])
        elif ch == "]" and len(stack) > 1:
            kids = stack.pop()
            stack[-1].append(RootedTree(kids))
        else:
            raise ValueError("bad bracket string at position %d: %r" % (pos, s))
    if len(stack) > 1:
        raise ValueError("unbalanced brackets: %r" % (s,))
    return stack[0]


def tree_from_string(s: str) -> RootedTree:
    """Parse a canonical (or any) bracket string into a tree."""
    trees = _parse_trees(s)
    if len(trees) != 1:
        raise ValueError("expected exactly one tree, got %d in %r" % (len(trees), s))
    return trees[0]


def forest_from_string(s: str) -> Forest:
    """Parse juxtaposed bracket strings into a forest ("" is the empty forest)."""
    return Forest(_parse_trees(s))


def b_plus(f: Forest) -> RootedTree:
    """Add a common root below the forest."""
    return RootedTree(f.trees)


def b_minus(t: RootedTree) -> Forest:
    """Remove the root, leaving the forest of branches."""
    return Forest(t.children)


def enumerate_trees(n: int):
    """All rooted trees with n vertices, ascending canonical key; stable order."""
    if n < 1:
        raise ValueError("enumerate_trees needs n >= 1, got %r" % (n,))
    return list(_trees(n))


@cache
def _trees(n: int) -> tuple:
    # a root over each multiset of n - 1 vertices: no Forest per tree
    return tuple(sorted(map(RootedTree, _multisets(n - 1)), key=_key))


def enumerate_forests(n: int):
    """All forests with n total vertices, ascending canonical key."""
    if n < 0:
        raise ValueError("enumerate_forests needs n >= 0, got %r" % (n,))
    return list(_forests(n))


@cache
def _forests(n: int) -> tuple:
    return tuple(sorted(map(Forest, _multisets(n)), key=_key))


def _multisets(n: int):
    """Every multiset of trees with n vertices in all, each once, as a tuple
    of trees from _trees(1..n) that ascends by size and then by key."""
    pool = [t for s in range(1, n + 1) for t in _trees(s)]

    def pick(total, start):
        if total == 0:
            yield ()
            return
        for i in range(start, len(pool)):
            t = pool[i]
            if t.size > total:
                break  # pool ascends by size: no later tree fits either
            for rest in pick(total - t.size, i):
                yield (t,) + rest

    return pick(n, 0)


def tree_rank(t: RootedTree) -> int:
    """Ordinal of t within enumerate_trees(t.size); (size, rank) is stable."""
    return _ranks(t.size)[t]


@cache
def _ranks(size: int) -> dict:
    return {u: i for i, u in enumerate(_trees(size))}


def tree_by_rank(size: int, rank: int) -> RootedTree:
    ts = _trees(size) if size >= 1 else ()
    if not 0 <= rank < len(ts):
        raise ValueError("no tree with size %d and ordinal %d" % (size, rank))
    return ts[rank]


# a dict, not a cache: perfbench's recursion test clears it to count sigma's
# re-entrant calls
_SIGMA: dict[RootedTree, int] = {}


def sigma(t: RootedTree) -> int:
    """|Aut(t)|: product over distinct branches of m! * sigma(branch)^m."""
    out = _SIGMA.get(t)
    if out is None:
        out = 1
        mult: dict[RootedTree, int] = {}
        for c in t.children:
            mult[c] = mult.get(c, 0) + 1
        for c, m in mult.items():
            out *= factorial(m) * sigma(c) ** m
        _SIGMA[t] = out
    return out


def tree_factorial(t: RootedTree) -> int:
    """t! = |t| * product of branch factorials."""
    return _tree_factorial(t)


@cache
def _tree_factorial(t: RootedTree) -> int:
    return t.size * prod(_tree_factorial(c) for c in t.children)


def forest_factorial(f: Forest) -> int:
    out = 1
    for t in f.trees:
        out *= tree_factorial(t)
    return out


def _as_forest(p) -> Forest:
    if isinstance(p, RootedTree):
        return Forest((p,))
    if isinstance(p, Forest):
        return p
    raise TypeError("expected RootedTree or Forest, got %r" % (type(p),))


def count_k_linearizations(p, k: int) -> int:
    """Count surjective strictly order preserving maps from p onto {1..k}.

    Reads a_k off the order polynomial W_p(x) = sum_k a_k C(x, k), which
    counts the maps from p into {1..x}: the product of the polynomials of
    p's trees (see _surjections).  a_k is 0 past the grade of p.
    """
    if k < 1:
        raise ValueError("count_k_linearizations needs k >= 1, got %r" % (k,))
    a = _forest_surjections(_as_forest(p).trees)
    return a[k] if k < len(a) else 0


def _binomial_product(p: tuple, q: tuple) -> tuple:
    """Binomial-basis coefficients of a product of two polynomials given in
    that basis: C(x,i) C(x,j) = sum_k C(k,i) C(i,k-j) C(x,k)."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            if a and b:
                for k in range(max(i, j), i + j + 1):
                    out[k] += a * b * comb(k, i) * comb(i, k - j)
    return tuple(out)


def _forest_surjections(trees) -> tuple:
    """(a_0, ..., a_n) of a forest of grade n: its trees' polynomials multiply."""
    return reduce(_binomial_product, map(_surjections, trees), (1,))


@cache
def _surjections(t: RootedTree) -> tuple:
    """(a_0, ..., a_|t|), a_k the number of surjective k-linearizations of t.

    The root takes a value y <= x and its branches map into the x - y values
    above it, so W_t(x) = sum_{z<x} prod_branches W_c(z); as
    sum_{z<x} C(z,k) = C(x,k+1), the root shifts every coefficient up by one.
    """
    return (0,) + _forest_surjections(t.children)


def count_weak_k_linearizations(p, k: int) -> int:
    """Count strictly order preserving maps from p into {1..k} (not nec. onto).

    Independent of count_k_linearizations: the values W(t, 0..k) of a tree
    come by prefix sums, W(t, x) = W(t, x - 1) + prod_branches W(branch, x - 1)
    (either the root takes the value 1 and its branches map into the x - 1
    values above it, or the map is one into {1..x-1} shifted up by one), and
    the count is multiplicative over forest components.  The binomial
    identity tying the two counts is a test.
    """
    if k < 0:
        raise ValueError("count_weak_k_linearizations needs k >= 0, got %r" % (k,))
    out = 1
    for t in _as_forest(p).trees:
        out *= _weak_values(t, k)[k]
    return out


@cache
def _weak_values(t: RootedTree, m: int) -> tuple:
    """(W(t, 0), ..., W(t, m)), W(t, x) the number of strictly order
    preserving maps from t into {1..x}; W(t, 0) = 0."""
    if m == 0:
        return (0,)
    terms = [1] * m  # prod_branches W(branch, x) for x < m
    for c in t.children:
        terms = map(mul, terms, _weak_values(c, m - 1))
    return tuple(accumulate(terms, initial=0))


@cache
def _omega_weights(n: int) -> tuple:
    """(L, (w_1, ..., w_n)) with L = lcm(1..n) and
    w_j = (-1)^(j+1) C(n, j) L / j: p'(0) = sum_j w_j p(j) / L for every
    polynomial p of degree <= n with p(0) = 0 (Lagrange at the nodes 0..n)."""
    L = lcm(*range(1, n + 1))
    return L, tuple((-1) ** (j + 1) * comb(n, j) * (L // j)
                    for j in range(1, n + 1))


def murua_omega(t: RootedTree) -> Fraction:
    """omega(t) = sum_{k=1..|t|} ((-1)^(k-1)/k) * |k-lin(t)| = W_t'(0)."""
    # the order polynomial has degree |t| and W_t(0) = 0, so its values at
    # 1..|t| fix the derivative; one Fraction is normalised
    L, weights = _omega_weights(t.size)
    values = _weak_values(t, t.size)
    return Fraction(sum(map(mul, weights, values[1:])), L)


def murua_omega_forest(f: Forest) -> Fraction:
    out = Fraction(1)
    for t in f.trees:
        out *= murua_omega(t)
    return out


class LabeledForest:
    """A concrete-vertex view of a forest: parent and children arrays with
    ids in preorder, so every parent id is smaller than its children's.

    Vertex ids are assigned by a depth-first walk of the canonical form
    (component trees in key order, children in key order), so ids are a stable
    function of the forest.
    """

    __slots__ = ("n", "parent", "children", "roots")

    def __init__(self, forest: Forest):
        parent: list = []
        children: list = []
        roots: list = []

        def walk(t: RootedTree, par):
            v = len(parent)
            parent.append(par)
            children.append([])
            if par is None:
                roots.append(v)
            else:
                children[par].append(v)
            for c in t.children:
                walk(c, v)

        for t in forest.trees:
            walk(t, None)
        self.n = len(parent)
        self.parent = tuple(parent)
        self.children = tuple(tuple(cs) for cs in children)
        self.roots = tuple(roots)


def murua_omega_recursive(t: RootedTree) -> Fraction:
    """omega via the Bernoulli recursion over root-containing selections.

    omega(t) = sum over selections s of B-(t) containing all its roots of
    (B_|s| / s!) * omega(cut-above-s forest), omega multiplicative over
    components.  s! is the forest factorial of the selection's induced shape:
    the product over selected v of the number of selected vertices at or
    below v.  The cut-above components are the selected vertices, each with
    its unselected descendants.
    """
    return _omega_rec(t)


@cache
def _omega_rec(t: RootedTree) -> Fraction:
    if t.size == 1:
        return Fraction(1)
    lf = LabeledForest(b_minus(t))
    n, parent, children, roots = lf.n, lf.parent, lf.children, lf.roots
    others = [v for v in range(n) if parent[v] is not None]
    out = Fraction(0)
    for extra in range(len(others) + 1):
        b = bernoulli(len(roots) + extra)
        if b == 0:
            continue
        for picked in combinations(others, extra):
            chosen = roots + picked
            sel = [False] * n
            for v in chosen:
                sel[v] = True
            below = [0] * n  # selected vertices at or below v
            shape = [None] * n  # v with its unselected descendants
            fac = 1
            for v in range(n - 1, -1, -1):  # children before parents
                shape[v] = RootedTree([shape[c] for c in children[v]
                                       if not sel[c]])
                if sel[v]:
                    below[v] += 1
                    fac *= below[v]
                if parent[v] is not None:
                    below[parent[v]] += below[v]
            term = b / fac
            for v in chosen:
                term *= _omega_rec(shape[v])
                if term == 0:
                    break
            out += term
    return out
