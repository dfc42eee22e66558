"""Non-planar rooted trees, forests, and their scalar statistics.

Canonical form: a tree is encoded as a nested bracket string, children sorted
by their own encodings ("[]" is the single vertex, "[[]]" the 2-chain,
"[[][]]" the cherry).  Two trees are equal iff their keys are equal iff they
are isomorphic as rooted posets.  A forest is a multiset of trees; its key is
the juxtaposition of the sorted member keys (empty string for the empty
forest).

Poset orientation: the root is MINIMAL.  A k-linearization is a surjective
strictly order preserving map onto {1..k} (smaller labels closer to the root);
the weak version drops surjectivity.  All linearization counts are counts of
maps on a concrete vertex set, not of maps up to isomorphism.

Statistics: sigma(t) is the automorphism count, tree_factorial the usual
t! = |t| * (branch factorials), num_linearizations m(t) = |t|!/t!, and
murua_omega the alternating sum over k of k-linearization counts a_k.  The
a_k come from one order polynomial per tree: W_t(x), the number of strictly
order preserving maps from t into {1..x}, is sum_k a_k C(x, k) (Stanley, EC1
3.12), built from the branches' coefficients by a binomial-basis product and
an index shift for the root.  murua_omega_recursive recomputes omega through
the Bernoulli-weighted sum over root-containing vertex selections of B-(t);
the two must agree on every tree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from math import comb, factorial, lcm, prod

from .exactnum import bernoulli

__all__ = [
    "RootedTree", "Forest", "LEAF",
    "tree_from_string", "forest_from_string",
    "enumerate_trees", "enumerate_forests", "tree_rank", "tree_by_rank",
    "b_plus", "b_minus",
    "sigma", "tree_factorial", "forest_factorial", "num_linearizations",
    "count_k_linearizations", "count_weak_k_linearizations",
    "murua_omega", "murua_omega_forest", "murua_omega_recursive",
    "LabeledForest", "labeled", "root_subforests", "induced_subforest",
    "cut_above",
]


class RootedTree:
    """An unlabeled rooted tree with multiset children, canonical and hashable."""

    __slots__ = ("children", "size", "key")

    def __init__(self, children=()):
        kids = tuple(sorted(children, key=lambda c: c.key))
        self.children = kids
        self.size = 1 + sum(c.size for c in kids)
        self.key = "[" + "".join(c.key for c in kids) + "]"

    def __eq__(self, other):
        return isinstance(other, RootedTree) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "RootedTree(%r)" % (self.key,)

    def __str__(self):
        return self.key


LEAF = RootedTree()


class Forest:
    """A multiset of rooted trees (the empty forest is the unit monomial)."""

    __slots__ = ("trees", "size", "key")

    def __init__(self, trees=()):
        ts = tuple(sorted(trees, key=lambda t: t.key))
        self.trees = ts
        self.size = sum(t.size for t in ts)
        self.key = "".join(t.key for t in ts)

    def __eq__(self, other):
        return isinstance(other, Forest) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __len__(self):
        return len(self.trees)

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
    return tuple(sorted((b_plus(f) for f in _forests(n - 1)), key=lambda t: t.key))


def enumerate_forests(n: int):
    """All forests with n total vertices, ascending canonical key."""
    if n < 0:
        raise ValueError("enumerate_forests needs n >= 0, got %r" % (n,))
    return list(_forests(n))


@cache
def _forests(n: int) -> tuple:
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

    return tuple(sorted((Forest(ts) for ts in pick(n, 0)), key=lambda f: f.key))


def tree_rank(t: RootedTree) -> int:
    """Ordinal of t within enumerate_trees(t.size); (size, rank) is stable."""
    return _ranks(t.size)[t.key]


@cache
def _ranks(size: int) -> dict:
    return {u.key: i for i, u in enumerate(enumerate_trees(size))}


def tree_by_rank(size: int, rank: int) -> RootedTree:
    ts = enumerate_trees(size)
    if not 0 <= rank < len(ts):
        raise ValueError("no tree with size %d and ordinal %d" % (size, rank))
    return ts[rank]


# a dict, not a cache: perfbench's recursion test clears it to count sigma's
# re-entrant calls
_SIGMA: dict[str, int] = {}


def sigma(t: RootedTree) -> int:
    """|Aut(t)|: product over distinct branches of m! * sigma(branch)^m."""
    out = _SIGMA.get(t.key)
    if out is None:
        out = 1
        mult: dict[str, int] = {}
        for c in t.children:
            mult[c.key] = mult.get(c.key, 0) + 1
        seen: dict[str, RootedTree] = {c.key: c for c in t.children}
        for key, m in mult.items():
            out *= factorial(m) * sigma(seen[key]) ** m
        _SIGMA[t.key] = out
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


def num_linearizations(t: RootedTree) -> int:
    """m(t) = |t|!/t!, the number of linear extensions of the tree poset."""
    top, fac = factorial(t.size), tree_factorial(t)
    assert top % fac == 0
    return top // fac


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

    Independent of count_k_linearizations: a direct tree recursion
    W(t, k) = sum_{j=1..k} prod_branches W(branch, k - j), multiplicative over
    forest components.  The binomial identity tying the two counts is a test.
    """
    if k < 0:
        raise ValueError("count_weak_k_linearizations needs k >= 0, got %r" % (k,))
    out = 1
    for t in _as_forest(p).trees:
        out *= _weak_tree(t, k)
    return out


@cache
def _weak_tree(t: RootedTree, k: int) -> int:
    if k <= 0:
        return 0
    out = 0
    for j in range(1, k + 1):
        term = 1
        for c in t.children:
            term *= _weak_tree(c, k - j)
            if term == 0:
                break
        out += term
    return out


def murua_omega(t: RootedTree) -> Fraction:
    """omega(t) = sum_{k=1..|t|} ((-1)^(k-1)/k) * |k-lin(t)|."""
    return _omega(t)


@cache
def _omega(t: RootedTree) -> Fraction:
    # integer terms over L = lcm(1..|t|), so one Fraction is normalised
    a, L = _surjections(t), lcm(*range(1, t.size + 1))
    return Fraction(sum((-1) ** (k - 1) * a[k] * (L // k)
                        for k in range(1, t.size + 1)), L)


def murua_omega_forest(f: Forest) -> Fraction:
    out = Fraction(1)
    for t in f.trees:
        out *= murua_omega(t)
    return out


class LabeledForest:
    """A concrete-vertex view of a forest: ids in preorder, roots first.

    Vertex ids are assigned by a depth-first walk of the canonical form
    (component trees in key order, children in key order), so ids are a stable
    function of the forest.
    """

    __slots__ = ("forest", "n", "parent", "children", "roots")

    def __init__(self, forest: Forest):
        self.forest = forest
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

    def vertices(self):
        return range(self.n)

    def _shape(self, v, kids) -> RootedTree:
        return RootedTree(self._shape(c, kids) for c in kids[v])

    def induced_subforest(self, sel) -> Forest:
        """Shape of the induced poset on sel: parent = nearest selected ancestor."""
        sel = frozenset(sel)
        kids: dict = {v: [] for v in sel}
        tops = []
        for v in sorted(sel):
            p = self.parent[v]
            while p is not None and p not in sel:
                p = self.parent[p]
            if p is None:
                tops.append(v)
            else:
                kids[p].append(v)
        return Forest(self._shape(v, kids) for v in tops)

    def cut_forest(self, sel) -> Forest:
        """Forest after deleting each edge from a selected vertex to its parent."""
        sel = frozenset(sel)
        kids = [[] for _ in range(self.n)]
        tops = []
        for v in range(self.n):
            p = self.parent[v]
            if p is None or v in sel:
                tops.append(v)
            else:
                kids[p].append(v)
        return Forest(self._shape(v, kids) for v in tops)


def labeled(f: Forest) -> LabeledForest:
    return _labeled(f)


_labeled = cache(LabeledForest)


def root_subforests(f: Forest):
    """All concrete vertex selections of f containing every root.

    Selections are frozensets of LabeledForest ids.  Every subset of the
    non-root vertices may be added: an arbitrary subset containing the root of
    a tree is again a subtree under the induced order, so these are exactly
    the root-containing subforests.  Deterministic order.
    """
    lf = labeled(f)
    base = frozenset(lf.roots)
    others = [v for v in lf.vertices() if v not in base]
    out = []
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            out.append(base | frozenset(extra))
    return out


def induced_subforest(f: Forest, sel) -> Forest:
    return labeled(f).induced_subforest(sel)


def cut_above(f: Forest, sel) -> Forest:
    """Remove the edges connecting selected vertices with their parents."""
    lf = labeled(f)
    sel = frozenset(sel)
    if not sel.issuperset(lf.roots) or not sel.issubset(lf.vertices()):
        raise ValueError("selection is not a root-containing vertex subset of %r" % (f,))
    return lf.cut_forest(sel)


def murua_omega_recursive(t: RootedTree) -> Fraction:
    """omega via the Bernoulli recursion over root-containing selections.

    omega(t) = sum over selections s of B-(t) containing all its roots of
    (B_|s| / s!) * omega(cut-above-s forest), with s! the forest factorial of
    the selection's induced shape and omega multiplicative over components.
    """
    return _omega_rec(t)


@cache
def _omega_rec(t: RootedTree) -> Fraction:
    if t.size == 1:
        return Fraction(1)
    f = b_minus(t)
    out = Fraction(0)
    for sel in root_subforests(f):
        b = bernoulli(len(sel))
        if b == 0:
            continue
        term = b / forest_factorial(induced_subforest(f, sel))
        for comp in cut_above(f, sel).trees:
            term *= _omega_rec(comp)
            if term == 0:
                break
        out += term
    return out
