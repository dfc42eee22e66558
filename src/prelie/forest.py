"""Forest formulas for iterated coproducts over a graded basis.

Any connected graded coalgebra whose reduced coproduct has known structure
constants delta_bar(b_i) = sum lambda^{i;i0}_I b_{i0} (x) b_I can have its
iterated coproducts assembled combinatorially: sum over decorated trees T
associated to b_i and over (weak/surjective/bijective) order-preserving maps
f from the vertices of T onto slots 1..k of lambda(T) times the slotwise
products of fiber decorations.  The coefficient lambda(T) carries a per-vertex
symmetry factor sym over the child forest; dropping it breaks the formula as
soon as a vertex has two distinct child trees rooted at the same basis index.

Two providers are included: the Connes-Kreimer basis (rooted trees, structure
constants by admissible-cut enumeration) and the word basis (odd
factorizations).  Basis indices are (grade, ordinal) pairs tied to the
deterministic enumerations of the trees/words modules.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

from . import freeprelie
from .lincomb import TermMap
from .trees import Forest, enumerate_trees, tree_by_rank, tree_from_string, tree_rank
from .words import WordTensor, monomial, word_dual_coproduct

__all__ = [
    "BasisProvider", "CKBasis", "WordBasis",
    "DecoratedTree", "leaf", "sym", "lambda_coeff",
    "enumerate_decorated_trees", "forest_formula", "decorated_string",
]


class BasisProvider(ABC):
    """Graded basis with reduced-coproduct structure constants.

    Indices are (grade, ordinal) pairs.  delta_bar(i) lists the terms of the
    reduced coproduct of b_i as (i0, I, coefficient) with I a sorted tuple of
    indices; every term satisfies grade(i0) + sum of grades over I = grade(i).
    """

    def __init__(self):
        self._delta_cache: dict = {}
        self._enum_cache: dict = {}

    def grade(self, i) -> int:
        self.validate(i)
        return i[0]

    @abstractmethod
    def validate(self, i) -> None:
        """Raise ValueError when i is not an index of this basis."""

    @abstractmethod
    def _delta_bar_terms(self, i) -> tuple:
        ...

    def delta_bar(self, i) -> tuple:
        out = self._delta_cache.get(i)
        if out is None:
            self.validate(i)
            out = self._delta_bar_terms(i)
            self._delta_cache[i] = out
        return out

    @abstractmethod
    def label(self, i) -> str:
        ...

    @abstractmethod
    def parse(self, text: str):
        ...

    @abstractmethod
    def slot_tensor(self, terms: dict, arity: int):
        """Wrap a {slot-index-tuples: coeff} map in this basis's native tensor."""


class CKBasis(BasisProvider):
    """Rooted-tree basis with the Connes-Kreimer reduced coproduct."""

    def validate(self, i) -> None:
        if (not isinstance(i, tuple) or len(i) != 2
                or i[0] < 1 or not 0 <= i[1] < len(enumerate_trees(i[0]))):
            raise ValueError("not a tree index: %r" % (i,))

    def tree(self, i):
        self.validate(i)
        return tree_by_rank(i[0], i[1])

    def index_of(self, t) -> tuple:
        return (t.size, tree_rank(t))

    def _delta_bar_terms(self, i) -> tuple:
        t = self.tree(i)
        out = []
        for trunk, pruning, count in freeprelie._cut_terms(t):
            if len(pruning.trees) == 0:
                continue  # empty cut: the t (x) 1 corner is not in delta_bar
            I = tuple(sorted(self.index_of(p) for p in pruning.trees))
            out.append((self.index_of(trunk), I, Fraction(count)))
        return tuple(out)

    def label(self, i) -> str:
        return self.tree(i).key

    def parse(self, text: str):
        return self.index_of(tree_from_string(text))

    def slot_tensor(self, terms: dict, arity: int):
        native = {
            tuple(Forest(tuple(self.tree(j) for j in slot)) for slot in slots): c
            for slots, c in terms.items()
        }
        return freeprelie.TensorPoly(arity, native)


class WordBasis(BasisProvider):
    """Words over a finite ordered alphabet with the odd-factorization
    reduced coproduct."""

    def __init__(self, alphabet):
        super().__init__()
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise ValueError("alphabet must be nonempty without repeats")
        if ":" in self.alphabet:
            # a ":" in an index marks a grade:ordinal pair, never a word
            raise ValueError("alphabet %r holds ':', which marks a "
                             "grade:ordinal index" % "".join(self.alphabet))
        self._pos = {a: p for p, a in enumerate(self.alphabet)}

    def validate(self, i) -> None:
        if (not isinstance(i, tuple) or len(i) != 2
                or i[0] < 1 or not 0 <= i[1] < len(self.alphabet) ** i[0]):
            raise ValueError("not a word index: %r" % (i,))

    def word(self, i) -> str:
        self.validate(i)
        n, rank = i
        base = len(self.alphabet)
        letters = []
        for _ in range(n):
            rank, r = divmod(rank, base)
            letters.append(self.alphabet[r])
        return "".join(reversed(letters))

    def index_of(self, w: str) -> tuple:
        rank = 0
        for a in w:
            if a not in self._pos:
                raise ValueError("letter %r not in alphabet" % a)
            rank = rank * len(self.alphabet) + self._pos[a]
        return (len(w), rank)

    def _delta_bar_terms(self, i) -> tuple:
        w = self.word(i)
        out = []
        for (left, right), c in word_dual_coproduct(w).terms.items():
            I = tuple(sorted(self.index_of(u) for u in right))
            out.append((self.index_of(left[0]), I, c))
        return tuple(out)

    def label(self, i) -> str:
        return self.word(i)

    def parse(self, text: str):
        return self.index_of(text)

    def slot_tensor(self, terms: dict, arity: int):
        native = {
            tuple(monomial(self.word(j) for j in slot) for slot in slots): c
            for slots, c in terms.items()
        }
        return WordTensor(arity, native)


class DecoratedTree:
    """Rooted tree whose internal vertices carry index pairs (d1;d2) and
    whose leaves carry a single index (d1 = d2).  d1 is the basis element the
    subtree is associated to, d2 the residue left in the vertex's own slot."""

    __slots__ = ("d1", "d2", "children", "key", "size")

    def __init__(self, d1, d2, children=()):
        children = tuple(sorted(children, key=lambda c: c.key))
        if not children and d1 != d2:
            raise ValueError("a leaf carries a single index")
        self.d1 = d1
        self.d2 = d2
        self.children = children
        self.key = (d1, d2, tuple(c.key for c in children))
        self.size = 1 + sum(c.size for c in children)

    def __eq__(self, other):
        return isinstance(other, DecoratedTree) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "DecoratedTree(%r, %r, %r)" % (self.d1, self.d2, self.children)


def leaf(d) -> DecoratedTree:
    return DecoratedTree(d, d)


def _multinomial(counts) -> int:
    out = factorial(sum(counts))
    for c in counts:
        out //= factorial(c)
    return out


def sym(children) -> int:
    """Symmetry coefficient of a decorated forest: group the trees by the
    basis index their roots are associated to; each class contributes the
    multinomial of the multiplicities of its distinct trees."""
    classes: dict = {}
    for c in children:
        classes.setdefault(c.d1, Counter())[c.key] += 1
    out = 1
    for counter in classes.values():
        out *= _multinomial(tuple(counter.values()))
    return out


def lambda_coeff(T: DecoratedTree, basis: BasisProvider) -> Fraction:
    """The coefficient lambda(T): per-vertex structure constants times
    symmetry factors of child forests, 1 on leaves."""
    basis.validate(T.d1)
    if not T.children:
        return Fraction(1)
    I = tuple(sorted(c.d1 for c in T.children))
    const = Fraction(0)
    for i0, terms_I, c in basis.delta_bar(T.d1):
        if i0 == T.d2 and terms_I == I:
            const = c
            break
    if not const:
        return Fraction(0)
    out = const * sym(T.children)
    for c in T.children:
        out *= lambda_coeff(c, basis)
    return out


def enumerate_decorated_trees(i, basis: BasisProvider) -> tuple:
    """All decorated trees associated to b_i with nonzero lambda, as
    (tree, lambda) pairs, the bare leaf first.  Finite because every vertex
    consumes at least one unit of grade.  Cached per basis instance."""
    out = basis._enum_cache.get(i)
    if out is not None:
        return out
    basis.validate(i)
    result = [(leaf(i), Fraction(1))]
    for i0, I, const in basis.delta_bar(i):
        mult = Counter(I)
        pools = []
        for j, m in sorted(mult.items()):
            pools.append(list(combinations_with_replacement(
                enumerate_decorated_trees(j, basis), m)))
        for combo in product(*pools):
            children = []
            lam = const
            for picks in combo:
                for sub, sub_lam in picks:
                    children.append(sub)
                    lam *= sub_lam
            lam *= sym(children)
            if lam:
                result.append((DecoratedTree(i, i0, children), lam))
    out = tuple(result)
    basis._enum_cache[i] = out
    return out


def _slot_maps(T: DecoratedTree, k: int, flavor: str):
    """Strictly order-preserving maps from T's vertices to 1..k, yielded as
    slot contents (tuple of sorted index tuples built from d2 decorations).
    reduced: surjective; irr: bijective; full: unconstrained."""
    verts = []

    def walk(v, parent_pos):
        pos = len(verts)
        verts.append((v.d2, parent_pos))
        for c in v.children:
            walk(c, pos)

    walk(T, -1)
    n = len(verts)
    if flavor == "irr" and n != k:
        return
    vals = [0] * n

    def assign(pos):
        if pos == n:
            if flavor == "reduced" and len(set(vals)) != k:
                return
            if flavor == "irr" and len(set(vals)) != n:
                return
            slots_acc: list = [[] for _ in range(k)]
            for p in range(n):
                slots_acc[vals[p] - 1].append(verts[p][0])
            yield tuple(tuple(sorted(s)) for s in slots_acc)
            return
        parent = verts[pos][1]
        lo = 1 if parent < 0 else vals[parent] + 1
        for v in range(lo, k + 1):
            vals[pos] = v
            yield from assign(pos + 1)

    yield from assign(0)


def forest_formula(i, k: int, flavor: str, basis: BasisProvider) -> dict:
    """sum over decorated trees T in T_i and maps f of lambda(T) C(f).

    Returns {slot-tuples: coefficient} with each slot a sorted tuple of basis
    indices (empty tuple = unit, full flavor only).  flavor: reduced (the
    iterated reduced coproduct), full (the iterated coproduct), irr (the
    irreducible part, bijective maps).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if flavor not in ("reduced", "full", "irr"):
        raise ValueError("flavor must be reduced, full or irr")
    return TermMap((slots, lam)
                   for T, lam in enumerate_decorated_trees(i, basis)
                   for slots in _slot_maps(T, k, flavor)).terms


def decorated_string(T: DecoratedTree, basis: BasisProvider) -> str:
    """Bracket rendering with (d1;d2) annotations, single labels on leaves."""
    if not T.children:
        return "(%s)" % basis.label(T.d1)
    inner = "".join(decorated_string(c, basis) for c in T.children)
    return "(%s;%s)[%s]" % (basis.label(T.d1), basis.label(T.d2), inner)
