"""Forest formulas for iterated coproducts over a graded basis.

Any connected graded coalgebra whose reduced coproduct has known structure
constants delta_bar(b_i) = sum lambda^{i;i0}_I b_{i0} (x) b_I can have its
iterated coproducts assembled combinatorially: sum over decorated trees T
associated to b_i and over order-preserving maps f from the vertices of T
onto slots 1..k of lambda(T) times the slotwise products of fiber
decorations; this is the iterated reduced coproduct, and the bijective maps
give its irreducible part, the part whose every slot holds one index.  The
coefficient lambda(T) carries a per-vertex symmetry factor sym over the
child forest; dropping it breaks the formula as soon as a vertex has two
distinct child trees rooted at the same basis index.

Two providers are included: the Connes-Kreimer basis (rooted trees, structure
constants read off the coproduct of freeprelie) and the word basis (odd
factorizations).  Each gives one structure hook, _coproduct(slot): the full
coproduct of the monomial of a sorted index tuple, read through its layer's
public coproduct.  delta_bar reads the reduced part of a one-index slot's.
Basis indices are (grade, ordinal) pairs tied to the deterministic
enumerations of the trees/words modules.  A basis also owns the text of the
forest dump: an index spelled as a label or as grade:ordinal, whose grade is
read off the text (index_grade, read_index), and a slot as its labels joined
by "·", "1" for the unit (slot_text).  For a check of the formula in index
space, slot_coproduct relabels _coproduct(slot) on both sides to sorted index
tuples, without going through delta_bar.  Each basis instance keeps four
plain dicts, which go with it: the decorated trees of each index
(enumerate_decorated_trees), so delta_bar is computed once per index, the
text of each slot that slot_text has rendered, and the relabelled coproduct
of each slot with the index tuple of each native monomial it met
(slot_coproduct).

The onto maps depend only on a decorated tree's shape and are enumerated
once per (shape, j) for the process; a walk flattens each tree to its shape
once.  The full iterated coproduct is the unit insertion of the sums over
maps onto 1..j, pushed along each increasing [j] -> [k].
Those sums do not depend on k, so forest_formula(i, K, basis) walks the
decorated trees of i once and returns the three flavors for every k <= K.
slot_counts(T, k, flavor) gives one decorated tree's maps counted by slot
contents, for a dump that writes each distinct row once per map.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from collections import Counter
from functools import cache
from itertools import (chain, combinations, combinations_with_replacement,
                       product)
from math import factorial
from operator import itemgetter

from . import freeprelie
from .lincomb import Tensor, project
from .trees import Forest, tree_by_rank, tree_from_string, tree_rank
from .words import WordPoly, monomial, word_coproduct_iterates

__all__ = [
    "BasisProvider", "CKBasis", "WordBasis",
    "DecoratedTree", "leaf", "sym",
    "enumerate_decorated_trees", "forest_formula", "slot_counts",
    "decorated_string",
]

# an index spelled grade:ordinal in ASCII digits; int() would also take "+1",
# " 2", "1_0" and non-ASCII digits
_GRADE_ORDINAL = re.compile(r"([0-9]+):([0-9]+)")


class BasisProvider(ABC):
    """Graded basis whose one structure hook is _coproduct(slot), the full
    coproduct of a slot's monomial.

    Indices are (grade, ordinal) pairs.  delta_bar(i) lists the terms of the
    reduced part of _coproduct((i,)), read through index_of, as
    (i0, I, coefficient) with I a sorted tuple of indices; the grades of i0
    and of the indices in I sum to the grade of i.  The forest formula reads
    delta_bar; slot_coproduct relabels _coproduct(slot) whole, for the
    direct iterates, with a relabelling of its own.
    """

    def __init__(self):
        self._enum_cache: dict = {}  # index -> its decorated trees
        self._text_cache: dict = {}  # sorted index tuple -> its dump text
        # sorted index tuple -> its full coproduct over sorted index tuples
        self._coproduct_cache: dict = {}
        self._index_cache: dict = {}  # native monomial -> sorted index tuple

    @abstractmethod
    def validate(self, i) -> None:
        """Raise ValueError when i is not an index of this basis."""

    @abstractmethod
    def index_of(self, element) -> tuple:
        """The index of a native basis element."""

    @abstractmethod
    def _coproduct(self, slot: tuple) -> Tensor:
        """The full coproduct of the native monomial of a sorted tuple of
        indices, read through its layer's public coproduct; ValueError if
        an index is not one of this basis."""

    def delta_bar(self, i) -> tuple:
        """The terms of delta_bar(b_i) as (i0, I, coefficient)."""
        index_of = self.index_of
        reduced = project(self._coproduct((i,)), "reduced")
        return tuple((index_of(trunk), tuple(sorted(map(index_of, rest))), c)
                     for ((trunk,), rest), c in reduced.terms.items())

    def label(self, i) -> str:
        """The text of b_i; ValueError if i is not an index."""
        self.validate(i)
        return self._label(i)

    @abstractmethod
    def _label(self, i) -> str:
        """The text of b_i for an index known to be valid, as the indices
        read off delta_bar are: the dump renders them unchecked."""

    @abstractmethod
    def parse(self, text: str):
        ...

    @abstractmethod
    def _label_grade(self, text: str) -> int:
        """The grade of the element a label spells, read off the text."""

    def index_grade(self, text: str) -> int:
        """The grade of an index spelled as read_index reads it, read off the
        text: reading the index may list every basis element of that grade."""
        if ":" not in text:
            return self._label_grade(text)
        m = _GRADE_ORDINAL.fullmatch(text)
        if m is None:
            raise ValueError("%r is not grade:ordinal in ASCII digits"
                             % (text,))
        return int(m[1])

    def read_index(self, text: str) -> tuple:
        """The index spelled as a label or as grade:ordinal."""
        if ":" not in text:
            return self.parse(text)
        # index_grade raises unless the text is grade:ordinal in ASCII digits
        i = (self.index_grade(text), int(text.partition(":")[2]))
        self.validate(i)
        return i

    def slot_text(self, slot: tuple) -> str:
        """A slot's labels joined by "·", or "1" for the unit slot; each
        distinct slot is rendered once per basis instance."""
        text = self._text_cache.get(slot)
        if text is None:
            text = self._text_cache[slot] = "·".join(
                map(self._label, slot)) or "1"
        return text

    def slot_coproduct(self, slot: tuple) -> dict:
        """The full coproduct of the monomial of a sorted tuple of indices,
        as {(left, right): coefficient} with both slots relabelled to sorted
        index tuples: the binary coproduct that iterate_coproduct iterates
        in index space.  Each distinct slot's _coproduct is relabelled
        once per basis instance, and each distinct native monomial once, to
        one shared tuple."""
        out = self._coproduct_cache.get(slot)
        if out is None:
            terms = self._coproduct(slot).terms
            known, index_of = self._index_cache, self.index_of
            for native in set(chain.from_iterable(terms)).difference(known):
                known[native] = tuple(sorted(map(index_of, native)))
            out = self._coproduct_cache[slot] = {
                (known[left], known[right]): c
                for (left, right), c in terms.items()}
        return out


def _is_pair(i) -> bool:
    return (isinstance(i, tuple) and len(i) == 2
            and all(type(x) is int for x in i) and i[0] >= 1)


class CKBasis(BasisProvider):
    """Rooted-tree basis with the Connes-Kreimer reduced coproduct."""

    def validate(self, i) -> None:
        self.tree(i)

    def tree(self, i):
        if _is_pair(i):
            try:
                return tree_by_rank(i[0], i[1])
            except ValueError:
                pass
        raise ValueError("not a tree index: %r" % (i,))

    def index_of(self, t) -> tuple:
        return (t.size, tree_rank(t))

    def _label(self, i) -> str:
        return tree_by_rank(i[0], i[1]).key

    def parse(self, text: str):
        return self.index_of(tree_from_string(text))

    def _label_grade(self, text: str) -> int:
        return text.count("[")

    def _coproduct(self, slot: tuple) -> Tensor:
        return freeprelie.ck_coproduct(Forest(tuple(map(self.tree, slot))))


class WordBasis(BasisProvider):
    """Words over a finite ordered alphabet with the odd-factorization
    reduced coproduct."""

    def __init__(self, alphabet):
        super().__init__()
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise ValueError("alphabet must be nonempty without repeats")
        for mark, role in ((":", "marks a grade:ordinal index"),
                           ("1", "renders the unit slot"),
                           ("·", "joins the words of a slot")):
            if mark in self.alphabet:
                raise ValueError("alphabet %r holds %r, which %s"
                                 % ("".join(self.alphabet), mark, role))
        self._pos = {a: p for p, a in enumerate(self.alphabet)}

    def validate(self, i) -> None:
        if not (_is_pair(i) and 0 <= i[1] < len(self.alphabet) ** i[0]):
            raise ValueError("not a word index: %r" % (i,))

    def _label(self, i) -> str:
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

    def parse(self, text: str):
        if not text:
            raise ValueError("the empty word is not a basis element")
        return self.index_of(text)

    def _label_grade(self, text: str) -> int:
        return len(text)

    def _coproduct(self, slot: tuple) -> Tensor:
        return word_coproduct_iterates(
            WordPoly({monomial(map(self.label, slot)): 1}), 2)[1]


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
    multinomial of the multiplicities of its distinct trees, so a class of
    one tree contributes 1 and its nested key is never hashed."""
    classes: dict = {}
    for c in children:
        classes.setdefault(c.d1, []).append(c)
    out = 1
    for trees in classes.values():
        if len(trees) > 1:
            out *= _multinomial(tuple(Counter(c.key for c in trees).values()))
    return out


def enumerate_decorated_trees(i, basis: BasisProvider) -> tuple:
    """All decorated trees associated to b_i with nonzero lambda, as
    (tree, lambda) pairs, the bare leaf first.  Finite because every vertex
    consumes at least one unit of grade.  Cached per basis instance, so
    delta_bar(i) is computed once per index.  i is validated first: a cached
    (2, 0) must not answer for (2, 0.0)."""
    basis.validate(i)
    out = basis._enum_cache.get(i)
    if out is not None:
        return out
    result = [(leaf(i), 1)]
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


def _flatten(T: DecoratedTree) -> tuple:
    """T's shape as the parent positions of its vertices in preorder (-1 at
    the root), and its (position, d2) pairs in ascending d2 order."""
    d2s, parents = [], []
    stack = [(T, -1)]
    while stack:
        v, parent = stack.pop()
        parents.append(parent)
        stack.extend((c, len(d2s)) for c in reversed(v.children))
        d2s.append(v.d2)
    return tuple(parents), sorted(enumerate(d2s), key=itemgetter(1))


@cache
def _onto_maps(parents: tuple, j: int) -> tuple:
    """Every map from a tree shape (preorder parent positions) onto 1..j,
    strictly increasing from parent to child, in lexicographic order.
    Cached per (shape, j) for the process."""
    n = len(parents)
    # height[p]: the longest chain below p, which needs that many slots above
    height = [0] * n
    for p in range(n - 1, 0, -1):
        q = parents[p]
        height[q] = max(height[q], height[p] + 1)
    # partial maps with the values they hit as a bit mask: one that misses
    # more values than it has vertices left can never be onto
    partial = [((), 0)]
    for p, q in enumerate(parents):
        top, left = j - height[p] + 1, n - 1 - p
        partial = [(vals + (v,), hit | 1 << v) for vals, hit in partial
                   for v in range(1 if q < 0 else vals[q] + 1, top)
                   if j - (hit | 1 << v).bit_count() <= left]
    return tuple(vals for vals, _ in partial)


def _onto_fills(flat: tuple, j: int):
    """The maps of _onto_maps from a flattened tree's vertices onto 1..j, as
    slot contents: per value, the sorted d2 decorations of the vertices sent
    there (the pairs come in ascending d2, so every slot comes sorted)."""
    parents, pairs = flat
    for vals in _onto_maps(parents, j):
        slots: list = [[] for _ in range(j)]
        for p, d2 in pairs:
            slots[vals[p] - 1].append(d2)
        yield tuple(map(tuple, slots))


@cache
def _injections(j: int, k: int) -> tuple:
    """One getter per increasing injection [j] -> [k], j < k: applied to j
    slots followed by (), it returns the k slots with () in the gaps."""
    return tuple(itemgetter(*(pos.index(p) if p in pos else j
                              for p in range(k)))
                 for pos in combinations(range(k), j))


def _insert_units(sums: list, k: int) -> dict:
    """The full flavor from sums[j], the sums over maps onto 1..j: a map to
    1..k is an onto map to its image followed by the image's increasing
    injection [j] -> [k], so every key of full arises exactly once."""
    full = {}
    for j in range(1, k):
        padded = [slots + ((),) for slots in sums[j]]
        for get in _injections(j, k):
            full.update(zip(map(get, padded), sums[j].values()))
    full.update(sums[k])
    return full


def slot_counts(T: DecoratedTree, k: int, flavor: str) -> dict:
    """The strictly order-preserving maps from T's vertices to 1..k, counted
    by slot contents (tuple of sorted index tuples built from d2
    decorations).  reduced: surjective; irr: bijective; full: unconstrained,
    the onto maps to every image with units inserted."""
    n = T.size
    if flavor == "full":
        flat = _flatten(T)
        sums = [Counter(_onto_fills(flat, j)) if 0 < j <= n else {}
                for j in range(k + 1)]
        return _insert_units(sums, k)
    if n == k or n > k and flavor == "reduced":
        return Counter(_onto_fills(_flatten(T), k))
    return {}


def forest_formula(i, K: int, basis: BasisProvider) -> dict:
    """sum over decorated trees T in T_i and maps f of lambda(T) C(f), for
    every k = 1..K and each flavor: reduced (the iterated reduced
    coproduct, maps onto 1..k), irr (its irreducible part, bijective maps)
    and full (the iterated coproduct, all maps, as the unit insertion of the
    onto sums).

    Returns {k: {flavor: {slot-tuples: coefficient}}} for k = 1..K, with
    each slot a sorted tuple of basis indices (empty tuple = unit, full
    flavor only); a caller that wants one k indexes the result.  One walk
    over the decorated trees fills each map onto 1..j, j = 1..min(K, |T|),
    once: the sum for j is reduced at k = j and feeds full at every k >= j;
    irr at k is its part whose k slots hold one index each, filled only by
    the bijections (a bigger tree's fills hold more), so nothing cancels.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    sums = [{} for _ in range(K + 1)]  # sums[j]: maps onto 1..j
    for T, lam in enumerate_decorated_trees(i, basis):
        flat = _flatten(T)
        for j in range(1, min(K, T.size) + 1):
            acc = sums[j]
            for slots in _onto_fills(flat, j):
                acc[slots] = acc.get(slots, 0) + lam
    sums = [{slots: c for slots, c in acc.items() if c} for acc in sums]
    return {k: {"full": _insert_units(sums, k), "reduced": sums[k],
                "irr": {slots: c for slots, c in sums[k].items()
                        if sum(map(len, slots)) == k}}
            for k in range(1, K + 1)}


def decorated_string(T: DecoratedTree, basis: BasisProvider) -> str:
    """Bracket rendering with (d1;d2) annotations, single labels on leaves.
    The indices are rendered unchecked: T is one of
    enumerate_decorated_trees(i, basis), whose indices come from delta_bar."""
    if not T.children:
        return "(%s)" % basis._label(T.d1)
    inner = "".join(decorated_string(c, basis) for c in T.children)
    return "(%s;%s)[%s]" % (basis._label(T.d1), basis._label(T.d2), inner)
