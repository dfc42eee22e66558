"""Non-crossing partitions, nesting forests, and cumulant conversions.

A non-crossing partition of [n] has no blocks interleaving as a < b < c < d
with a, c in one block and b, d in another.  Irreducible: 1 and n share a
block.  Interval: every block is a set of consecutive integers.  Nesting
orders the blocks by strict enclosure (min(V) < min(W) and max(W) < max(V));
its cover relation is a forest, one tree per outermost block.

Cumulant brands (moment, free, boolean, monotone) are tables of exact
rationals indexed by words over one-character variables.  Every conversion
is a sum over non-crossing partitions pi (all, interval or irreducible) of a
weight times the product of the table over the blocks of pi.  The weight is
a statistic of the nesting forest t(pi) alone: 1, the sign (-1)^(|pi|-1),
1/t(pi)!, omega(t(pi)), or a signed one of these.  So each (length, brand
pair) sum is compiled once into (blocks, weight) terms, and the work per
word is the block products.  Moments-to-cumulants inverts the cumulants-to-
moments sum triangularly by word length.  exp_functional and
magnus_functional are the monotone -> boolean and boolean -> monotone sums,
applied to an arbitrary table used as a multilinear functional.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, islice, product

from .exactnum import parse_rational
from .trees import Forest, RootedTree, forest_factorial
from .trees import murua_omega_forest as forest_omega

__all__ = [
    "NCPartition", "CumulantTable", "BRANDS",
    "enumerate_nc", "enumerate_nc_irr", "enumerate_interval",
    "enumerate_nc_irr_k", "nesting_forest",
    "convert", "exp_functional", "magnus_functional",
]

BRANDS = ("moment", "free", "boolean", "monotone")


class NCPartition:
    """Non-crossing set partition of [n]; blocks sorted by minimum."""

    __slots__ = ("blocks", "n")

    def __init__(self, blocks):
        blocks = tuple(sorted((tuple(sorted(b)) for b in blocks),
                              key=lambda b: b[0]))
        seen = [e for b in blocks for e in b]
        n = len(seen)
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError("blocks do not partition [n]")
        for (b1, b2) in combinations(blocks, 2):
            s2 = set(b2)
            for a, c in combinations(b1, 2):
                if any(a < x < c for x in s2) and any(x < a or x > c for x in s2):
                    raise ValueError("blocks cross: %r / %r" % (b1, b2))
        self.blocks = blocks
        self.n = n

    def __eq__(self, other):
        return isinstance(other, NCPartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __repr__(self):
        return "NCPartition(%r)" % (self.blocks,)

    def is_irreducible(self) -> bool:
        return self.n in self.blocks[0]

    def is_interval(self) -> bool:
        return all(b[-1] - b[0] + 1 == len(b) for b in self.blocks)


@cache
def _nc_blocks(n: int) -> tuple:
    """All non-crossing partitions of [n] as block tuples (shifted on use)."""
    if n == 0:
        return ((),)
    result = []
    # the block of 1 is v = {1 < v_2 < ... < v_k}; the gaps between
    # consecutive elements and after v_k are partitioned independently
    for size in range(1, n + 1):
        for rest in combinations(range(2, n + 1), size - 1):
            v = (1,) + rest
            # the gap between consecutive a < b of v holds a partition of
            # its b - a - 1 elements, shifted by a
            choices = [[tuple(tuple(e + a for e in blk) for blk in sub)
                        for sub in _nc_blocks(b - a - 1)]
                       for a, b in zip(v, v[1:] + (n + 1,))]
            for combo in product(*choices):
                blocks = (v,) + tuple(blk for sub in combo for blk in sub)
                result.append(tuple(sorted(blocks, key=lambda b: b[0])))
    return tuple(result)


def enumerate_nc(n: int) -> list:
    if n < 1:
        raise ValueError("n must be >= 1")
    return [NCPartition(blocks) for blocks in _nc_blocks(n)]


def enumerate_nc_irr(n: int) -> list:
    return [p for p in enumerate_nc(n) if p.is_irreducible()]


def enumerate_nc_irr_k(n: int, k: int) -> list:
    return [p for p in enumerate_nc_irr(n) if len(p) == k]


def enumerate_interval(n: int) -> list:
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for cuts in _compositions(n):
        blocks = []
        start = 1
        for c in cuts:
            blocks.append(tuple(range(start, start + c)))
            start += c
        out.append(NCPartition(blocks))
    return out


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def nesting_forest(pi: NCPartition) -> Forest:
    """Shape of the nesting order's cover relation, one tree per outermost
    block.  The partition weights only use this shape, and the forest
    statistics (forest_factorial, forest_omega) are multiplicative."""
    blocks = pi.blocks
    idx = range(len(blocks))

    def nests(outer, inner):
        return (blocks[outer][0] < blocks[inner][0]
                and blocks[inner][-1] < blocks[outer][-1])

    parent = [None] * len(blocks)
    for i in idx:
        enclosing = [j for j in idx if j != i and nests(j, i)]
        if enclosing:
            # the immediate cover is the enclosing block starting latest
            parent[i] = max(enclosing, key=lambda j: blocks[j][0])

    children: dict = {i: [] for i in idx}
    for i in idx:
        if parent[i] is not None:
            children[parent[i]].append(i)

    def build(i) -> RootedTree:
        return RootedTree(tuple(build(c) for c in children[i]))

    return Forest(build(i) for i in idx if parent[i] is None)


class CumulantTable:
    """Word-indexed exact-rational table for one cumulant brand.

    Complete: a value for every word over the variables of length 1..maxlen.
    """

    __slots__ = ("brand", "variables", "maxlen", "values")

    def __init__(self, brand, variables, maxlen, values):
        if brand not in BRANDS:
            raise ValueError("unknown brand %r (expected one of %s)"
                             % (brand, ", ".join(BRANDS)))
        # words are read letter by letter, so a variable is one character
        if not (isinstance(variables, (list, tuple)) and variables
                and all(isinstance(v, str) and len(v) == 1 for v in variables)
                and len(set(variables)) == len(variables)):
            raise ValueError("variables must be a nonempty list of distinct "
                             "one-character strings")
        variables = tuple(variables)
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        vals = {w: Fraction(v) for w, v in values.items()}
        letters = set(variables)
        extra = [w for w in vals if not (isinstance(w, str)
                                         and 1 <= len(w) <= maxlen
                                         and set(w) <= letters)]
        if extra:
            shown = ", ".join(map(repr, extra[:20]))
            raise ValueError("table has %d word(s) outside the variables or "
                             "lengths 1..%d: %s%s" % (
                                 len(extra), maxlen, shown,
                                 ", ..." if len(extra) > 20 else ""))
        # stop at 21: the words up to a huge maxlen cannot all be listed
        missing = list(islice((w for w in iter_words(variables, maxlen)
                               if w not in vals), 21))
        if missing:
            raise ValueError("table is missing %s word(s): %s" % (
                len(missing) if len(missing) <= 20 else "more than 20",
                ", ".join(missing[:20])))
        self.brand = brand
        self.variables = variables
        self.maxlen = maxlen
        self.values = vals

    def __eq__(self, other):
        return (isinstance(other, CumulantTable)
                and (self.brand, self.variables, self.maxlen)
                == (other.brand, other.variables, other.maxlen)
                and all(self.values[w] == other.values[w]
                        for w in iter_words(self.variables, self.maxlen)))

    def negated(self) -> "CumulantTable":
        return CumulantTable(self.brand, self.variables, self.maxlen,
                             {w: -v for w, v in self.values.items()})

    def to_json(self) -> dict:
        return {
            "brand": self.brand,
            "variables": list(self.variables),
            "maxlen": self.maxlen,
            "values": {w: str(self.values[w])
                       for w in iter_words(self.variables, self.maxlen)},
        }

    @classmethod
    def from_json(cls, data: dict) -> "CumulantTable":
        try:
            brand = data["brand"]
            variables = data["variables"]
            maxlen = data["maxlen"]
            raw = data["values"]
        except (KeyError, TypeError) as exc:
            raise ValueError("malformed cumulant table: %s" % exc) from None
        # not int(): it truncates 1.9 and takes true or "7"
        if type(maxlen) is not int:
            raise ValueError('malformed cumulant table: "maxlen" must be an '
                             'integer, not %s' % type(maxlen).__name__)
        if not isinstance(raw, dict) or \
                not all(isinstance(v, str) for v in raw.values()):
            raise ValueError('malformed cumulant table: "values" must map '
                             'words to "p/q" strings')
        values = {w: parse_rational(v) for w, v in raw.items()}
        return cls(brand, variables, maxlen, values)


def iter_words(variables, maxlen: int):
    for n in range(1, maxlen + 1):
        for combo in product(variables, repeat=n):
            yield "".join(combo)


def _inverse_factorial(forest):
    return Fraction(1, forest_factorial(forest))


# Every partition sum of this module: (source, target) -> (the non-crossing
# partitions pi it runs over, whether pi carries the sign (-1)^(|pi|-1), the
# statistic of the nesting forest t(pi) that weights pi, None for 1).  The
# X -> moment sums give moments, the irreducible ones are the direct
# cumulant-to-cumulant relations; exp_functional is the monotone -> boolean
# sum and magnus_functional the boolean -> monotone one.
_SUMS = {
    ("free", "moment"): ("all", False, None),
    ("boolean", "moment"): ("interval", False, None),
    ("monotone", "moment"): ("all", False, _inverse_factorial),
    ("free", "boolean"): ("irreducible", False, None),
    ("boolean", "free"): ("irreducible", True, None),
    ("monotone", "boolean"): ("irreducible", False, _inverse_factorial),
    ("monotone", "free"): ("irreducible", True, _inverse_factorial),
    ("boolean", "monotone"): ("irreducible", False, forest_omega),
    ("free", "monotone"): ("irreducible", True, forest_omega),
}

_KEEP = {
    "all": lambda pi: True,
    "interval": NCPartition.is_interval,
    "irreducible": NCPartition.is_irreducible,
}


@cache
def _terms(n: int, pair: tuple) -> tuple:
    """((blocks, weight), ...) of the sum for ``pair`` over partitions of
    [n], blocks as 0-based positions, zero weights dropped."""
    which, signed, statistic = _SUMS[pair]
    out = []
    for pi in enumerate_nc(n):
        if not _KEEP[which](pi):
            continue
        c = statistic(nesting_forest(pi)) if statistic else 1
        if signed and len(pi) % 2 == 0:
            c = -c
        if c:
            out.append((tuple(tuple(i - 1 for i in b) for b in pi.blocks), c))
    return tuple(out)


def _partition_sum(values: dict, w: str, terms) -> Fraction:
    """sum over terms of weight * prod over blocks of values[w restricted]."""
    out = Fraction(0)
    for blocks, c in terms:
        for block in blocks:
            c *= values["".join([w[i] for i in block])]
            if not c:
                break
        out += c
    return out


def _moments_to_cumulants(moments: dict, target: str, variables, maxlen) -> dict:
    """Invert the target -> moment sum by word length: its one-block term is
    the unknown itself with weight 1, every other term reads shorter words."""
    out: dict = {}
    for n in range(1, maxlen + 1):
        rest = [t for t in _terms(n, (target, "moment")) if len(t[0]) > 1]
        for combo in product(variables, repeat=n):
            w = "".join(combo)
            out[w] = moments[w] - _partition_sum(out, w, rest)
    return out


def convert(table: CumulantTable, target: str, route: str = "direct") -> CumulantTable:
    """Rewrite a table into another brand.

    route 'direct' uses the stated formula for the brand pair (sums over
    non-crossing / interval / irreducible partitions; moments-to-cumulants by
    triangular inversion); route 'via-moments' composes through the moment
    brand and must agree with the direct route.
    """
    if target not in BRANDS:
        raise ValueError("unknown brand %r (expected one of %s)"
                         % (target, ", ".join(BRANDS)))
    if route not in ("direct", "via-moments"):
        raise ValueError("route must be direct or via-moments")
    if table.brand == target:
        return CumulantTable(target, table.variables, table.maxlen, table.values)

    if route == "via-moments":
        mid = table if table.brand == "moment" else convert(table, "moment")
        return convert(mid, target)

    if table.brand == "moment":
        vals = _moments_to_cumulants(table.values, target,
                                     table.variables, table.maxlen)
    else:
        pair = (table.brand, target)
        vals = {w: _partition_sum(table.values, w, _terms(len(w), pair))
                for w in iter_words(table.variables, table.maxlen)}
    return CumulantTable(target, table.variables, table.maxlen, vals)


def exp_functional(values: dict, w: str) -> Fraction:
    """<exp of the functional | w>: irreducible sum with 1/t(pi)! weights."""
    return _partition_sum(values, w, _terms(len(w), ("monotone", "boolean")))


def magnus_functional(values: dict, w: str) -> Fraction:
    """<Magnus of the functional | w>: irreducible sum with omega weights."""
    return _partition_sum(values, w, _terms(len(w), ("boolean", "monotone")))
