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
1/t(pi)!, omega(t(pi)), or a signed one of these.  One cached enumeration
builds every partition of [n] together with its nesting forest: the block v
of 1 splits [n] into the gaps inside v, whose blocks nest below v, and the
gap after v, whose blocks sit beside it.  Each (length, brand pair) sum is
compiled once into its distinct blocks, the lcm L of its weights'
denominators and, per term, block ids and the weight times L.  The work per
word is an integer sum: each distinct block's value is read once and put
over the lcm D of their denominators, every term multiplies ints, and the
word's value is one Fraction over L * D^n.  Moments-to-cumulants inverts
the cumulants-to-moments sum triangularly by word length, reading the same
compiled sum with the unknown word set to 0.
The monotone -> boolean / free sums and their inverses are also exp and
Omega in the insertion pre-Lie algebra of words (prelie.words), which
verify's exp-magnus-functionals identity compares with these sums.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache
from itertools import combinations, islice, product
from math import lcm

from .caps import BRANDS
from .exactnum import parse_rational
from .trees import EMPTY_FOREST, Forest, RootedTree, forest_factorial
from .trees import murua_omega_forest as forest_omega

__all__ = [
    "NCPartition", "CumulantTable", "BRANDS",
    "enumerate_nc", "nesting_forest",
    "convert",
]


class NCPartition:
    """Non-crossing set partition of [n]; blocks sorted by minimum."""

    __slots__ = ("blocks", "n")

    def __init__(self, blocks):
        blocks = tuple(sorted((tuple(sorted(b)) for b in blocks),
                              key=lambda b: b[:1]))  # b[0] fails on ()
        seen = [e for b in blocks for e in b]
        n = len(seen)
        if not all(blocks) or sorted(seen) != list(range(1, n + 1)):
            raise ValueError("blocks do not partition [n]")
        if not n:
            raise ValueError("a partition needs at least one block")
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
        return _irreducible(self.blocks, self.n)

    def is_interval(self) -> bool:
        return _interval(self.blocks, self.n)


# filters on the block tuple of a partition of [n] (blocks sorted, sorted by
# minimum), shared by NCPartition and the compiled sums
def _irreducible(blocks: tuple, n: int) -> bool:
    return blocks[0][-1] == n


def _interval(blocks: tuple, n: int) -> bool:
    return all(b[-1] - b[0] + 1 == len(b) for b in blocks)


@cache
def _nc_blocks(n: int) -> dict:
    """All non-crossing partitions of [n], each block tuple (blocks sorted
    by minimum) mapped to its nesting forest; callers shift the blocks."""
    if n == 0:
        return {(): EMPTY_FOREST}
    result = {}
    # the block of 1 is v = {1 < v_2 < ... < v_k}; the gaps between
    # consecutive elements and after v_k are partitioned independently
    for size in range(1, n + 1):
        for rest in combinations(range(2, n + 1), size - 1):
            v = (1,) + rest
            # the gap between consecutive a < b of v holds a partition of
            # its b - a - 1 elements, shifted by a
            choices = [[(tuple(tuple(e + a for e in blk) for blk in sub), f)
                        for sub, f in _nc_blocks(b - a - 1).items()]
                       for a, b in zip(v, v[1:] + (n + 1,))]
            for combo in product(*choices):
                blocks = (v,) + tuple(blk for sub, _ in combo for blk in sub)
                # the inner gaps' blocks nest below v, the last gap's sit
                # beside it
                top = RootedTree(t for _, f in combo[:-1] for t in f.trees)
                result[tuple(sorted(blocks, key=lambda b: b[0]))] = \
                    Forest((top,) + combo[-1][1].trees)
    return result


def enumerate_nc(n: int) -> list:
    if n < 1:
        raise ValueError("n must be >= 1")
    return [NCPartition(blocks) for blocks in _nc_blocks(n)]


def nesting_forest(pi: NCPartition) -> Forest:
    """Shape of the nesting order's cover relation, one tree per outermost
    block, as the enumeration of [n] built it (the first call for an n
    enumerates every non-crossing partition of [n]).  The partition weights
    only use this shape, and the forest statistics (forest_factorial,
    forest_omega) are multiplicative."""
    return _nc_blocks(pi.n)[pi.blocks]


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
        # not int(): it truncates 1.9 and takes true or "7"
        if type(maxlen) is not int:
            raise ValueError('"maxlen" must be an integer, not %s'
                             % type(maxlen).__name__)
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
                and self.values == other.values)  # complete, so same keys

    def to_json(self) -> dict:
        values = {}
        for w in iter_words(self.variables, self.maxlen):
            try:
                values[w] = str(self.values[w])
            except ValueError:  # the same limit that parse_rational meets
                raise ValueError(
                    "the value of word %r exceeds the limit of %d digits for "
                    "integer string conversion"
                    % (w, sys.get_int_max_str_digits())) from None
        return {"brand": self.brand, "variables": list(self.variables),
                "maxlen": self.maxlen, "values": values}

    @classmethod
    def from_json(cls, data: dict) -> "CumulantTable":
        if not isinstance(data, dict):
            raise ValueError("malformed cumulant table: not a JSON object")
        try:
            brand = data["brand"]
            variables = data["variables"]
            maxlen = data["maxlen"]
            raw = data["values"]
        except KeyError as exc:
            raise ValueError("malformed cumulant table: %s" % exc) from None
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
# cumulant-to-cumulant relations.
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
    "all": lambda blocks, n: True,
    "interval": _interval,
    "irreducible": _irreducible,
}


@cache
def _terms(n: int, pair: tuple) -> tuple:
    """The sum for ``pair`` over partitions of [n], compiled to integers as
    (blocks, L, terms).

    ``blocks`` lists each distinct block once, as 0-based positions; L is the
    lcm of the weights' denominators; a term is (its block ids, its weight
    times L, n - |pi|).  Zero weights are dropped."""
    which, signed, statistic = _SUMS[pair]
    keep = _KEEP[which]
    kept = []
    # the blocks as enumerate_nc lists them, unvalidated: the tests check
    # that every one is a valid NCPartition
    for blocks, forest in _nc_blocks(n).items():
        if not keep(blocks, n):
            continue
        c = Fraction(statistic(forest) if statistic else 1)
        if signed and len(blocks) % 2 == 0:
            c = -c
        if c:
            kept.append((blocks, c))
    L = lcm(*(c.denominator for _, c in kept))
    ids: dict = {}
    terms = tuple((tuple(ids.setdefault(tuple(i - 1 for i in b), len(ids))
                         for b in blocks),
                   c.numerator * (L // c.denominator), n - len(blocks))
                  for blocks, c in kept)
    return tuple(ids), L, terms


def _partition_sum(values: dict, w: str, compiled) -> Fraction:
    """sum over terms of weight * prod over blocks of values[w restricted].

    Each distinct block's value is read once and put over the lcm D of their
    denominators; a term is then an integer product scaled by D^(n - |pi|),
    and the sum is one Fraction over L * D^n."""
    blocks, L, terms = compiled
    vals = [values["".join([w[i] for i in b])] for b in blocks]
    D = lcm(*(v.denominator for v in vals))
    nums = [v.numerator * (D // v.denominator) for v in vals]
    powers = [D ** k for k in range(len(w))]
    total = 0
    for ids, c, gap in terms:
        for i in ids:
            c *= nums[i]
            if not c:
                break
        else:
            total += c * powers[gap]
    return Fraction(total, L * D ** len(w))


def _moments_to_cumulants(moments: dict, target: str, variables, maxlen) -> dict:
    """Invert the target -> moment sum by word length: its one-block term is
    the unknown itself with weight 1, every other term reads shorter words.
    The unknown is set to 0 first, so the sum over all partitions is the
    sum over the others."""
    out: dict = {}
    for w in iter_words(variables, maxlen):  # shorter words first
        out[w] = 0
        out[w] = moments[w] - _partition_sum(out, w,
                                             _terms(len(w), (target, "moment")))
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

