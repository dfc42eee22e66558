"""Non-crossing partitions, nesting forests, and cumulant conversions.

A non-crossing partition of [n] has no blocks interleaving as a < b < c < d
with a, c in one block and b, d in another.  Irreducible: 1 and n share a
block.  Interval: every block is a set of consecutive integers.  Nesting
orders the blocks by strict enclosure (min(V) < min(W) and max(W) < max(V));
its cover relation is a forest, one tree per outermost block.

Cumulant brands (moment, free, boolean, monotone) are tables of exact
rationals indexed by words over the declared variables.  Conversions follow
the partition sums: moments are NC / interval / weighted-NC sums of the
respective cumulants, cumulant-to-cumulant passes are sums over irreducible
non-crossing partitions weighted by nesting-forest data (signs, forest
factorials, omega coefficients), and moments-to-cumulants inverts
triangularly by word length.  exp_functional and magnus_functional are the
same irreducible sums with 1/t(pi)! and omega(t(pi)) weights, applied to an
arbitrary table used as a multilinear functional.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

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


_NC_CACHE: dict[int, tuple] = {0: ((),)}


def _nc_blocks(n: int) -> tuple:
    """All non-crossing partitions of [n] as block tuples (shifted on use)."""
    out = _NC_CACHE.get(n)
    if out is not None:
        return out
    result = []
    # the block of 1 is {v_1 = 1 < v_2 < ... < v_k}; the segments strictly
    # between consecutive v's and after v_k are partitioned independently
    for size in range(1, n + 1):
        for rest in combinations(range(2, n + 1), size - 1):
            v = (1,) + rest
            segments = []
            for a, b in zip(v, v[1:] + (n + 1,)):
                segments.append((a + 1, b - 1))
            choices = []
            for a, b in segments:
                m = b - a + 1
                shifted = []
                for sub in _nc_blocks(m):
                    shifted.append(tuple(tuple(e + a - 1 for e in blk) for blk in sub))
                choices.append(shifted)
            for combo in product(*choices):
                blocks = (v,)
                for sub in combo:
                    blocks += sub
                result.append(tuple(sorted(blocks, key=lambda b: b[0])))
    out = tuple(result)
    _NC_CACHE[n] = out
    return out


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
        variables = tuple(variables)
        if not variables or len(set(variables)) != len(variables):
            raise ValueError("variables must be distinct and nonempty")
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        vals = {w: Fraction(v) for w, v in values.items()}
        missing = [w for w in iter_words(variables, maxlen) if w not in vals]
        if missing:
            raise ValueError("table is missing %d word(s): %s"
                             % (len(missing), ", ".join(missing[:20])))
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
            maxlen = int(data["maxlen"])
            raw = data["values"]
        except (KeyError, TypeError, ValueError) as exc:
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


def _restrict(w: str, block) -> str:
    return "".join(w[i - 1] for i in block)


def _pi_product(values: dict, pi: NCPartition, w: str) -> Fraction:
    out = Fraction(1)
    for block in pi.blocks:
        out *= values[_restrict(w, block)]
        if not out:
            return out
    return out


# weights w(pi) in the stated sums; None marks the absent 1/weight cases
def _w_free_to_moment(pi):
    return Fraction(1)


def _w_boolean_to_moment(pi):
    return Fraction(1) if pi.is_interval() else None


def _w_monotone_to_moment(pi):
    return Fraction(1, forest_factorial(nesting_forest(pi)))


_TO_MOMENT = {
    "free": _w_free_to_moment,
    "boolean": _w_boolean_to_moment,
    "monotone": _w_monotone_to_moment,
}

# direct cumulant-to-cumulant weights, summed over irreducible partitions
def _w_free_to_boolean(pi):
    return Fraction(1)


def _w_boolean_to_free(pi):
    return Fraction((-1) ** (len(pi) - 1))


def _w_monotone_to_boolean(pi):
    return Fraction(1, forest_factorial(nesting_forest(pi)))


def _w_monotone_to_free(pi):
    return Fraction((-1) ** (len(pi) - 1), forest_factorial(nesting_forest(pi)))


def _w_boolean_to_monotone(pi):
    return forest_omega(nesting_forest(pi))


def _w_free_to_monotone(pi):
    return Fraction((-1) ** (len(pi) - 1)) * forest_omega(nesting_forest(pi))


_CUM_TO_CUM = {
    ("free", "boolean"): _w_free_to_boolean,
    ("boolean", "free"): _w_boolean_to_free,
    ("monotone", "boolean"): _w_monotone_to_boolean,
    ("monotone", "free"): _w_monotone_to_free,
    ("boolean", "monotone"): _w_boolean_to_monotone,
    ("free", "monotone"): _w_free_to_monotone,
}


def _sum_over(values: dict, w: str, partitions, weight) -> Fraction:
    out = Fraction(0)
    for pi in partitions:
        c = weight(pi)
        if c is None or not c:
            continue
        out += c * _pi_product(values, pi, w)
    return out


def _cumulants_to_moments(table: CumulantTable) -> dict:
    weight = _TO_MOMENT[table.brand]
    out = {}
    for w in iter_words(table.variables, table.maxlen):
        out[w] = _sum_over(table.values, w, enumerate_nc(len(w)), weight)
    return out


def _moments_to_cumulants(moments: dict, target: str, variables, maxlen) -> dict:
    """Invert the stated sum by word length: the full-block term has
    coefficient 1, every other term only involves shorter restrictions."""
    weight = _TO_MOMENT[target]
    out: dict = {}
    for n in range(1, maxlen + 1):
        for combo in product(variables, repeat=n):
            w = "".join(combo)
            rest = Fraction(0)
            for pi in enumerate_nc(n):
                if len(pi) == 1:
                    continue
                c = weight(pi)
                if c is None or not c:
                    continue
                rest += c * _pi_product(out, pi, w)
            out[w] = moments[w] - rest
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

    if target == "moment":
        vals = _cumulants_to_moments(table)
    elif table.brand == "moment":
        vals = _moments_to_cumulants(table.values, target,
                                     table.variables, table.maxlen)
    else:
        weight = _CUM_TO_CUM[(table.brand, target)]
        vals = {}
        for w in iter_words(table.variables, table.maxlen):
            vals[w] = _sum_over(table.values, w, enumerate_nc_irr(len(w)), weight)
    return CumulantTable(target, table.variables, table.maxlen, vals)


def exp_functional(values: dict, w: str) -> Fraction:
    """<exp of the functional | w>: irreducible sum with 1/t(pi)! weights."""
    return _sum_over(values, w, enumerate_nc_irr(len(w)),
                     lambda pi: Fraction(1, forest_factorial(nesting_forest(pi))))


def magnus_functional(values: dict, w: str) -> Fraction:
    """<Magnus of the functional | w>: irreducible sum with omega weights."""
    return _sum_over(values, w, enumerate_nc_irr(len(w)),
                     lambda pi: forest_omega(nesting_forest(pi)))
