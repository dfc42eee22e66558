"""Shared machinery for finite rational linear combinations.

TermMap is a thin dict wrapper (basis key -> coefficient) with zero pruning,
the usual module arithmetic and a truncation order: terms whose key grade (the
key's ``size``) exceeds the order are dropped, and binary operations keep the
min of the two orders (None = untruncated).  Coefficients are int or Fraction
and are kept as given, so integer structure constants stay ints until a
division makes a Fraction; any other number is turned into the Fraction of
its exact value, never kept as a float.  Tensor is the same over k-tuples
of keys, with the arity checked.  Subclasses fix only the key type's sort key
for serialization.  Everything is value-like: operations return new objects,
terms dicts are never shared, so concurrent readers are safe.

The module functions are the loops every graded algebra in the package
shares: the bilinear extension of a product of basis keys, the
multiplicative extension of a coproduct from generators to monomials, its
left iteration, the reduced/irreducible slot projections, and the pairing
of two term dicts under a diagonal weight.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

__all__ = ["TermMap", "Tensor", "bilinear", "multiplicative_coproduct",
           "iterate_coproduct", "project", "pair"]


def _exact(c):
    """int and Fraction pass as given; any other number (a float, say)
    becomes the Fraction of its exact value."""
    return c if type(c) is int or type(c) is Fraction else Fraction(c)


def _min_order(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class TermMap:
    __slots__ = ("terms", "order")

    def __init__(self, terms=None, order=None):
        data: dict = {}
        if terms is not None:
            items = terms.items() if hasattr(terms, "items") else terms
            for k, c in items:
                c = _exact(c)
                acc = data.get(k)
                data[k] = c if acc is None else acc + c
        self.terms = {k: c for k, c in data.items()
                      if c and (order is None or k.size <= order)}
        self.order = order

    def _with(self, terms, order):
        return type(self)(terms, order)

    @staticmethod
    def sort_key(key):
        return (key.size, key.key)

    def items(self):
        """Terms in deterministic order."""
        return sorted(self.terms.items(), key=lambda kv: self.sort_key(kv[0]))

    def truncated(self, order):
        return self._with(self.terms, _min_order(self.order, order))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(self) is type(other) and self.terms == other.terms

    __hash__ = None  # defining __eq__ without hash semantics

    def __add__(self, other):
        self._check(other)
        return self._with(chain(self.terms.items(), other.terms.items()),
                          _min_order(self.order, other.order))

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c) -> "TermMap":
        c = _exact(c)
        return self._with({k: v * c for k, v in self.terms.items()}, self.order)

    def coeff(self, key):
        """The coefficient of key, an int or a Fraction (0 if absent)."""
        return self.terms.get(key, 0)

    def _check(self, other):
        if type(self) is not type(other):
            raise TypeError("cannot combine %s with %s"
                            % (type(self).__name__, type(other).__name__))

    def __repr__(self):
        body = ", ".join("%s: %s" % (k, c) for k, c in self.items())
        return "%s({%s})" % (type(self).__name__, body)


class Tensor(TermMap):
    """Rational combination of arity-tuples of basis keys (Sweedler tensors)."""

    __slots__ = ("arity",)

    def __init__(self, arity, terms=None):
        super().__init__(terms)
        self.arity = arity
        for key in self.terms:
            if len(key) != arity:
                raise ValueError("tensor term %r does not have arity %d" % (key, arity))

    def _with(self, terms, order):
        return type(self)(self.arity, terms)

    def _check(self, other):
        super()._check(other)
        if self.arity != other.arity:
            raise TypeError("tensor arities differ: %d vs %d" % (self.arity, other.arity))

    @staticmethod
    def sort_key(slots):
        return tuple((s.size, s.key) for s in slots)


def bilinear(a: TermMap, b: TermMap, mul, order=None) -> TermMap:
    """Bilinear extension of mul (a pair of keys -> TermMap) to a x b.

    The result has a's type and the min of order and the two operands'
    orders; key pairs whose grades already sum past it are skipped.
    """
    order = _min_order(order, _min_order(a.order, b.order))
    acc: dict = {}
    for x, ca in a.terms.items():
        for y, cb in b.terms.items():
            if order is not None and x.size + y.size > order:
                continue
            c = ca * cb
            for r, d in mul(x, y).terms.items():
                acc[r] = acc.get(r, 0) + c * d
    return type(a)(acc, order)


def multiplicative_coproduct(factors, factor_delta, unit, join) -> dict:
    """Binary coproduct of the monomial factors[0] * ... * factors[-1].

    factor_delta(g) is the coproduct of one factor as {(left, right): coeff};
    the product runs slotwise, join(x, y) multiplying two monomials and unit
    being the empty one.  The result maps (left, right) to the products of
    the factors' coefficients.
    """
    acc = {(unit, unit): 1}
    for g in factors:
        terms = factor_delta(g).items()
        nxt: dict = {}
        for (la, ra), c in acc.items():
            for (lb, rb), d in terms:
                key = (join(la, lb), join(ra, rb))
                nxt[key] = nxt.get(key, 0) + c * d
        acc = nxt
    return acc


def iterate_coproduct(delta2, x_terms: dict, k: int) -> dict:
    """Left-iterate a binary coproduct k-1 times on a term dict.

    delta2 maps a monomial key to a dict {(left, right): coeff}; the result
    maps k-tuples of monomial keys to coefficients (k = 1 wraps keys in
    1-tuples) and may hold zeros, which the Tensor built from it drops.
    Left iteration: the coproduct is applied to slot 0 at every step.
    """
    if k < 1:
        raise ValueError("iterated coproduct needs k >= 1, got %r" % (k,))
    cur = {(key,): c for key, c in x_terms.items()}
    for _ in range(k - 1):
        nxt: dict = {}
        for slots, c in cur.items():
            for (a, b), d in delta2(slots[0]).items():
                key = (a, b) + slots[1:]
                nxt[key] = nxt.get(key, 0) + c * d
        cur = nxt
    return cur


def project(terms: dict, flavor: str) -> dict:
    """Slot projection of a tensor's terms, len(slot) counting generators.

    'full' keeps every term, 'reduced' ((Id - unit counit) in every slot)
    drops terms with an empty slot, 'irr' keeps terms whose every slot is a
    single generator.
    """
    if flavor == "full":
        return terms
    if flavor == "reduced":
        return {slots: c for slots, c in terms.items() if all(slots)}
    if flavor == "irr":
        return {slots: c for slots, c in terms.items()
                if all(len(s) == 1 for s in slots)}
    raise ValueError("flavor must be full, reduced or irr")


def pair(a: dict, b: dict, weight):
    """Bilinear pairing of two term dicts in which distinct keys pair to 0
    and a key with itself to weight(key); an int when every coefficient and
    weight is one."""
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    out = 0
    for key, c in small.items():
        d = big.get(key)
        if d is not None:
            out += c * d * weight(key)
    return out
