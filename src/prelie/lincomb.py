"""Shared machinery for finite rational linear combinations.

TermMap is a thin dict wrapper (basis key -> coefficient) with zero pruning
and the usual module arithmetic.  It carries no truncation order: a caller
truncates by argument, ``truncated(order)`` keeping the terms whose key grade
(``grade(key)``, the key's ``size`` unless a subclass says otherwise) is at
most order and ``bilinear`` skipping the key pairs whose grades sum past its
order.  Coefficients are int or Fraction and are kept as given, so integer
structure constants stay ints until a division makes a Fraction; any other
number is turned into the Fraction of its exact value, never kept as a
float.  Tensor is the same over k-tuples of keys, with the arity checked,
and is the one tensor type of every basis.  A subclass fixes at most the
key type's grade; terms keep their dict order, and only a printed series
sorts them.  Everything is value-like: operations return new objects,
terms dicts are never shared, so concurrent readers are safe.

The module functions are the loops every graded algebra in the package
shares: the bilinear extension of a product of basis keys, the
multiplicative extension of a coproduct from generators to monomials, its
left iteration (every iterate up to k from one loop), the one projection
of a tensor onto its reduced or irreducible slots (the flavors of an
iterated coproduct, for every algebra), and the pairing of two term dicts
under a diagonal weight.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, repeat
from operator import eq

__all__ = ["TermMap", "Tensor", "bilinear", "multiplicative_coproduct",
           "iterate_coproduct", "project", "pair"]


def _exact(c):
    """int and Fraction pass as given; any other number (a float, say)
    becomes the Fraction of its exact value."""
    return c if type(c) is int or type(c) is Fraction else Fraction(c)


# the coefficient types kept as given
_EXACT_TYPES = frozenset((int, Fraction))


class TermMap:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data: dict = {}
        if isinstance(terms, dict):
            data.update(terms)  # distinct keys: copied in C, nothing summed
            # one pass in C over the types; the loop only when one is off
            if not _EXACT_TYPES.issuperset(map(type, data.values())):
                for k, c in terms.items():
                    if type(c) is not int and type(c) is not Fraction:
                        data[k] = Fraction(c)
        elif terms is not None:
            for k, c in terms:  # an iterable of (key, coefficient) pairs
                c = _exact(c)
                acc = data.get(k)
                data[k] = c if acc is None else acc + c
        if not all(data.values()):  # one pass for zeros, the loop on a hit
            for k in [k for k, c in data.items() if not c]:
                del data[k]
        self.terms = data

    def _with(self, terms):
        return type(self)(terms)

    @staticmethod
    def grade(key):
        return key.size

    def truncated(self, order):
        """The terms of grade <= order."""
        grade = self.grade
        return self._with({k: c for k, c in self.terms.items()
                           if grade(k) <= order})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(self) is type(other) and self.terms == other.terms

    __hash__ = None  # defining __eq__ without hash semantics

    def __add__(self, other):
        self._check(other)
        return self._with(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c) -> "TermMap":
        c = _exact(c)
        return self._with({k: v * c for k, v in self.terms.items()})

    def coeff(self, key):
        """The coefficient of key, an int or a Fraction (0 if absent)."""
        return self.terms.get(key, 0)

    def _check(self, other):
        if type(self) is not type(other):
            raise TypeError("cannot combine %s with %s"
                            % (type(self).__name__, type(other).__name__))

    def __repr__(self):
        body = ", ".join("%s: %s" % (k, c) for k, c in self.terms.items())
        return "%s({%s})" % (type(self).__name__, body)


class Tensor(TermMap):
    """Rational combination of arity-tuples of basis keys (Sweedler tensors)."""

    __slots__ = ("arity",)

    def __init__(self, arity, terms=None):
        super().__init__(terms)
        self.arity = arity
        # one pass in C over the key lengths; the loop finds the bad key
        if not all(map(eq, map(len, self.terms), repeat(arity))):
            for key in self.terms:
                if len(key) != arity:
                    raise ValueError("tensor term %r does not have arity %d"
                                     % (key, arity))

    def _with(self, terms):
        return type(self)(self.arity, terms)

    def __eq__(self, other):
        return super().__eq__(other) and self.arity == other.arity

    def _check(self, other):
        super()._check(other)
        if self.arity != other.arity:
            raise TypeError("tensor arities differ: %d vs %d" % (self.arity, other.arity))


def bilinear(a: TermMap, b: TermMap, mul, order=None) -> TermMap:
    """Bilinear extension of mul (a pair of keys -> TermMap) to a x b.

    The result has a's type; key pairs whose grades sum past order, when
    given, are skipped.
    """
    grade = a.grade
    right = [(y, cb, grade(y)) for y, cb in b.terms.items()]
    acc: dict = {}
    for x, ca in a.terms.items():
        gx = grade(x)
        for y, cb, gy in right:
            if order is not None and gx + gy > order:
                continue
            c = ca * cb
            for r, d in mul(x, y).terms.items():
                acc[r] = acc.get(r, 0) + c * d
    return type(a)(acc)


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


def iterate_coproduct(delta2, x_terms: dict, k: int) -> list:
    """Left-iterate a binary coproduct k-1 times on a term dict, keeping
    every iterate.

    delta2 maps a monomial key to a dict {(left, right): coeff}; entry j-1
    of the result is the iterate delta^[j], j = 1..k, as a Tensor of arity j
    over monomial keys (j = 1 wraps keys in 1-tuples), zeros dropped.  Left
    iteration: the coproduct is applied to slot 0 at every step, so one loop
    hands out every j <= k and a caller that wants delta^[k] alone takes the
    last.
    """
    if k < 1:
        raise ValueError("iterated coproduct needs k >= 1, got %r" % (k,))
    out = [{(key,): c for key, c in x_terms.items()}]
    for _ in range(k - 1):
        nxt: dict = {}
        for slots, c in out[-1].items():
            for (a, b), d in delta2(slots[0]).items():
                key = (a, b) + slots[1:]
                nxt[key] = nxt.get(key, 0) + c * d
        out.append(nxt)
    return [Tensor(j, terms) for j, terms in enumerate(out, 1)]


def project(tensor: Tensor, flavor: str) -> Tensor:
    """Slot projection of a tensor, in its type and arity; len(slot) counts
    generators.

    'full' returns the tensor itself, 'reduced' ((Id - unit counit) in every
    slot) keeps the terms whose every slot is nonempty, 'irr' those whose
    every slot is a single generator.  len() runs once per distinct slot,
    the per-term test is a set operation, mapped over the terms in C.
    """
    if flavor == "full":
        return tensor
    slots_seen = set(chain.from_iterable(tensor.terms))
    if flavor == "reduced":
        keep = {s for s in slots_seen if len(s)}
    elif flavor == "irr":
        keep = {s for s in slots_seen if len(s) == 1}
    else:
        raise ValueError("flavor must be full, reduced or irr")
    terms = tensor.terms
    return tensor._with(dict(compress(terms.items(),
                                      map(keep.issuperset, terms))))


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
