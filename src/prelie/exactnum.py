"""Exact rational arithmetic and Bernoulli numbers.

Every scalar in the engine is an int or a ``fractions.Fraction``, never a
float; a Fraction appears where a division does.  Both are exact: unbounded
integers, and Fractions always in lowest terms with a positive denominator.
The stdlib types already guarantee all of that, so ``Rational`` is just an
alias plus the string format used by the JSON/CSV interfaces ("p/q", or "p"
when the denominator is 1).

Bernoulli convention: B1 = -1/2 (the "first" Bernoulli numbers).  This is the
convention under which the tree-indexed Magnus recursions in this package are
stated; see ``bernoulli``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

__all__ = ["Rational", "bernoulli", "parse_rational", "format_rational"]

Rational = Fraction

# memo table for bernoulli(); grown on demand, only ever appended to, so
# concurrent readers are safe (CPython list append is atomic)
_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Return B_n with the convention B1 = -1/2.

    Uses the recursion sum_{k=0}^{n} C(n+1, k) * B_k = 0, i.e.

        B_n = -1/(n+1) * sum_{k=0}^{n-1} C(n+1, k) * B_k,

    which pins B1 = -1/2 (and B2 = 1/6, B3 = 0, B4 = -1/30, ...).
    Results are memoized.
    """
    if n < 0:
        raise ValueError("bernoulli(n) needs n >= 0, got %r" % (n,))
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        acc = sum(comb(m + 1, k) * _BERNOULLI[k] for k in range(m))
        _BERNOULLI.append(Fraction(-acc, m + 1))
    return _BERNOULLI[n]


def format_rational(q: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1.

    An int or a Fraction is already in that form (a Fraction is in lowest
    terms with a positive denominator); anything else, a bool or a float
    say, is read as the Fraction of its exact value first."""
    if type(q) is int or type(q) is Fraction:
        return str(q)
    return str(Fraction(q))


# "p" or "p/q" in ASCII digits, p optionally signed; Fraction() would also
# take "1e-300000", whose exponent alone asks for a 300001-digit denominator
_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p", optionally signed and surrounded by whitespace
    (the inverse of format_rational); nothing else."""
    text = s.strip()
    if _LITERAL.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:  # q = 0, too many digits
            raise ValueError("not a rational literal: %r" % (s,)) from exc
    raise ValueError("not a rational literal: %r" % (s,))
