"""Exact rooted-tree combinatorics for pre-Lie and Hopf algebra computations.

Modules:
    exactnum    rational scalars and Bernoulli numbers
    trees       rooted trees, forests, counting statistics, omega coefficients
    lincomb     the graded map TermMap, Tensor, and the shared loops:
                bilinear, multiplicative_coproduct, project, pair
    freeprelie  graft/brace/Grossman-Larson products, Connes-Kreimer
                coproduct, Magnus and exponential series
    words       the pre-Lie algebra of words and its coproduct
    forest      forest formulas for iterated coproducts over a basis
    nc          non-crossing partitions and cumulant conversions
    checks      the cross-route identities that `prelie verify` reruns
    cli         command line entry points

All arithmetic is exact: int or fractions.Fraction, never float; a Fraction
appears where a division does.
"""

from .exactnum import Rational, bernoulli, format_rational, parse_rational
from .trees import (
    Forest, LEAF, RootedTree, enumerate_forests, enumerate_trees,
    forest_from_string, murua_omega, murua_omega_recursive, sigma,
    tree_factorial, tree_from_string,
)

__all__ = [
    "Rational", "bernoulli", "format_rational", "parse_rational",
    "RootedTree", "Forest", "LEAF", "tree_from_string", "forest_from_string",
    "enumerate_trees", "enumerate_forests", "sigma", "tree_factorial",
    "murua_omega", "murua_omega_recursive",
]
