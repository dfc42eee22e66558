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
    caps        the order caps and the names the command line offers
    cli         command line entry points

All arithmetic is exact: int or fractions.Fraction, never float; a Fraction
appears where a division does.

Importing the package loads no layer module: each name of ``__all__`` is
read from its module on first access.
"""

__all__ = [
    "Rational", "bernoulli", "format_rational", "parse_rational",
    "RootedTree", "Forest", "LEAF", "tree_from_string", "forest_from_string",
    "enumerate_trees", "enumerate_forests", "sigma", "tree_factorial",
    "murua_omega", "murua_omega_recursive",
]


def __getattr__(name: str):
    """Each name of ``__all__`` from exactnum or trees, imported on first
    access (PEP 562), so that importing the package loads no layer module;
    trees imports exactnum, so the two load together."""
    if name not in __all__:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    from . import exactnum, trees
    value = getattr(exactnum if hasattr(exactnum, name) else trees, name)
    globals()[name] = value
    return value
