"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities from first principles with the dumbest
viable algorithm (exhaustive enumeration over labelings, maps, edge subsets,
set partitions) so that agreement with the package is meaningful.  Nothing
imports package internals beyond the public tree/word containers needed to
exchange values and ``nc._SUMS``, the description of the cumulant partition
sums (which partitions, which sign, which nesting-forest weight); the
forest-formula helpers read only the public methods of the basis they are
given (validate, delta_bar, index_of).
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import comb, factorial

from prelie.nc import _SUMS
from prelie.trees import Forest, LabeledForest, RootedTree


# ---------------------------------------------------------------------------
# counting sequences

def tree_counts(n_max: int) -> list:
    """Rooted-tree counts by the divisor-convolution recursion:
    (n) a(n+1) = sum_{k=1..n} (sum_{d|k} d a(d)) a(n-k+1)."""
    a = [0, 1]
    for n in range(1, n_max):
        total = 0
        for k in range(1, n + 1):
            total += sum(d * a[d] for d in range(1, k + 1) if k % d == 0) * a[n - k + 1]
        a.append(total // n)
    return a[1:n_max + 1]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def catalan_by_convolution(n_max: int) -> list:
    c = [1]
    for n in range(n_max):
        c.append(sum(c[i] * c[n - i] for i in range(n + 1)))
    return c


# ---------------------------------------------------------------------------
# poset maps on concrete vertex sets

def _poset(f: Forest):
    lf = LabeledForest(f)
    parent = tuple(-1 if p is None else p for p in lf.parent)
    return lf.n, parent


def brute_linear_extensions(f: Forest) -> int:
    """Bijective order-preserving labelings, checked one permutation at a time."""
    n, parent = _poset(f)
    count = 0
    for perm in permutations(range(1, n + 1)):
        if all(parent[v] < 0 or perm[parent[v]] < perm[v] for v in range(n)):
            count += 1
    return count


def num_linearizations(t: RootedTree) -> int:
    """m(t), the linear extensions of the tree poset, by the multinomial
    recursion: the root comes first, then the branches' extensions
    interleave in (|t| - 1)! / prod |c|! ways."""
    out = factorial(t.size - 1)
    for c in t.children:
        out = out // factorial(c.size) * num_linearizations(c)
    return out


def brute_k_linearizations(f: Forest, k: int, weak: bool = False) -> int:
    """Surjective (or arbitrary, weak=True) strictly order-preserving maps
    onto 1..k, counted by exhausting all k^n candidate maps."""
    n, parent = _poset(f)
    count = 0
    for vals in product(range(1, k + 1), repeat=n):
        if not all(parent[v] < 0 or vals[parent[v]] < vals[v] for v in range(n)):
            continue
        if weak or len(set(vals)) == k:
            count += 1
    return count


@cache
def brute_slot_maps(parents: tuple, k: int, flavor: str) -> tuple:
    """Maps from vertices 0..n-1 (parents[v] the parent of v, -1 at a root)
    to 1..k that strictly increase from parent to child, by trying all k^n
    candidates in lexicographic order: all of them (full), the surjective ones
    (reduced) or the bijective ones (irr)."""
    n = len(parents)
    out = []
    for vals in product(range(1, k + 1), repeat=n):
        if not all(parents[v] < 0 or vals[parents[v]] < vals[v] for v in range(n)):
            continue
        image = len(set(vals))
        if flavor == "full" or image == k and (flavor == "reduced" or n == k):
            out.append(vals)
    return tuple(out)


def left_iterate(delta2, x_terms: dict, k: int) -> dict:
    """delta^[k] of a term dict by k-1 left steps of the binary coproduct
    delta2 (a monomial key -> {(left, right): coeff}), applied to slot 0 and
    started afresh from the 1-tuples for every k; keeps any zero sums."""
    cur = {(key,): c for key, c in x_terms.items()}
    for _ in range(k - 1):
        nxt: dict = {}
        for slots, c in cur.items():
            for (a, b), d in delta2(slots[0]).items():
                key = (a, b) + slots[1:]
                nxt[key] = nxt.get(key, 0) + c * d
        cur = nxt
    return cur


def index_terms(basis, tensor) -> dict:
    """A tensor of native monomials in index space, as the forest formula
    gives its terms: each slot becomes the sorted tuple of the indices
    (basis.index_of) of its trees or words."""
    out: dict = {}
    for slots, c in tensor.terms.items():
        key = tuple(tuple(sorted(map(basis.index_of, slot))) for slot in slots)
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def lambda_coeff(T, basis):
    """lambda(T) of a decorated tree by its recursive definition: 1 on a
    leaf; else the structure constant of delta_bar(b_d1) at (d2; the
    children's d1), times, per class of children sharing a d1, the number of
    distinct orders of the class, times the children's lambdas."""
    basis.validate(T.d1)
    if not T.children:
        return 1
    I = tuple(sorted(c.d1 for c in T.children))
    out = sum(c for i0, J, c in basis.delta_bar(T.d1) if (i0, J) == (T.d2, I))
    for d1 in set(I):
        out *= len(set(permutations(
            c.key for c in T.children if c.d1 == d1)))
    for c in T.children:
        out *= lambda_coeff(c, basis)
    return out


def series_json(series) -> list:
    """The records `prelie series` prints for a TreeSeries, in printed order."""
    return [{"forest": t.key, "coeff": str(c)} for t, c in series.items()]


def brute_automorphisms(t: RootedTree) -> int:
    """Order of Aut(t): vertex permutations fixing the root and the parent map."""
    lf = LabeledForest(Forest((t,)))
    n, parent = lf.n, lf.parent
    count = 0
    for perm in permutations(range(n)):
        if perm[0] != 0:
            continue
        if all(perm[parent[v]] == parent[perm[v]] for v in range(1, n)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# admissible cuts from raw edge subsets

def brute_admissible_cuts(t: RootedTree) -> dict:
    """All antichain edge subsets (edges named by their lower vertex),
    aggregated as {(trunk_key, pruning_key): count}; includes the empty cut."""
    lf = LabeledForest(Forest((t,)))
    n, parent = lf.n, lf.parent
    children = lf.children

    def is_ancestor(a: int, b: int) -> bool:
        while b is not None:
            b = parent[b]
            if b == a:
                return True
        return False

    non_roots = [v for v in range(n) if parent[v] is not None]
    out: dict = {}
    for mask in range(1 << len(non_roots)):
        cut = [non_roots[i] for i in range(len(non_roots)) if mask >> i & 1]
        if any(is_ancestor(a, b) for a in cut for b in cut if a != b):
            continue
        cutset = set(cut)

        def build(v: int) -> RootedTree:
            return RootedTree(tuple(build(c) for c in children[v]
                                    if c not in cutset))

        trunk = build(0)
        pruning = Forest(tuple(build(v) for v in cut))
        key = (trunk.key, pruning.key)
        out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# symmetric braces

def simultaneous_grafting(t: RootedTree, args) -> dict:
    """t{u_1,..,u_n} computed as the sum over all ways to attach every u_i
    below some vertex of t simultaneously.  Returns {RootedTree: int}."""
    args = tuple(args)
    lf = LabeledForest(Forest((t,)))
    n, children = lf.n, lf.children
    out: dict = {}
    for targets in product(range(n), repeat=len(args)):

        def build(v: int) -> RootedTree:
            extra = tuple(args[i] for i in range(len(args)) if targets[i] == v)
            return RootedTree(tuple(build(c) for c in children[v]) + extra)

        s = build(0)
        out[s] = out.get(s, 0) + 1
    return out


def oudom_guin_brace(prelie_on_basis, x, args) -> dict:
    """Generic symmetric-brace recursion over any basis-level pre-Lie product
    given as prelie_on_basis(a, b) -> {basis_key: Fraction}.

    x{} = x; x{u} = x <| u;
    x{u_1..u_n} = (x{u_1..u_{n-1}}) <| u_n - sum_i x{.., u_i <| u_n, ..}.
    """
    args = tuple(args)
    if not args:
        return {x: Fraction(1)}
    if len(args) == 1:
        return dict(prelie_on_basis(x, args[0]))
    head, last = args[:-1], args[-1]
    out: dict = {}
    for s, c in oudom_guin_brace(prelie_on_basis, x, head).items():
        for r, d in prelie_on_basis(s, last).items():
            out[r] = out.get(r, Fraction(0)) + c * d
    for i in range(len(head)):
        for s, c in prelie_on_basis(head[i], last).items():
            sub = oudom_guin_brace(prelie_on_basis, x,
                                   head[:i] + (s,) + head[i + 1:])
            for r, d in sub.items():
                out[r] = out.get(r, Fraction(0)) - c * d
    return {r: c for r, c in out.items() if c}


# ---------------------------------------------------------------------------
# the Grossman-Larson product

def brute_gl_product(fa: Forest, fb: Forest) -> dict:
    """fa * fb as the sum over all maps sending each tree of fb below some
    vertex of fa or to a new component of its own.  Returns {Forest: int}."""
    lf = LabeledForest(fa)
    n, children, args = lf.n, lf.children, fb.trees
    out: dict = {}
    for targets in product(range(n + 1), repeat=len(args)):  # n: new component

        def build(v: int) -> RootedTree:
            extra = tuple(args[i] for i in range(len(args)) if targets[i] == v)
            return RootedTree(tuple(build(c) for c in children[v]) + extra)

        new = tuple(args[i] for i in range(len(args)) if targets[i] == n)
        f = Forest(tuple(build(r) for r in lf.roots) + new)
        out[f] = out.get(f, 0) + 1
    return out


def _ordered_set_partitions(items: tuple):
    """Every ordered set partition of items, first block chosen first."""
    if not items:
        yield ()
        return
    for r in range(1, len(items) + 1):
        for first in combinations(range(len(items)), r):
            rest = tuple(x for i, x in enumerate(items) if i not in first)
            for tail in _ordered_set_partitions(rest):
                yield (tuple(items[i] for i in first),) + tail


def brute_sol1(f: Forest, gl_on_basis) -> dict:
    """sol1(f) = sum over ordered set partitions (I1..Ik) of the positions of
    f's trees of ((-1)^(k-1)/k) f_I1 * ... * f_Ik, the Grossman-Larson
    product given as gl_on_basis(forest, forest) -> {forest: coeff} and
    chained left to right, one partition at a time."""
    out: dict = {}
    for blocks in _ordered_set_partitions(tuple(range(len(f.trees)))):
        if not blocks:
            continue  # sol1(1) = 0
        forests = [Forest(tuple(f.trees[i] for i in b)) for b in blocks]
        chain = {forests[0]: Fraction(1)}
        for g in forests[1:]:
            nxt: dict = {}
            for x, c in chain.items():
                for r, d in gl_on_basis(x, g).items():
                    nxt[r] = nxt.get(r, 0) + c * d
            chain = nxt
        k = len(blocks)
        for r, c in chain.items():
            out[r] = out.get(r, 0) + Fraction((-1) ** (k - 1), k) * c
    return {r: c for r, c in out.items() if c}


# ---------------------------------------------------------------------------
# set partitions and the non-crossing filter

def brute_set_partitions(n: int):
    """All set partitions of [n], grown element by element."""
    parts = [[]]
    for e in range(1, n + 1):
        nxt = []
        for p in parts:
            for i in range(len(p)):
                nxt.append([b + [e] if j == i else b for j, b in enumerate(p)])
            nxt.append(p + [[e]])
        parts = nxt
    return [tuple(tuple(b) for b in p) for p in parts]


def is_noncrossing_by_interval_peeling(blocks) -> bool:
    """A partition is non-crossing iff it can be destroyed by repeatedly
    removing a block that occupies consecutive remaining positions."""
    remaining = [set(b) for b in blocks]
    alive = sorted({e for b in remaining for e in b})
    while remaining:
        for i, b in enumerate(remaining):
            positions = sorted(alive.index(e) for e in b)
            if positions[-1] - positions[0] + 1 == len(positions):
                alive = [e for e in alive if e not in b]
                remaining.pop(i)
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# cumulant partition sums, term by term in Fractions

@cache
def _brute_nc(n: int) -> tuple:
    return tuple(p for p in brute_set_partitions(n)
                 if is_noncrossing_by_interval_peeling(p))


def _nesting_by_spans(blocks) -> Forest:
    """Nesting forest: each block hangs below the narrowest block whose span
    strictly encloses its own."""
    spans = [(min(b), max(b)) for b in blocks]
    parent = [min((j for j, (lo, hi) in enumerate(spans)
                   if lo < spans[i][0] and spans[i][1] < hi),
                  key=lambda j: spans[j][1] - spans[j][0], default=None)
              for i in range(len(spans))]

    def build(i) -> RootedTree:
        return RootedTree(tuple(build(j) for j in range(len(spans))
                                if parent[j] == i))

    return Forest(tuple(build(i) for i in range(len(spans))
                        if parent[i] is None))


def brute_partition_sum(values: dict, w: str, pair: tuple) -> Fraction:
    """The ``nc._SUMS`` sum for ``pair`` at the word w: over the filtered
    non-crossing set partitions of [|w|], the weight times the product of
    the values of w restricted to the blocks, one Fraction term at a time."""
    which, signed, statistic = _SUMS[pair]
    n = len(w)
    total = Fraction(0)
    for blocks in _brute_nc(n):
        if which == "irreducible" and not any(1 in b and n in b for b in blocks):
            continue
        if which == "interval" and any(max(b) - min(b) + 1 != len(b)
                                       for b in blocks):
            continue
        term = Fraction(statistic(_nesting_by_spans(blocks)) if statistic else 1)
        if signed and len(blocks) % 2 == 0:
            term = -term
        for b in blocks:
            term *= Fraction(values["".join(w[i - 1] for i in sorted(b))])
        total += term
    return total
