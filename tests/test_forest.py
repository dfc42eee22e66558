import gc
import weakref
from collections import Counter

import pytest

import oracles
import prelie.forest
from prelie import checks, cli, freeprelie, words
from prelie.forest import (
    CKBasis, DecoratedTree, WordBasis, decorated_string,
    enumerate_decorated_trees, forest_formula, lambda_coeff, leaf,
    slot_counts, sym,
)
from prelie.lincomb import iterate_coproduct, project
from prelie.trees import LEAF, RootedTree, enumerate_trees

CHAIN2 = RootedTree((LEAF,))
CHERRY = RootedTree((LEAF, LEAF))


# ---------------------------------------------------------------------------
# decorated-tree enumeration

def test_enumeration_on_a_primitive_index():
    ck = CKBasis()
    i_dot = ck.index_of(LEAF)
    assert enumerate_decorated_trees(i_dot, ck) == ((leaf(i_dot), 1),)

    wb = WordBasis("ab")
    i_ab = wb.index_of("ab")
    assert enumerate_decorated_trees(i_ab, wb) == ((leaf(i_ab), 1),)


def test_enumeration_on_the_2_chain():
    ck = CKBasis()
    i2 = ck.index_of(CHAIN2)
    i1 = ck.index_of(LEAF)
    got = dict(enumerate_decorated_trees(i2, ck))
    assert got == {
        leaf(i2): 1,
        DecoratedTree(i2, i1, (leaf(i1),)): 1,
    }


def test_enumeration_grade_bound():
    # every vertex consumes grade, so no decorated tree outgrows its index
    ck = CKBasis()
    for n in range(1, 5):
        for t in enumerate_trees(n):
            for T, lam in enumerate_decorated_trees(ck.index_of(t), ck):
                assert _vertex_count(T) <= n
                assert lam != 0


def _vertex_count(T):
    return 1 + sum(_vertex_count(c) for c in T.children)


# ---------------------------------------------------------------------------
# symmetry factors and lambda coefficients

def test_sym_counts_repeats_within_same_top_index():
    ck = CKBasis()
    i1 = ck.index_of(LEAF)
    i2 = ck.index_of(CHAIN2)
    a = leaf(i1)
    assert sym(()) == 1
    assert sym((a,)) == 1
    assert sym((a, a)) == 1          # identical trees: one orbit
    assert sym((a, a, a)) == 1
    c = leaf(i2)
    d = DecoratedTree(i2, i1, (leaf(i1),))
    assert c.d1 == d.d1
    assert sym((c, d)) == 2          # distinct trees sharing a top index
    assert sym((a, c, d)) == 2       # the i1 class contributes 1, the i2 class 2
    assert sym((c, c, d)) == 3       # multinomial 3!/(2!1!)


class _KeylessChild:
    """A child with a root index and no key to hash."""

    def __init__(self, d1):
        self.d1 = d1

    @property
    def key(self):
        raise AssertionError("a class of one child had its key read")


def test_sym_reads_no_key_of_a_class_of_one():
    ck = CKBasis()
    i1, i2 = ck.index_of(LEAF), ck.index_of(CHAIN2)
    assert sym((_KeylessChild(i1), _KeylessChild(i2))) == 1
    c, d = leaf(i2), DecoratedTree(i2, i1, (leaf(i1),))
    assert sym((_KeylessChild(i1), c, d)) == 2


def test_lambda_on_the_13_vertex_example():
    # t = B+(cherry, B+(2-chain, ., ., .), cherry); the decorated tree cuts
    # down to the bare root, regrows the 6-vertex branch from a cherry and a
    # cherry from two single vertices.  lambda = 1 (root cut) * 2 (two
    # distinct subtrees share the cherry index) * 3 (which leaf of the
    # 6-vertex branch survives) * 1 = 6
    ck = CKBasis()
    t = RootedTree((
        CHERRY,
        RootedTree((CHAIN2, LEAF, LEAF, LEAF)),
        CHERRY,
    ))
    assert t.size == 13
    i = ck.index_of(t)
    i0 = ck.index_of(LEAF)
    i1 = ck.index_of(CHERRY)
    i2 = ck.index_of(RootedTree((CHAIN2, LEAF, LEAF, LEAF)))
    i3 = ck.index_of(CHAIN2)
    T = DecoratedTree(i, i0, (
        leaf(i1),
        DecoratedTree(i2, i1, (leaf(i3), leaf(i0))),
        DecoratedTree(i1, i0, (leaf(i0), leaf(i0))),
    ))
    assert lambda_coeff(T, ck) == 6


def test_lambda_zero_when_not_a_coproduct_term():
    ck = CKBasis()
    i1 = ck.index_of(LEAF)
    i2 = ck.index_of(CHAIN2)
    # delta_bar of the 2-chain never produces trunk=2-chain
    T = DecoratedTree(i2, i2, (leaf(i1),))
    assert lambda_coeff(T, ck) == 0


def test_lambda_positive_on_enumerated_trees():
    ck = CKBasis()
    wb = WordBasis("ab")
    for n in range(1, 5):
        for t in enumerate_trees(n):
            for T, lam in enumerate_decorated_trees(ck.index_of(t), ck):
                assert lam > 0
                assert lambda_coeff(T, ck) == lam
        for w in words.enumerate_words("ab", n):
            for T, lam in enumerate_decorated_trees(wb.index_of(w), wb):
                assert lam > 0
                assert lambda_coeff(T, wb) == lam


# ---------------------------------------------------------------------------
# the formula against direct iterated coproducts

def test_primitive_reduced_is_empty():
    ck = CKBasis()
    assert forest_formula(ck.index_of(LEAF), 2, ck)[2]["reduced"] == {}
    wb = WordBasis("ab")
    assert forest_formula(wb.index_of("ab"), 2, wb)[2]["reduced"] == {}


def test_cherry_irr_k2():
    ck = CKBasis()
    out = forest_formula(ck.index_of(CHERRY), 2, ck)[2]["irr"]
    key = ((ck.index_of(CHAIN2),), (ck.index_of(LEAF),))
    assert out == {key: 2}


def test_word_abc_reduced_k2():
    wb = WordBasis("abc")
    out = forest_formula(wb.index_of("abc"), 2, wb)[2]["reduced"]
    key = ((wb.index_of("ac"),), (wb.index_of("b"),))
    assert out == {key: 1}


def test_ck_formula_matches_direct_iterates():
    ck = CKBasis()
    for n in range(1, 5):
        for t in enumerate_trees(n):
            i = ck.index_of(t)
            iterates = freeprelie.coproduct_iterates(t, 3)
            for k in (2, 3):
                for flavor in ("full", "reduced", "irr"):
                    got = ck.slot_tensor(
                        forest_formula(i, k, ck)[k][flavor], k)
                    assert got == project(iterates[k - 1], flavor), \
                        (t.key, k, flavor)


def test_word_formula_matches_direct_iterates():
    wb = WordBasis("ab")
    for n in range(1, 5):
        for w in words.enumerate_words("ab", n):
            i = wb.index_of(w)
            iterates = words.word_coproduct_iterates(
                words.WordPoly({(w,): 1}), 3)
            for k in (2, 3):
                for flavor in ("full", "reduced", "irr"):
                    got = wb.slot_tensor(
                        forest_formula(i, k, wb)[k][flavor], k)
                    assert got == project(iterates[k - 1], flavor), \
                        (w, k, flavor)


def test_word_formula_through_length_six():
    # the two-letter sweep up to length 6; long words only, short ones are
    # covered above
    wb = WordBasis("ab")
    for n in (5, 6):
        for w in words.enumerate_words("ab", n):
            i = wb.index_of(w)
            iterates = words.word_coproduct_iterates(
                words.WordPoly({(w,): 1}), 4)
            for k in (2, 3, 4):
                for flavor in ("full", "reduced", "irr"):
                    got = wb.slot_tensor(
                        forest_formula(i, k, wb)[k][flavor], k)
                    assert got == project(iterates[k - 1], flavor), \
                        (w, k, flavor)


def test_full_flavor_decomposes_into_embedded_reduced():
    # full is assembled from the reduced sums pushed along increasing
    # injections; a weak k-linearization factors uniquely through its image,
    # so the result must be the lambda-weighted fills of every brute-force
    # strictly increasing map into 1..k
    ck = CKBasis()
    wb = WordBasis("ab")
    jobs = [(ck, ck.index_of(t)) for n in (1, 2, 3, 4)
            for t in enumerate_trees(n)]
    jobs += [(wb, wb.index_of(w)) for n in (1, 2, 3, 4)
             for w in words.enumerate_words("ab", n)]
    for basis, i in jobs:
        for k in (2, 3):
            want = Counter()
            for T, lam in enumerate_decorated_trees(i, basis):
                d2s, parents = _preorder(T)
                for vals in oracles.brute_slot_maps(parents, k, "full"):
                    slots = [[] for _ in range(k)]
                    for d2, v in zip(d2s, vals):
                        slots[v - 1].append(d2)
                    want[tuple(tuple(sorted(s)) for s in slots)] += lam
            want = {slots: c for slots, c in want.items() if c}
            assert forest_formula(i, k, basis)[k]["full"] == want, (i, k)


def test_grade_is_conserved_termwise():
    ck = CKBasis()
    i = ck.index_of(CHERRY)
    for flavor in ("full", "reduced", "irr"):
        for slots, c in forest_formula(i, 3, ck)[3][flavor].items():
            assert sum(j[0] for slot in slots for j in slot) == 3
            assert c != 0


def test_symmetry_factor_is_load_bearing(monkeypatch):
    # B+(2-chain, 2-chain) owns a decorated tree with a repeated-class orbit;
    # collapsing sym to 1 must change the k=3 reduced output
    t = RootedTree((CHAIN2, CHAIN2))
    fresh = CKBasis()
    i = fresh.index_of(t)
    honest = forest_formula(i, 3, fresh)[3]["reduced"]

    monkeypatch.setattr(prelie.forest, "sym", lambda children: 1)
    broken_basis = CKBasis()
    broken = forest_formula(
        broken_basis.index_of(t), 3, broken_basis)[3]["reduced"]
    assert broken != honest

    monkeypatch.undo()
    again = CKBasis()
    assert forest_formula(again.index_of(t), 3, again)[3]["reduced"] == honest
    assert fresh.slot_tensor(honest, 3) == project(
        freeprelie.coproduct_iterates(t, 3)[2], "reduced")


# ---------------------------------------------------------------------------
# slot maps

def _preorder(T):
    """d2 decorations and parent positions of T's vertices, in preorder."""
    d2s, parents = [], []

    def walk(v, parent):
        parents.append(parent)
        pos = len(d2s)
        d2s.append(v.d2)
        for c in v.children:
            walk(c, pos)

    walk(T, -1)
    return d2s, tuple(parents)


def test_slot_counts_match_brute_force_through_one_shared_memo():
    # one process-wide cache of onto maps for every tree and j: a cache keyed
    # without j would hand one call the maps of another.  One call's walk
    # must credit every k <= K and each flavor with exactly the
    # lambda-weighted fills of that flavor's brute-force maps: at K = 4, at
    # K = 1, and at K past the index's grade, where reduced and irr are empty
    # and full holds only unit insertions
    prelie.forest._onto_maps.cache_clear()
    ck, wb = CKBasis(), WordBasis("ab")
    jobs = [(ck, ck.index_of(t)) for n in range(1, 6)
            for t in enumerate_trees(n)]
    jobs += [(wb, wb.index_of(w)) for n in range(1, 5)
             for w in words.enumerate_words("ab", n)]
    flavors = ("full", "reduced", "irr")
    shapes = set()
    past_grade = 0
    for basis, i in jobs:
        Ks = (1, 4, i[0] + 2) if i[0] <= 3 else (1, 4)
        sums = {(k, flavor): Counter() for k in range(1, max(Ks) + 1)
                for flavor in flavors}
        for T, lam in enumerate_decorated_trees(i, basis):
            d2s, parents = _preorder(T)
            shapes.add(parents)
            for k, flavor in sums:
                want = Counter()
                for vals in oracles.brute_slot_maps(parents, k, flavor):
                    slots = [[] for _ in range(k)]
                    for d2, v in zip(d2s, vals):
                        slots[v - 1].append(d2)
                    want[tuple(tuple(sorted(s)) for s in slots)] += 1
                where = (decorated_string(T, basis), k, flavor)
                assert slot_counts(T, k, flavor) == want, where
                for slots, m in want.items():
                    sums[k, flavor][slots] += lam * m
        for K in Ks:
            got = forest_formula(i, K, basis)
            assert list(got) == list(range(1, K + 1)), (basis.label(i), K)
            for k in got:
                for flavor in flavors:
                    want = {slots: c for slots, c in sums[k, flavor].items()
                            if c}
                    assert got[k][flavor] == want, \
                        (basis.label(i), K, k, flavor)
                if k > i[0]:
                    past_grade += 1
                    assert got[k]["reduced"] == got[k]["irr"] == {}
                    assert got[k]["full"]
                    assert all(() in slots for slots in got[k]["full"])
    assert past_grade > 50
    # one entry per shape and j = 1..min(4, vertices): j never exceeds 4,
    # and K past 4 only reaches indices of grade 3 or less
    assert prelie.forest._onto_maps.cache_info().currsize == sum(
        min(4, len(parents)) for parents in shapes)


def test_forest_suite_walks_each_index_once(monkeypatch, capsys):
    # every k of an element comes from one walk over its decorated trees,
    # which fills each (decorated tree, j) once; one call per k = 2, 3, 4
    # made 441 walks and 24,566 fills at order 7
    walks, fills = Counter(), [0]
    formula = prelie.forest.forest_formula
    onto_fills = prelie.forest._onto_fills

    def counted_formula(i, K, basis):
        walks[type(basis).__name__, i] += 1
        return formula(i, K, basis)

    def counted_fills(flat, j):
        for slots in onto_fills(flat, j):
            fills[0] += 1
            yield slots

    monkeypatch.setattr(prelie.forest, "forest_formula", counted_formula)
    monkeypatch.setattr(prelie.forest, "_onto_fills", counted_fills)
    assert cli.main(["verify", "--suite", "forest", "--max-order", "7"]) == 0
    assert capsys.readouterr().out.count("PASS ") == 2
    assert len(walks) == sum(walks.values()) == 147  # 85 trees, 62 words
    assert fills[0] == 17276


def _raise(*args):
    raise AssertionError("the direct side reached the forest formula")


def test_direct_iterates_read_no_forest_formula(monkeypatch):
    # the suite's direct side iterates each monomial's full coproduct in
    # index space; it reads neither the formula, the decorated trees, the
    # onto maps nor delta_bar, and converted back to native monomials it is
    # the layer's own left iteration
    for name in ("forest_formula", "enumerate_decorated_trees", "_onto_maps"):
        monkeypatch.setattr(prelie.forest, name, _raise)
    monkeypatch.setattr(prelie.forest.BasisProvider, "delta_bar", _raise)
    ck, wb = CKBasis(), WordBasis("ab")
    jobs = [(ck, t, freeprelie.coproduct_iterates(t, 4))
            for n in range(1, 6) for t in enumerate_trees(n)]
    jobs += [(wb, w, words.word_coproduct_iterates(
                 words.WordPoly({(w,): 1}), 4))
             for n in range(1, 6) for w in words.enumerate_words("ab", n)]
    terms = 0
    for basis, x, native in jobs:
        direct = iterate_coproduct(
            basis.slot_coproduct, {(basis.index_of(x),): 1}, 4)
        assert [d.arity for d in direct] == [1, 2, 3, 4]
        for k, d in enumerate(direct, 1):
            assert basis.slot_tensor(d.terms, k) == native[k - 1], (x, k)
            terms += len(d.terms)
    assert terms > 5000


def _swap_grade_3(slot):
    # trade the two grade-3 indices (3, 0) and (3, 1) within one slot
    swap = {(3, 0): (3, 1), (3, 1): (3, 0)}
    return tuple(sorted(swap.get(j, j) for j in slot))


@pytest.mark.parametrize("make, key, name", [
    (CKBasis, "tree", "ck-forest-formula-vs-direct"),
    (lambda: WordBasis("ab"), "word", "word-forest-formula-vs-direct"),
])
def test_forest_suite_catches_a_wrong_relabelling(monkeypatch, make, key,
                                                  name):
    # a direct side whose relabelling to indices trades two grade-3
    # elements must fail on an element of grade 3 or more, while the other
    # basis still passes
    slot_coproduct = prelie.forest.BasisProvider.slot_coproduct

    def swapped(self, slot):
        return {(_swap_grade_3(a), _swap_grade_3(b)): c
                for (a, b), c in slot_coproduct(self, slot).items()}

    monkeypatch.setattr(type(make()), "slot_coproduct", swapped)
    failures = {n: failure for n, _, failure in checks.run("forest", 4)}
    failed = failures.pop(name)["instance"]
    assert make().index_grade(failed[key]) >= 3, failed
    assert list(failures.values()) == [None]


def _irr_from_every_tree(i, K, basis):
    return {k: dict(out, irr=out["reduced"])
            for k, out in forest_formula(i, K, basis).items()}


@pytest.mark.parametrize("flavor, patch", [
    # irr summed over the trees of every size, not only those with k vertices
    ("irr", lambda monkeypatch: monkeypatch.setattr(
        prelie.forest, "forest_formula", _irr_from_every_tree)),
    # reduced summed over every map into 1..k, not only the onto ones
    ("reduced", lambda monkeypatch: monkeypatch.setattr(
        prelie.forest, "_onto_maps",
        lambda parents, j: oracles.brute_slot_maps(parents, j, "full"))),
])
def test_forest_suite_catches_a_wrong_map_filter(monkeypatch, flavor, patch):
    # the three flavors share one direct iterate per (t, k), and every k one
    # forest-formula call per t; a forest side summing over the wrong maps or
    # trees must still fail its own comparison.  The patch replaces the
    # cached _onto_maps whole, so no map cached by an earlier call can hide it
    patch(monkeypatch)
    failures = {name: failure for name, _, failure in checks.run("forest", 4)}
    for name in ("ck-forest-formula-vs-direct", "word-forest-formula-vs-direct"):
        assert failures[name]["instance"]["flavor"] == flavor, name


# ---------------------------------------------------------------------------
# providers and guards

def test_a_basis_is_freed_without_the_cycle_collector():
    # the slot and coproduct tables are plain dicts of monomials and of
    # index tuples on the basis, which hold no reference back to it, so a
    # basis and everything it cached go as soon as the last reference does
    gc.disable()
    try:
        for make, label in ((CKBasis, "[[]]"),
                            (lambda: WordBasis("ab"), "ab")):
            basis = make()
            i = basis.parse(label)
            basis.slot_tensor(forest_formula(i, 2, basis)[2]["full"], 2)
            iterate_coproduct(basis.slot_coproduct, {(i,): 1}, 3)
            assert basis._slot_cache and basis._coproduct_cache
            ref = weakref.ref(basis)
            del basis
            assert ref() is None, label
    finally:
        gc.enable()


def test_slot_table_converts_each_new_slot_once():
    # a second call with overlapping slots converts only the slots it adds,
    # and both tensors equal those of a basis that has converted nothing
    for make, label in ((CKBasis, "[[[]][]]"),
                        (lambda: WordBasis("ab"), "abab")):
        basis, converted = make(), Counter()
        element = basis._slot_element

        def counted_element(slot):
            converted[slot] += 1
            return element(slot)

        basis._slot_element = counted_element
        by_k = forest_formula(basis.parse(label), 3, basis)
        first, second = by_k[3]["reduced"], by_k[2]["full"]
        old = {slot for slots in first for slot in slots}
        new = {slot for slots in second for slot in slots}
        assert old & new and new - old
        got = basis.slot_tensor(first, 3)
        assert basis._slot_cache.keys() == converted.keys() == old
        assert got == make().slot_tensor(first, 3)
        got = basis.slot_tensor(second, 2)
        assert basis._slot_cache.keys() == converted.keys() == old | new
        assert set(converted.values()) == {1}
        assert got == make().slot_tensor(second, 2)


def test_index_validation():
    ck = CKBasis()
    with pytest.raises(ValueError):
        ck.validate((1, 5))
    with pytest.raises(ValueError):
        ck.validate((0, 0))
    wb = WordBasis("ab")
    with pytest.raises(ValueError):
        wb.validate((2, 4))
    # the parts of an index are ints
    for basis in (ck, wb):
        for i in (("a", 0), (1.5, 0), (1, 0.0), (True, 0)):
            with pytest.raises(ValueError):
                basis.validate(i)
    with pytest.raises(ValueError):
        wb.index_of("ax")
    with pytest.raises(ValueError):
        WordBasis("aa")


def test_bad_indices_raise_where_they_are_decoded():
    # delta_bar validates no index of its own: decoding it as a tree or a
    # word does; label checks it before it renders.  A fresh basis each
    # time, so no cached enumeration answers first
    for make, out_of_range in ((CKBasis, (3, 2)),
                               (lambda: WordBasis("ab"), (2, 4))):
        for i in (out_of_range, (1, "0"), (1.5, 0)):
            for call in (lambda b, i: b.delta_bar(i),
                         lambda b, i: enumerate_decorated_trees(i, b),
                         lambda b, i: b.label(i)):
                with pytest.raises(ValueError):
                    call(make(), i)
    # the enumeration validates before its cache: a basis that has
    # enumerated (3, 0), and so (2, 0) and (1, 0), rejects the indices that
    # hash and compare equal to those two
    for basis in (CKBasis(), WordBasis("ab")):
        assert len(enumerate_decorated_trees((3, 0), basis)) > 1
        for i in ((2, 0.0), (2.0, 0), (True, 0), (1, False)):
            with pytest.raises(ValueError):
                enumerate_decorated_trees(i, basis)


def test_index_label_parse_round_trip():
    # both spellings of an index read back to it, and give its grade
    ck = CKBasis()
    for n in range(1, 5):
        for t in enumerate_trees(n):
            i = ck.index_of(t)
            assert i[0] == n
            assert ck.parse(ck.label(i)) == i
            assert ck.tree(i) == t
            for text in (ck.label(i), "%d:%d" % i):
                assert ck.index_grade(text) == n and ck.read_index(text) == i
    wb = WordBasis("ab")
    for n in range(1, 4):
        for w in words.enumerate_words("ab", n):
            i = wb.index_of(w)
            assert i[0] == n
            assert wb.parse(wb.label(i)) == i
            assert wb.word(i) == w
            for text in (wb.label(i), "%d:%d" % i):
                assert wb.index_grade(text) == n and wb.read_index(text) == i


def test_decorated_tree_constructor_guards():
    with pytest.raises(ValueError):
        DecoratedTree((1, 0), (2, 0))  # a leaf carries a single index
    ck = CKBasis()
    i1 = ck.index_of(LEAF)
    T = DecoratedTree((2, 0), i1, (leaf(i1),))
    assert decorated_string(leaf(i1), ck) == "([])"
    assert decorated_string(T, ck) == "([[]];[])[([])]"


def test_formula_argument_guards():
    ck = CKBasis()
    i = ck.index_of(LEAF)
    with pytest.raises(ValueError):
        forest_formula(i, 0, ck)
