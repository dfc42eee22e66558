import json
import random
from fractions import Fraction

import pytest

import oracles
from prelie import nc, words
from prelie.freeprelie import magnus_fixed_point, prelie_exp
from prelie.nc import (
    BRANDS, CumulantTable, NCPartition, _SUMS, convert, enumerate_nc,
    forest_factorial, forest_omega, iter_words, nesting_forest,
)
from prelie.trees import LEAF, RootedTree, murua_omega
from prelie.words import WordPoly, word_prelie_series

CHAIN2 = RootedTree((LEAF,))
CHERRY = RootedTree((LEAF, LEAF))


# ---------------------------------------------------------------------------
# the non-crossing lattice

def test_counts_match_catalan_two_ways():
    table = oracles.catalan_by_convolution(7)
    for n in range(1, 8):
        all_nc = enumerate_nc(n)
        assert len(all_nc) == oracles.catalan(n)
        assert len(all_nc) == table[n]
        assert sum(p.is_irreducible() for p in all_nc) == oracles.catalan(n - 1)
        assert sum(p.is_interval() for p in all_nc) == 2 ** (n - 1)


def test_enumeration_matches_filtered_set_partitions():
    for n in range(1, 7):
        brute = {tuple(sorted(tuple(sorted(b)) for b in pi))
                 for pi in oracles.brute_set_partitions(n)
                 if oracles.is_noncrossing_by_interval_peeling(pi)}
        got = {tuple(sorted(tuple(sorted(b)) for b in pi.blocks))
               for pi in enumerate_nc(n)}
        assert got == brute


def test_irreducible_and_interval_split():
    # the two filters against the filtered set partitions: 1 and n share a
    # block, and every block is a run of consecutive integers
    for n in range(1, 7):
        brute = [tuple(sorted(tuple(sorted(b)) for b in pi))
                 for pi in oracles.brute_set_partitions(n)
                 if oracles.is_noncrossing_by_interval_peeling(pi)]
        all_nc = enumerate_nc(n)
        assert sorted(p.blocks for p in all_nc if p.is_irreducible()) == \
            sorted(pi for pi in brute if any(1 in b and n in b for b in pi))
        assert sorted(p.blocks for p in all_nc if p.is_interval()) == \
            sorted(pi for pi in brute
                   if all(b[-1] - b[0] + 1 == len(b) for b in pi))


def test_partition_validation():
    with pytest.raises(ValueError):
        NCPartition(((1, 3), (2, 4)))  # crossing
    with pytest.raises(ValueError):
        NCPartition(((1, 2), (2, 3)))  # element reused
    with pytest.raises(ValueError):
        NCPartition(((1, 2), (4,)))    # 3 missing
    with pytest.raises(ValueError):
        NCPartition(())                # no block: n would be 0
    with pytest.raises(ValueError):
        NCPartition([()])              # an empty block
    with pytest.raises(ValueError):
        NCPartition([(1,), ()])
    with pytest.raises(ValueError):
        enumerate_nc(0)
    pi = NCPartition(((2,), (1, 3)))
    assert pi.blocks == ((1, 3), (2,))  # blocks sort by minimum


# ---------------------------------------------------------------------------
# nesting forests

def test_nesting_fixtures():
    f = nesting_forest(NCPartition(((1, 3), (2,))))
    assert f.trees == (CHAIN2,)
    f = nesting_forest(NCPartition(((1, 4), (2,), (3,))))
    assert f.trees == (CHERRY,)
    f = nesting_forest(NCPartition(((1, 6), (2, 5), (3,), (4,))))
    assert f.trees == (RootedTree((CHERRY,)),)


def test_enumerated_blocks_are_valid_partitions():
    # the compiled sums read the enumeration's block tuples without building
    # an NCPartition; every one must pass its validation unchanged
    for n in range(1, 9):
        for blocks in nc._nc_blocks(n):
            pi = NCPartition(blocks)
            assert pi.blocks == blocks and pi.n == n
            assert nc._irreducible(blocks, n) == pi.is_irreducible() \
                == (n in blocks[0])
            assert nc._interval(blocks, n) == pi.is_interval() == all(
                set(b) == set(range(b[0], b[-1] + 1)) for b in blocks)


@pytest.mark.parametrize("pair", sorted(_SUMS), ids="->".join)
def test_compiled_sums_follow_the_partition_list(pair):
    # the terms, in order, of the sum over enumerate_nc's NCPartitions
    which, signed, statistic = _SUMS[pair]
    for n in range(1, 8):
        want = []
        for pi in enumerate_nc(n):
            if which == "interval" and not pi.is_interval() or \
                    which == "irreducible" and not pi.is_irreducible():
                continue
            c = Fraction(statistic(nesting_forest(pi)) if statistic else 1)
            c = -c if signed and len(pi) % 2 == 0 else c
            if c:
                want.append((pi.blocks, c))
        blocks, L, terms = nc._terms(n, pair)
        got = [(tuple(tuple(i + 1 for i in blocks[j]) for j in ids),
                Fraction(c, L)) for ids, c, _ in terms]
        assert got == want


def test_nesting_invariants():
    for n in range(1, 7):
        for pi in enumerate_nc(n):
            f = nesting_forest(pi)
            assert f == oracles._nesting_by_spans(pi.blocks)
            assert sum(t.size for t in f.trees) == len(pi)
            if pi.is_interval():
                assert all(t == LEAF for t in f.trees)
            if pi.is_irreducible():
                assert len(f.trees) == 1
        one_block = NCPartition((tuple(range(1, n + 1)),))
        assert nesting_forest(one_block).trees == (LEAF,)


def test_forest_statistics():
    f = nesting_forest(NCPartition(((1, 6), (2, 5), (3,), (4,))))
    assert forest_factorial(f) == 4 * 3  # 4-vertex tree, factorial 12
    assert forest_omega(f) == murua_omega(RootedTree((CHERRY,)))


# ---------------------------------------------------------------------------
# cumulant tables

def _table(brand, values, maxlen=4, variables=("a",)):
    return CumulantTable(brand, variables, maxlen, values)


def test_table_completeness_check():
    with pytest.raises(ValueError) as err:
        _table("free", {"a": Fraction(1)}, maxlen=2)
    assert "missing 1 word" in str(err.value)
    assert "aa" in str(err.value)


@pytest.mark.parametrize("maxlen", [True, 1.5, 2.0, "2"])
def test_table_rejects_non_integer_maxlen(maxlen):
    with pytest.raises(ValueError, match='"maxlen" must be an integer'):
        _table("free", {w: Fraction(1) for w in iter_words(("a",), 2)},
               maxlen=maxlen)


def test_table_json_round_trip():
    values = {w: Fraction(1, 1 + len(w)) for w in iter_words(("a", "b"), 3)}
    t = CumulantTable("boolean", ("a", "b"), 3, values)
    data = json.loads(json.dumps(t.to_json()))
    assert CumulantTable.from_json(data) == t
    assert data["brand"] == "boolean"


def test_semicircular_free_cumulants_give_catalan_moments():
    values = {w: Fraction(1 if len(w) == 2 else 0)
              for w in iter_words(("a",), 6)}
    m = convert(_table("free", values, maxlen=6), "moment")
    assert [m.values["a" * n] for n in range(1, 7)] == [0, 1, 0, 2, 0, 5]


def test_boolean_pair_cumulants_count_interval_pairings():
    values = {w: Fraction(1 if len(w) == 2 else 0)
              for w in iter_words(("a",), 6)}
    m = convert(_table("boolean", values, maxlen=6), "moment")
    # only the nested-interval pair partition survives at each even order
    assert [m.values["a" * n] for n in range(1, 7)] == [0, 1, 0, 1, 0, 1]


def test_monotone_pair_to_boolean_fixture():
    values = {w: Fraction(1 if len(w) == 2 else 0)
              for w in iter_words(("a",), 4)}
    b = convert(_table("monotone", values, maxlen=4), "boolean")
    assert b.values["aa"] == 1
    assert b.values["aaa"] == 0
    assert b.values["aaaa"] == Fraction(1, 2)


def test_identity_conversion_copies():
    values = {w: Fraction(len(w), 3) for w in iter_words(("a",), 3)}
    t = _table("free", values, maxlen=3)
    out = convert(t, "free")
    assert out == t and out is not t


def test_round_trips_and_route_agreement():
    rng = random.Random(7)
    variables = ("a", "b")
    N = 4
    tables = {}
    for brand in BRANDS:
        tables[brand] = CumulantTable(brand, variables, N, {
            w: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for w in iter_words(variables, N)})
    for source in BRANDS:
        for target in BRANDS:
            direct = convert(tables[source], target)
            via = convert(tables[source], target, route="via-moments")
            assert direct == via, (source, target)
            back = convert(direct, source)
            assert back == tables[source], (source, target)


def test_bad_route_and_brand():
    t = _table("free", {w: Fraction(0) for w in iter_words(("a",), 2)}, maxlen=2)
    with pytest.raises(ValueError):
        convert(t, "free", route="bogus")
    with pytest.raises(ValueError):
        convert(t, "bogus")
    with pytest.raises(ValueError):
        CumulantTable("bogus", ("a",), 2,
                      {w: Fraction(0) for w in iter_words(("a",), 2)})


# ---------------------------------------------------------------------------
# exp and Magnus of a table in the insertion pre-Lie algebra of words

def _series(values: dict, sign: int) -> WordPoly:
    """The linear form on words as the series sum sign * values[w] w."""
    return WordPoly({(w,): sign * v for w, v in values.items()})


def word_exp(values: dict, maxlen: int, sign: int = 1) -> WordPoly:
    return prelie_exp(_series(values, sign), maxlen,
                      word_prelie_series)


def word_magnus(values: dict, maxlen: int, sign: int = 1) -> WordPoly:
    return magnus_fixed_point(_series(values, sign), maxlen,
                              word_prelie_series)


def test_exp_functional_low_order_shape():
    # aaa = aa <| a once, so exp picks up aaa + (1/2) aa <| a
    values = {w: Fraction(1) for w in iter_words(("a",), 3)}
    assert word_exp(values, 3).coeff(("aaa",)) == Fraction(1) + Fraction(1, 2)


def test_magnus_functional_low_order_shape():
    values = {w: Fraction(1) for w in iter_words(("a",), 4)}
    omega = word_magnus(values, 4)
    assert omega.coeff(("aa",)) == 1
    assert omega.coeff(("aaa",)) == Fraction(1) - Fraction(1, 2)
    # NC_irr(4): full block, three one-nesting copies, the double nesting
    assert omega.coeff(("aaaa",)) == \
        Fraction(1) - 3 * Fraction(1, 2) + Fraction(1, 6)


def test_functional_theorems_on_random_cumulants():
    rng = random.Random(13)
    variables = ("a", "b")
    N = 4
    rho = CumulantTable("monotone", variables, N, {
        w: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        for w in iter_words(variables, N)})
    exp_rho = word_exp(rho.values, N)
    minus_exp = word_exp(rho.values, N, -1)
    # beta = exp(rho), nu = -exp(-rho), rho = magnus(beta) = -magnus(-nu),
    # on both lattice routes
    for route in ("direct", "via-moments"):
        beta = convert(rho, "boolean", route)
        nu = convert(rho, "free", route)
        omega_beta = word_magnus(beta.values, N)
        minus_omega = word_magnus(nu.values, N, -1)
        for w in iter_words(variables, N):
            assert beta.values[w] == exp_rho.coeff((w,)), (route, w)
            assert nu.values[w] == -minus_exp.coeff((w,)), (route, w)
            assert rho.values[w] == omega_beta.coeff((w,)), (route, w)
            assert rho.values[w] == -minus_omega.coeff((w,)), (route, w)


def _route_called(*args, **kwargs):
    raise AssertionError("a route called the route it is checked against")


def test_word_and_lattice_routes_do_not_call_each_other(monkeypatch):
    tables = {brand: CumulantTable(brand, ("a", "b"), 5,
                                   _mixed_values(brand, maxlen=5))
              for brand in ("monotone", "boolean")}
    with monkeypatch.context() as m:
        m.setattr(nc, "_partition_sum", _route_called)
        with pytest.raises(AssertionError):  # the patch is in the path
            convert(tables["monotone"], "boolean")
        exp_rho = word_exp(tables["monotone"].values, 5)
        omega_beta = word_magnus(tables["boolean"].values, 5)
    with monkeypatch.context() as m:
        m.setattr(words, "word_prelie", _route_called)
        with pytest.raises(AssertionError):
            word_exp(tables["monotone"].values, 5)
        for route in ("direct", "via-moments"):
            beta = convert(tables["monotone"], "boolean", route)
            rho = convert(tables["boolean"], "monotone", route)
            for w in iter_words(("a", "b"), 5):
                assert exp_rho.coeff((w,)) == beta.values[w], (route, w)
                assert omega_beta.coeff((w,)) == rho.values[w], (route, w)


# ---------------------------------------------------------------------------
# the integer partition sums against the Fraction oracle

def _mixed_values(seed, variables=("a", "b"), maxlen=6) -> dict:
    """Zeros, plain ints and Fractions over small and large coprime
    denominators, one seeded draw per word."""
    rng = random.Random(seed)
    out = {}
    for w in iter_words(variables, maxlen):
        kind = rng.randrange(5)
        if kind == 0:
            out[w] = 0
        elif kind == 1:
            out[w] = rng.randint(-9, 9)
        else:
            out[w] = Fraction(rng.randint(-9, 9),
                              rng.choice((1, 2, 3, 4, 5, 999983, 1000003)))
    kinds = {type(v) for v in out.values()}
    assert kinds == {int, Fraction} and 0 in out.values()
    assert {999983, 1000003} <= {Fraction(v).denominator for v in out.values()}
    return out


@pytest.mark.parametrize("pair", sorted(_SUMS), ids="->".join)
def test_partition_sums_match_fraction_oracle(pair):
    source, target = pair
    values = _mixed_values(source + "->" + target)
    got = convert(CumulantTable(source, ("a", "b"), 6, values), target)
    for w in iter_words(("a", "b"), 6):
        assert got.values[w] == oracles.brute_partition_sum(values, w, pair), w


def test_functionals_match_fraction_oracle():
    # the word route against the independent brute-force partition sum
    values = _mixed_values(29)
    exp, omega = word_exp(values, 6), word_magnus(values, 6)
    for w in iter_words(("a", "b"), 6):
        assert exp.coeff((w,)) == oracles.brute_partition_sum(
            values, w, ("monotone", "boolean")), w
        assert omega.coeff((w,)) == oracles.brute_partition_sum(
            values, w, ("boolean", "monotone")), w


def test_moment_inversion_against_fraction_oracle():
    moments = CumulantTable("moment", ("a", "b"), 6, _mixed_values(31))
    for brand in ("free", "boolean", "monotone"):
        cumulants = convert(moments, brand)
        assert convert(cumulants, "moment") == moments
        for w in iter_words(("a", "b"), 6):
            assert oracles.brute_partition_sum(
                cumulants.values, w, (brand, "moment")) == moments.values[w]
