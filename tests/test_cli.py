import csv
import io
import json
from fractions import Fraction

import pytest

from prelie import checks, cli
from prelie.nc import CumulantTable, convert, iter_words


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# trees

def test_trees_json_table(capsys):
    code, out, err = run(capsys, "trees", "--max-order", "3")
    assert code == 0 and err == ""
    rows = {r["tree"]: r for r in json.loads(out)}
    assert rows["[]"] == {"tree": "[]", "order": 1, "index": "1:0",
                          "sigma": "1", "factorial": "1", "linext": "1",
                          "cm": "1", "omega": "1"}
    assert rows["[[]]"]["omega"] == "-1/2"
    assert rows["[[][]]"]["sigma"] == "2"
    assert rows["[[][]]"]["omega"] == "1/6"
    assert rows["[[[]]]"]["factorial"] == "6"
    assert len(rows) == 1 + 1 + 2


def test_trees_csv_matches_json(capsys):
    code, out, _ = run(capsys, "trees", "--max-order", "4", "--format", "csv")
    assert code == 0
    parsed = list(csv.DictReader(io.StringIO(out)))
    code, jout, _ = run(capsys, "trees", "--max-order", "4")
    want = json.loads(jout)
    assert len(parsed) == len(want) == 8
    for a, b in zip(parsed, want):
        assert a["tree"] == b["tree"]
        assert a["omega"] == b["omega"]


def test_trees_cap_and_override(capsys):
    code, out, err = run(capsys, "trees", "--max-order", "13")
    assert code == 2 and "cap" in err
    code, out, err = run(capsys, "--unsafe-uncapped", "trees", "--max-order", "13")
    assert code == 0  # slow-ish but bounded; 12486 trees at order 13
    assert json.loads(out)[-1]["order"] == 13


def test_trees_rejects_bad_order(capsys):
    code, _, err = run(capsys, "trees", "--max-order", "0")
    assert code == 2 and "must be >= 1" in err


def test_trees_output_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run(capsys, "trees", "--max-order", "2",
                       "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())[0]["tree"] == "[]"


# ---------------------------------------------------------------------------
# series

def test_series_magnus_low_orders(capsys):
    code, out, _ = run(capsys, "series", "--which", "magnus", "--order", "2")
    assert code == 0
    data = {row["forest"]: row["coeff"] for row in json.loads(out)}
    assert data == {"[]": "1", "[[]]": "-1/2"}
    code, out, _ = run(capsys, "series", "--which", "magnus", "--order", "1")
    assert json.loads(out) == [{"forest": "[]", "coeff": "1"}]


def test_series_exp_reports_connes_moscovici_integers(capsys):
    code, out, _ = run(capsys, "series", "--which", "exp", "--order", "4")
    assert code == 0
    data = {row["forest"]: row["coeff"] for row in json.loads(out)}
    assert data["[]"] == "1"
    assert data["[[[]][]]"] == "3"
    assert data["[[][][]]"] == "1"
    assert data["[[[[]]]]"] == "1"
    # integrality: CM numbers have denominator 1
    assert all(Fraction(v).denominator == 1 for v in data.values())


def test_series_method_mismatch_is_a_usage_error(capsys):
    code, _, err = run(capsys, "series", "--which", "exp", "--method", "sol1")
    assert code == 2 and "does not support" in err


def test_series_check_passes(capsys):
    code, out, err = run(capsys, "series", "--which", "magnus",
                         "--order", "4", "--check")
    assert code == 0 and err == ""
    assert json.loads(out)


def test_series_cap(capsys):
    code, _, err = run(capsys, "series", "--which", "magnus", "--order", "13")
    assert code == 2 and "cap" in err


def test_series_check_passes_at_order_8(capsys):
    code, out, err = run(capsys, "series", "--which", "magnus",
                         "--order", "8", "--check")
    assert code == 0 and err == ""
    assert json.loads(out)


@pytest.mark.parametrize("argv", [("--method", "sol1"), ("--check",)])
def test_series_sol1_cap(capsys, argv):
    code, out, err = run(capsys, "series", "--which", "magnus",
                         "--order", "10", *argv)
    assert code == 2 and out == ""
    assert err == "error: --order 10 exceeds the cap 9 (pass " \
                  "--unsafe-uncapped to override)\n"


# ---------------------------------------------------------------------------
# cumulants

def _write_table(path, brand="free", maxlen=4):
    values = {w: Fraction(1 if len(w) == 2 else 0)
              for w in iter_words(("a",), maxlen)}
    table = CumulantTable(brand, ("a",), maxlen, values)
    path.write_text(json.dumps(table.to_json()))
    return table


def test_cumulants_conversion_round_trip(tmp_path, capsys):
    src = tmp_path / "free.json"
    dst = tmp_path / "moments.json"
    table = _write_table(src, maxlen=6)
    code, out, err = run(capsys, "cumulants", "--from", "free",
                         "--to", "moment", "--input", str(src),
                         "--output", str(dst))
    assert code == 0 and err == ""
    got = CumulantTable.from_json(json.loads(dst.read_text()))
    assert got == convert(table, "moment")
    assert [got.values["a" * n] for n in range(1, 7)] == [0, 1, 0, 2, 0, 5]


def test_cumulants_identity_conversion_preserves_values(tmp_path, capsys):
    src = tmp_path / "free.json"
    table = _write_table(src)
    code, out, _ = run(capsys, "cumulants", "--from", "free", "--to", "free",
                       "--input", str(src))
    assert code == 0
    assert CumulantTable.from_json(json.loads(out)) == table


def test_cumulants_brand_mismatch(tmp_path, capsys):
    src = tmp_path / "free.json"
    _write_table(src, brand="free")
    code, _, err = run(capsys, "cumulants", "--from", "boolean",
                       "--to", "moment", "--input", str(src))
    assert code == 2 and "brand" in err


def test_cumulants_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "cumulants", "--from", "free", "--to", "moment",
                       "--input", str(tmp_path / "nope.json"))
    assert code == 2


def test_cumulants_malformed_json(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text("{not json")
    code, _, err = run(capsys, "cumulants", "--from", "free", "--to", "moment",
                       "--input", str(src))
    assert code == 2


def test_cumulants_route_agreement(tmp_path, capsys):
    src = tmp_path / "mono.json"
    _write_table(src, brand="monotone")
    code, direct_out, _ = run(capsys, "cumulants", "--from", "monotone",
                              "--to", "boolean", "--input", str(src))
    assert code == 0
    code, via_out, _ = run(capsys, "cumulants", "--from", "monotone",
                           "--to", "boolean", "--input", str(src),
                           "--route", "via-moments")
    assert code == 0
    assert json.loads(direct_out) == json.loads(via_out)
    got = CumulantTable.from_json(json.loads(direct_out))
    assert got.values["aaaa"] == Fraction(1, 2)


# ---------------------------------------------------------------------------
# forest

def test_forest_ck_cherry_irr(capsys):
    code, out, _ = run(capsys, "forest", "--basis", "ck", "--index", "[[][]]",
                       "--k", "2", "--flavor", "irr")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    # one 2-vertex decorated tree, lambda 2 from the two symmetric edge cuts
    assert lines == [{"tree": "([[][]];[[]])[([])]", "lambda": "2",
                      "slots": ["[[]]", "[]"]}]


def test_forest_index_spellings_agree(capsys):
    code, by_label, _ = run(capsys, "forest", "--basis", "ck",
                            "--index", "[[]]", "--k", "2")
    code2, by_rank, _ = run(capsys, "forest", "--basis", "ck",
                            "--index", "2:0", "--k", "2")
    assert code == code2 == 0
    assert by_label == by_rank


def test_forest_word_dump(capsys):
    code, out, _ = run(capsys, "forest", "--basis", "words", "--index", "aba",
                       "--k", "2", "--flavor", "reduced")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert {"tree": "(aba;aa)[(b)]", "lambda": "1", "slots": ["aa", "b"]} in lines


def test_forest_csv_format(capsys):
    code, out, _ = run(capsys, "forest", "--basis", "ck", "--index", "[[][]]",
                       "--k", "2", "--flavor", "irr", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert set(rows[0].keys()) == {"tree", "lambda", "slot1", "slot2"}


def test_forest_bad_index_and_caps(capsys):
    code, _, err = run(capsys, "forest", "--basis", "ck", "--index", "oops",
                       "--k", "2")
    assert code == 2 and "bad --index" in err
    code, _, err = run(capsys, "forest", "--basis", "words", "--index", "abc",
                       "--k", "2")
    assert code == 2  # c is not in the default two-letter alphabet
    code, _, err = run(capsys, "forest", "--basis", "ck",
                       "--index", "9:0", "--k", "2")
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "forest", "--basis", "ck", "--index", "[]",
                       "--k", "0")
    assert code == 2 and "--k" in err
    # the grade of a 1200-deep chain is read before the recursive parse
    code, _, err = run(capsys, "forest", "--basis", "ck",
                       "--index", "[" * 1200 + "]" * 1200, "--k", "2")
    assert code == 2 and "index grade 1200 exceeds the cap 8" in err
    # a grade:ordinal index is held against the cap before it is validated,
    # which would enumerate every basis element of that grade
    for basis in ("ck", "words"):
        code, out, err = run(capsys, "forest", "--basis", basis,
                             "--index", "40:0", "--k", "2")
        assert code == 2 and out == ""
        assert err == "error: index grade 40 exceeds the cap 8 (pass " \
                      "--unsafe-uncapped to override)\n"


def test_forest_k_cap_and_override(capsys):
    code, out, err = run(capsys, "forest", "--basis", "ck", "--index", "[[]]",
                         "--k", "7")
    assert code == 2 and out == ""
    assert err == "error: --k 7 exceeds the cap 6 (pass --unsafe-uncapped " \
                  "to override)\n"
    code, out, _ = run(capsys, "--unsafe-uncapped", "forest", "--basis", "ck",
                       "--index", "[[]]", "--k", "7", "--flavor", "full")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    # the 2-chain whole in one of the 7 slots, or cut at its edge into two
    # of them: 7 + 21 terms
    assert len(lines) == 28


def test_forest_custom_alphabet(capsys):
    code, out, _ = run(capsys, "forest", "--basis", "words", "--index", "abc",
                       "--k", "2", "--alphabet", "abc")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert {"tree": "(abc;ac)[(b)]", "lambda": "1", "slots": ["ac", "b"]} in lines


# ---------------------------------------------------------------------------
# verify

def test_verify_single_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "trees", "--max-order", "5")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines)
    assert any("trees.tree-counts-vs-recursion" in line for line in lines)
    assert all("(0 instances)" not in line for line in lines)


def test_verify_cap(capsys):
    code, _, err = run(capsys, "verify", "--suite", "trees", "--max-order", "40")
    assert code == 2 and "cap" in err


def test_verify_all_quick(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "hopf", "--max-order", "4")
    assert code == 0
    assert "PASS hopf.gl-ck-duality" in out
    assert "PASS hopf.coassociativity" in out


def test_verify_rejects_bad_order(capsys):
    code, out, err = run(capsys, "verify", "--max-order", "0")
    assert code == 2 and out == "" and "must be >= 1" in err


def test_verify_identity_on_no_instances_fails(capsys):
    # words of length 1 have no odd factorization, so both word identities
    # run on 0 instances at order 1
    code, out, err = run(capsys, "verify", "--suite", "words", "--max-order", "1")
    assert code == 1
    assert out.splitlines() == [
        "FAIL words.brace-coproduct-duality (0 instances)",
        "FAIL words.coproduct-grading (0 instances)"]
    records = [json.loads(line) for line in err.splitlines()]
    assert [r["reason"] for r in records] == ["no instances"] * 2


def test_verify_all_counts_are_pinned(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--max-order", "3")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "PASS trees.tree-counts-vs-recursion (3 instances)",
        "PASS trees.cayley-sum (3 instances)",
        "PASS trees.omega-direct-vs-recursive (4 instances)",
        "PASS trees.weak-vs-surjective-binomial (28 instances)",
        "PASS hopf.gl-ck-duality (60 instances)",
        "PASS hopf.coassociativity (4 instances)",
        "PASS magnus.magnus-three-way (4 instances)",
        "PASS magnus.exp-after-magnus-identity (3 instances)",
        "PASS words.brace-coproduct-duality (208 instances)",
        "PASS words.coproduct-grading (8 instances)",
        "PASS forest.ck-forest-formula-vs-direct (36 instances)",
        "PASS forest.word-forest-formula-vs-direct (126 instances)",
        "PASS cumulants.moment-roundtrips (3 instances)",
        "PASS cumulants.direct-vs-via-moments (16 instances)",
        "PASS cumulants.exp-magnus-functionals (56 instances)"]


def test_verify_reports_the_first_failing_instance(capsys, monkeypatch):
    def cayley_sum(order):
        # the real identity with every instance from order 2 on falsified
        for instance, got, want in checks.cayley_sum(order):
            yield instance, got, want + (instance["order"] >= 2)

    trees = checks.SUITES["trees"]
    monkeypatch.setitem(checks.SUITES, "trees",
                        trees._replace(identities=(cayley_sum,)))
    code, out, err = run(capsys, "verify", "--suite", "trees", "--max-order", "3")
    assert code == 1
    assert out.splitlines() == ["FAIL trees.cayley-sum (3 instances)"]
    assert [json.loads(line) for line in err.splitlines()] == [
        {"suite": "trees", "identity": "cayley-sum",
         "instance": {"order": 2}}]


def test_verify_checks_every_cap_before_running(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--max-order", "9")
    assert code == 2 and out == ""
    assert "forest suite order 9 exceeds the cap 8" in err


def test_verify_names_every_suite_over_its_cap(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--max-order", "12")
    assert code == 2 and out == ""
    assert [line.split(" exceeds")[0] for line in err.splitlines()] == [
        "error: %s suite order 12" % name
        for name in ("trees", "hopf", "magnus", "words", "forest")]


@pytest.mark.parametrize("alphabet", ["aa", ""])
def test_forest_rejects_bad_alphabet(capsys, alphabet):
    code, out, err = run(capsys, "forest", "--basis", "words", "--index", "a",
                         "--k", "2", "--alphabet", alphabet)
    assert code == 2 and out == "" and "alphabet" in err


def test_forest_rejects_the_empty_word(capsys):
    code, out, err = run(capsys, "forest", "--basis", "words", "--index", "",
                         "--k", "2")
    assert code == 2 and out == ""
    assert err == "error: bad --index: the empty word is not a basis element\n"


@pytest.mark.parametrize("alphabet, index", [(":a", ":a"), ("1:", "1:1")])
def test_forest_rejects_colon_in_alphabet(capsys, alphabet, index):
    # ":" marks a grade:ordinal index, so "1:1" would be read as (1, 1)
    code, out, err = run(capsys, "forest", "--basis", "words", "--index", index,
                         "--k", "2", "--alphabet", alphabet)
    assert code == 2 and out == ""
    assert err == "error: bad --alphabet: alphabet %r holds ':', which marks " \
                  "a grade:ordinal index\n" % alphabet


@pytest.mark.parametrize("values", [["1", "2"], {"a": 3}])
def test_cumulants_rejects_malformed_values(tmp_path, capsys, values):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"brand": "free", "variables": ["a"],
                               "maxlen": 1, "values": values}))
    code, out, err = run(capsys, "cumulants", "--from", "free", "--to", "moment",
                         "--input", str(src))
    assert code == 2 and out == "" and "values" in err


def test_cumulants_rejects_undecodable_file(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "cumulants", "--from", "free", "--to", "moment",
                         "--input", str(src))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: cannot read table: ")


@pytest.mark.parametrize("extra", [{"b": "3"}, {"aaa": "3"}])
def test_cumulants_rejects_words_outside_the_table(tmp_path, capsys, extra):
    # a word over another letter or longer than maxlen was dropped unread
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"brand": "free", "variables": ["a"], "maxlen": 2,
                               "values": {"a": "1", "aa": "2", **extra}}))
    code, out, err = run(capsys, "cumulants", "--from", "free", "--to", "moment",
                         "--input", str(src))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "1 word(s) outside the variables or lengths 1..2: %r" \
        % next(iter(extra)) in err


def test_cumulant_table_lists_at_most_20_extra_words():
    values = {w: 1 for w in iter_words(("a",), 2)}
    values.update((w, 1) for w in iter_words(("b",), 25))
    with pytest.raises(ValueError) as err:
        CumulantTable("free", ("a",), 2, values)
    message = str(err.value)
    assert "table has 25 word(s)" in message
    assert message.count("'b") == 20 and message.endswith(", ...")


@pytest.mark.parametrize("variables, values", [
    (5, {}),
    ([1, 2], {}),
    # a complete maxlen-2 table, but word keys are read letter by letter
    (["a", "ab"], {w: "1" for w in ("a", "ab", "aa", "aab", "aba", "abab")}),
])
def test_cumulants_rejects_bad_variables(tmp_path, capsys, variables, values):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"brand": "free", "variables": variables,
                               "maxlen": 2, "values": values}))
    code, out, err = run(capsys, "cumulants", "--from", "free", "--to", "moment",
                         "--input", str(src))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "variables" in err


def test_cumulants_cap_and_override(tmp_path, capsys):
    src = tmp_path / "long.json"
    _write_table(src, maxlen=8)
    code, out, err = run(capsys, "cumulants", "--from", "free", "--to", "moment",
                         "--input", str(src))
    assert code == 2 and out == ""
    assert "table maxlen 8 exceeds the cap 7" in err
    code, out, _ = run(capsys, "--unsafe-uncapped", "cumulants", "--from",
                       "free", "--to", "moment", "--input", str(src))
    assert code == 0
    got = CumulantTable.from_json(json.loads(out))
    assert [got.values["a" * n] for n in (2, 4, 6, 8)] == [1, 2, 5, 14]
    # a table claiming a huge maxlen fails its completeness check at once,
    # without listing every missing word
    src.write_text(json.dumps({"brand": "free", "variables": ["a", "b"],
                               "maxlen": 100000, "values": {"a": "1"}}))
    code, out, err = run(capsys, "cumulants", "--from", "free", "--to", "moment",
                         "--input", str(src))
    assert code == 2 and "missing more than 20 word(s): b, aa," in err



@pytest.mark.parametrize("maxlen", ["1.9", "true", '"1"', "1e400"])
def test_cumulants_rejects_non_integer_maxlen(tmp_path, capsys, maxlen):
    # int() would take each of these: 1.9 as maxlen 1, silently dropping aa
    src = tmp_path / "bad.json"
    src.write_text('{"brand": "free", "variables": ["a"], "maxlen": %s, '
                   '"values": {"a": "1", "aa": "2"}}' % maxlen)
    code, out, err = run(capsys, "cumulants", "--from", "free", "--to", "moment",
                         "--input", str(src))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert '"maxlen" must be an integer' in err
