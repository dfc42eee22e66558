import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from prelie import checks, cli, forest, freeprelie, trees
from prelie.exactnum import format_rational
from prelie.forest import WordBasis, enumerate_decorated_trees, slot_counts
from prelie.freeprelie import TreeSeries
from prelie.nc import BRANDS, CumulantTable, convert, iter_words
from prelie.trees import (enumerate_trees, murua_omega, sigma, tree_factorial,
                          tree_from_string)


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


@pytest.mark.parametrize("bad", ["missing-directory", "a-directory"])
@pytest.mark.parametrize("command", ["trees", "series", "cumulants", "forest"])
def test_unwritable_output_is_an_input_error(tmp_path, capsys, command, bad):
    src = tmp_path / "free.json"
    _write_table(src)
    argv = {
        "trees": ["trees", "--max-order", "2"],
        "series": ["series", "--which", "magnus", "--order", "2"],
        "cumulants": ["cumulants", "--from", "free", "--to", "moment",
                      "--input", str(src)],
        "forest": ["forest", "--basis", "ck", "--index", "[[]]", "--k", "2"],
    }[command]
    if bad == "missing-directory":
        target = tmp_path / "missing" / "x.json"
    else:
        target = tmp_path / "out"
        target.mkdir()
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output") and err.count("\n") == 1


def _refuse(*args):
    raise AssertionError("a row was made before the output was opened")


# a command and the layer function it calls once per row or decorated tree
_ROW_STEPS = [
    (["trees", "--max-order", "3"], "murua_omega"),
    (["forest", "--basis", "ck", "--index", "[[]]", "--k", "2"], "slot_counts"),
]
# the layer module whose attribute each command reads per call
_STEP_LAYER = {"murua_omega": trees, "slot_counts": forest}


@pytest.mark.parametrize("argv, step", _ROW_STEPS)
def test_unwritable_output_is_rejected_before_any_row(tmp_path, capsys,
                                                      monkeypatch, argv, step):
    monkeypatch.setattr(_STEP_LAYER[step], step, _refuse)
    code, out, err = run(capsys, *argv, "--output",
                         str(tmp_path / "missing" / "x.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output") and err.count("\n") == 1


@pytest.mark.parametrize("argv, step", _ROW_STEPS)
def test_writable_output_reaches_the_patched_row_step(tmp_path, monkeypatch,
                                                      argv, step):
    # the counterpart of the test above: with a path that can be written,
    # the command does call the step patched there, so that test's patch is
    # in the command's path
    monkeypatch.setattr(_STEP_LAYER[step], step, _refuse)
    with pytest.raises(AssertionError, match="a row was made"):
        cli.main(argv + ["--output", str(tmp_path / "x.json")])


# commands whose output crosses batches of cli._BATCH rows: the 1205 trees
# of order <= 10, and a dump of 6878 rows from 102 decorated trees, one of
# which alone has more rows than a batch
_MULTI_BATCH_DUMP = "forest --basis words --index abaabab --k 5 --flavor full"


@pytest.mark.parametrize("argv", [
    "trees --max-order 3", "trees --max-order 3 --format csv",
    "trees --max-order 10", "trees --max-order 10 --format csv",
    "series --which exp --order 4", "series --which magnus --order 4 --check",
    "cumulants --from free --to monotone --input {src}",
    "forest --basis ck --index [[][]] --k 2",
    "forest --basis words --index abab --k 3 --flavor full --format csv",
    _MULTI_BATCH_DUMP, _MULTI_BATCH_DUMP + " --format csv",
])
def test_output_file_holds_the_bytes_of_stdout(tmp_path, capsys, argv):
    # a JSON dump ends without a newline, which both sinks add, and a CSV
    # dump with one, which neither does
    src, dst = tmp_path / "free.json", tmp_path / "out"
    _write_table(src)
    argv = argv.format(src=src).split()
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out.endswith("\n")
    code, to_file, err = run(capsys, *argv, "--output", str(dst))
    assert code == 0 and err == "" and to_file == ""
    assert dst.read_bytes() == out.encode()


@pytest.mark.parametrize("fmt, digest", [
    ("json", "d938a117b78c96c8aca633c4ce287264349246c9c1773731187dbf16cbc04d29"),
    ("csv", "c40a5ef06b71d45acd6620b263ecf36b32c16d5772cbc4db9261d62ac93941dc"),
])
def test_tree_table_is_byte_stable(capsys, fmt, digest):
    # every statistic of the 1205 trees of order <= 10, as the benchmark
    # checks it
    code, out, err = run(capsys, "trees", "--max-order", "10", "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of each order-8 series; every route of a series prints the same
# bytes, so one digest per series, and --check prints the Magnus series too
_SERIES_DIGESTS = {
    "exp": "a75f1b33273bf37795c23108b488a2c4af6786180d53d92f7cfd791cfff7b651",
    "magnus": "38d176f35e87a636c30bf14dfcf6678364067dc2c37d9b2e3ee49d11120bda41",
}


@pytest.mark.parametrize("which, method", [
    (which, method) for which in checks.ROUTES for method in checks.ROUTES[which]])
def test_series_is_byte_stable(capsys, which, method):
    # the routes are compared with each other in-process; this pins each
    # one's output, so an edit inside a route shows on its own
    code, out, err = run(capsys, "series", "--which", which, "--method", method,
                         "--order", "8")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _SERIES_DIGESTS[which]


def test_series_check_is_byte_stable(capsys):
    code, out, err = run(capsys, "series", "--which", "magnus", "--order", "8",
                         "--check")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _SERIES_DIGESTS["magnus"]


# oracles for the trees and series output: json.dumps under indent and
# csv.DictWriter on the rows as dicts, built from the library functions and
# the linear-extension and series-record oracles

def _dict_tree_rows(max_order):
    return [{"tree": t.key, "order": n, "index": "%d:%d" % (n, idx),
             "sigma": str(sigma(t)), "factorial": str(tree_factorial(t)),
             "linext": str(oracles.num_linearizations(t)),
             "cm": str(freeprelie.cm_coefficient(t)),
             "omega": format_rational(murua_omega(t))}
            for n in range(1, max_order + 1)
            for idx, t in enumerate(enumerate_trees(n))]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_trees_match_the_dict_renderers(capsys, fmt):
    rows = _dict_tree_rows(8)
    if fmt == "json":
        want = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        want = buf.getvalue()
    code, out, err = run(capsys, "trees", "--max-order", "8", "--format", fmt)
    assert code == 0 and err == ""
    assert out == want


@pytest.mark.parametrize("which, method", [
    (which, method) for which in checks.ROUTES for method in checks.ROUTES[which]])
def test_series_match_the_dict_renderer(capsys, which, method):
    for order in (1, 5):
        series = checks.ROUTES[which][method](order)
        code, out, err = run(capsys, "series", "--which", which,
                             "--method", method, "--order", str(order))
        assert code == 0 and err == ""
        assert out == json.dumps(oracles.series_json(series), indent=2) + "\n"


# quotes, backslashes, control characters, line separators and non-ASCII
# text (astral-plane characters escape to surrogate pairs), besides the rest
_NASTY = st.text(st.one_of(
    st.sampled_from('"\\\x00\x1f\x7f\n\t%\u2028\xe9\U0001d504'),
    st.characters()), max_size=8)


@st.composite
def _records(draw):
    fields = draw(st.lists(_NASTY, min_size=1, max_size=4, unique=True))
    kinds = [draw(st.sampled_from((_NASTY, st.integers()))) for _ in fields]
    rows = draw(st.lists(st.tuples(*kinds), max_size=4))
    return fields, rows


# batches of 1 to 3 rows, so the lists of up to 4 rows cross them
@given(_records(), st.integers(1, 3))
def test_json_records_equals_json_dumps_with_indent(records, batch):
    fields, rows = records
    assert "".join(cli._json_records(fields, rows, batch)) == json.dumps(
        [dict(zip(fields, row)) for row in rows], indent=2)


class _Recorder(io.StringIO):
    """A stdout that logs each write, in order with other events."""

    def __init__(self, events):
        super().__init__()
        self.events = events

    def write(self, text):
        self.events.append(("write", text))
        return super().write(text)


def _streamed(monkeypatch, argv, layer, step):
    """The writes of cli.main(argv) and the index of the last call of
    layer.<step> among them, with stdout recorded."""
    events = []
    real = getattr(layer, step)

    def logged(*args):
        events.append(("step", None))
        return real(*args)

    monkeypatch.setattr(layer, step, logged)
    monkeypatch.setattr(sys, "stdout", _Recorder(events))
    assert cli.main(argv) == 0
    last_step = max(j for j, (kind, _) in enumerate(events) if kind == "step")
    return [(j, text) for j, (kind, text) in enumerate(events)
            if kind == "write"], last_step


def test_trees_table_is_written_as_it_is_made(monkeypatch):
    writes, last_omega = _streamed(monkeypatch, ["trees", "--max-order", "10"],
                                   trees, "murua_omega")
    assert len(writes) > 1 and writes[0][0] < last_omega
    assert max(text.count('"tree": ') for _, text in writes) <= cli._BATCH
    assert len(json.loads("".join(text for _, text in writes))) == 1205


def test_forest_dump_is_written_as_it_is_made(monkeypatch):
    basis = WordBasis("ab")
    assert max(sum(slot_counts(T, 5, "full").values()) for T, _
               in enumerate_decorated_trees(basis.read_index("abaabab"),
                                            basis)) > cli._BATCH
    writes, last_tree = _streamed(monkeypatch, _MULTI_BATCH_DUMP.split(),
                                  forest, "slot_counts")
    assert len(writes) > 1 and writes[0][0] < last_tree
    assert max(text.count("\n") for _, text in writes) <= cli._BATCH
    assert "".join(text for _, text in writes).count("\n") == 6878


SRC = Path(cli.__file__).resolve().parents[1]


def _spawn(argv, buffered, stdout):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "prelie.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


# buffered, a small output fails only when main flushes stdout; unbuffered,
# it fails in the command's own write or print, and a multi-batch output
# fails in a write made while its rows are still being made, either way.
# Help text is written inside argument parsing, whose stock writer drops
# the error
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [
    ["trees", "--max-order", "3"],
    ["verify", "--suite", "trees", "--max-order", "3"],
    ["--help"],
    ["forest", "--help"],
    ["trees", "--max-order", "10"],
    _MULTI_BATCH_DUMP.split(),
])
@pytest.mark.parametrize("sink", ["full-device", "closed-pipe"])
def test_failed_stdout_write_is_an_input_error(argv, buffered, sink):
    if sink == "full-device":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        with open("/dev/full", "wb") as full:
            proc = _spawn(argv, buffered, full)
    else:
        proc = _spawn(argv, buffered, subprocess.PIPE)
        proc.stdout.close()  # before the child has run any Python
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2, err
    assert err.startswith("error: cannot write output: ") and \
        err.count("\n") == 1, err


# the three ways main ends: a table, help text (SystemExit), an input error
_ENDINGS = [["trees", "--max-order", "3"], ["--help"],
            ["trees", "--max-order", "0"]]


def test_only_the_process_entry_freezes_the_heap(capsys):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    for argv in _ENDINGS:
        try:
            cli.main(argv)
        except SystemExit:
            pass
        capsys.readouterr()
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    # python -c puts the arguments after the script in sys.argv[1:], where
    # a bare main() reads them
    script = ("import gc, sys\n"
              "from prelie import cli\n"
              "try:\n"
              "    cli.main()\n"
              "except SystemExit:\n"
              "    pass\n"
              "print('frozen', gc.get_freeze_count(), file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in _ENDINGS:
        err = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                             text=True, timeout=60).stderr
        assert int(err.splitlines()[-1].split()[1]) > 0, err


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
    # reported before the cap, which only the routes of the series have
    code, out, err = run(capsys, "series", "--which", "exp", "--method",
                         "sol1", "--order", "13")
    assert code == 2 and out == ""
    assert err == "error: --which exp does not support --method sol1\n"


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


@pytest.fixture
def wrong_sol1(monkeypatch):
    """checks.ROUTES with a sol1 route that is off by 1 at [[]]."""
    sol1 = checks.ROUTES["magnus"]["sol1"]
    chain2 = tree_from_string("[[]]")
    monkeypatch.setitem(checks.ROUTES["magnus"], "sol1",
                        lambda n: sol1(n) + TreeSeries({chain2: 1}))


def test_series_check_reports_the_first_disagreement(capsys, wrong_sol1):
    code, out, err = run(capsys, "series", "--which", "magnus",
                         "--order", "4", "--check")
    assert code == 1 and out == ""
    assert err.splitlines() == ["verification failure: methods closed and "
                                "sol1 disagree at [[]]: -1/2 vs 1/2"]


def test_magnus_suite_reads_the_series_routes(capsys, wrong_sol1):
    # the table series --check compares is the one the magnus suite checks
    code, out, err = run(capsys, "verify", "--suite", "magnus",
                         "--max-order", "4")
    assert code == 1
    assert out.splitlines() == [
        "FAIL magnus.magnus-three-way (8 instances)",
        "PASS magnus.exp-after-magnus-identity (4 instances)"]
    assert [json.loads(line) for line in err.splitlines()] == [
        {"suite": "magnus", "identity": "magnus-three-way",
         "instance": {"tree": "[[]]"}}]


def test_routes_look_up_freeprelie_at_call_time(monkeypatch):
    # a route holding a function object would bypass whatever rebinds the
    # module's names, such as the benchmark's tracer
    names = {"cm_coefficient", "prelie_exp", "magnus_closed_form",
             "magnus_fixed_point", "sol1"}
    called = set()
    for name in names:
        def counted(*args, _f=getattr(freeprelie, name), _name=name):
            called.add(_name)
            return _f(*args)
        monkeypatch.setattr(freeprelie, name, counted)
    for routes in checks.ROUTES.values():
        for series_of_order in routes.values():
            series_of_order(2)
    assert called == names


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


@pytest.mark.parametrize("argv, digest", [
    ("--basis ck --index 8:0 --k 6 --flavor full",
     "e6987727b0cefceea999ac7557220a565c04bd072f28e5f91bf667e2965d6a41"),
    ("--basis ck --index 6:10 --k 4 --flavor reduced",
     "ec7fbf414e52e3f75b9509544012f8f5458692dc2a4c0d55aa86924f0de4c3c7"),
    ("--basis ck --index 6:10 --k 6 --flavor irr",
     "127878ee5081b62fd665af220893a5204047dc20dc7b38dfa4d9a736072427f1"),
    ("--basis words --index abaab --k 4 --flavor full --format csv",
     "0ab4967842f30efcb6267a5a315622d9a251be4414b6079727aad5b7328f518f"),
    ("--basis ck --index [[][][][][]] --k 5 --flavor full",
     "7112bb61a56d9c12ff9b947b59861a10b3bb41f6d0728166db6029b1f6e32d2c"),
    ("--basis ck --index [[][][][][]] --k 5 --flavor full --format csv",
     "be0f7316ad584378fe66c8b3443a28c9adc44405cb1a57bebe978d45a34ffcd8"),
])
def test_forest_dump_is_byte_stable(capsys, argv, digest):
    # every row of each flavor's dump, the grade-8 chain's full dump at the
    # --k cap among them (187 KB), and the grade-6 corolla's, whose 1,799
    # rows repeat 210 distinct ones
    code, out, err = run(capsys, "forest", *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_forest_renders_each_distinct_row_once(capsys, monkeypatch):
    calls = []
    dumps = json.dumps

    def counting_dumps(obj, **kwargs):
        calls.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", counting_dumps)
    code, out, _ = run(capsys, "forest", "--basis", "ck", "--index",
                       "[[][][][][]]", "--k", "5", "--flavor", "full")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1799 and len(calls) == len(set(lines)) == 210


@pytest.mark.parametrize("argv", [
    "--basis ck --index [[]] --k 3 --flavor irr",
    "--basis words --index ab --k 2 --flavor reduced",
])
def test_forest_empty_dump_is_empty(capsys, tmp_path, argv):
    # no row: 0 bytes of JSON Lines, where a blank line would be no JSON
    # line; the CSV dump keeps its header
    code, out, err = run(capsys, "forest", *argv.split())
    assert (code, out, err) == (0, "", "")
    path = tmp_path / "dump.json"
    code, out, _ = run(capsys, "forest", *argv.split(), "--output", str(path))
    assert code == 0 and out == "" and path.read_bytes() == b""
    code, out, _ = run(capsys, "forest", *argv.split(), "--format", "csv")
    assert code == 0 and out.startswith("tree,lambda,slot1,")
    assert out.count("\n") == 1


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


@pytest.mark.parametrize("index", ["3:+1", " 2:0", "1_0:0", "\u0662:\u0660"])
@pytest.mark.parametrize("basis", ["ck", "words"])
def test_forest_rejects_non_canonical_grade_ordinal(capsys, basis, index):
    # int() would read each of these, "1_0" as grade 10 and the
    # Arabic-Indic digits as 2:0; only ASCII digits make an index
    code, out, err = run(capsys, "forest", "--basis", basis, "--index", index,
                         "--k", "2")
    assert code == 2 and out == ""
    assert err == "error: bad --index: %r is not grade:ordinal in ASCII " \
                  "digits\n" % (index,)


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
        "PASS cumulants.direct-vs-via-moments (6 instances)",
        "PASS cumulants.exp-magnus-functionals (56 instances)"]


def test_verify_forest_counts_are_pinned_past_the_word_bound(capsys):
    # the word side stops at length 5, so order 6 is the first whose word
    # count equals that of the order below
    code, out, err = run(capsys, "verify", "--suite", "forest", "--max-order",
                         "6")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "PASS forest.ck-forest-formula-vs-direct (333 instances)",
        "PASS forest.word-forest-formula-vs-direct (558 instances)"]


def test_direct_vs_via_moments_compares_two_routes():
    # from = to copies the table, and a moment side makes via-moments the
    # direct route, so every instance is a pair of distinct cumulant brands
    pairs = [(record["from"], record["to"])
             for record, _, _ in checks.direct_vs_via_moments(3)]
    assert len(pairs) == len(set(pairs)) == 6
    assert all(src != tgt and "moment" not in (src, tgt) for src, tgt in pairs)


def _nonzero(side):
    return any(side) if isinstance(side, tuple) else bool(side)


@pytest.mark.parametrize("identity, order, instances, nonzero", [
    (checks.brace_coproduct_duality, 5, 17360, 496),
    (checks.magnus_three_way, 6, 37, 32),
    (checks.ck_forest_formula_vs_direct, 5, 153, 139),
    (checks.word_forest_formula_vs_direct, 5, 558, 458)])
def test_identities_do_not_pass_on_zeros_alone(identity, order, instances,
                                               nonzero):
    rows = list(identity(order))
    assert len(rows) == instances
    assert sum(_nonzero(got) or _nonzero(want)
               for _, got, want in rows) == nonzero


def test_verify_reports_the_first_failing_instance(capsys, monkeypatch):
    def cayley_sum(order):
        # the real identity with every instance from order 2 on falsified
        for instance, got, want in checks.cayley_sum(order):
            yield instance, got, want + (instance["order"] >= 2)

    monkeypatch.setitem(checks.SUITES, "trees", (cayley_sum,))
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


@pytest.mark.parametrize("alphabet, rest, mark, role", [
    ("1a", "--index a1a --k 3 --flavor full", "1", "renders the unit slot"),
    ("ab·", "--index aba·bab --k 2", "·", "joins the words of a slot"),
])
def test_forest_rejects_slot_marks_in_alphabet(capsys, alphabet, rest, mark,
                                               role):
    # with the letter 1 the word "1" prints as the unit slot does, and with
    # the letter · the word "a·b" as the monomial a·b: two different rows of
    # each of these dumps would print the same
    code, out, err = run(capsys, "forest", "--basis", "words", "--alphabet",
                         alphabet, *rest.split())
    assert code == 2 and out == ""
    assert err == "error: bad --alphabet: alphabet %r holds %r, which %s\n" \
                  % (alphabet, mark, role)


@pytest.mark.parametrize("values", [["1", "2"], {"a": 3}])
def test_cumulants_rejects_malformed_values(tmp_path, capsys, values):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"brand": "free", "variables": ["a"],
                               "maxlen": 1, "values": values}))
    code, out, err = run(capsys, "cumulants", "--from", "free", "--to", "moment",
                         "--input", str(src))
    assert code == 2 and out == "" and "values" in err


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "malformed cumulant table: not a JSON object"),
    ('{"variables": ["a"], "maxlen": 1, "values": {"a": "1"}}',
     "malformed cumulant table: 'brand'"),
    ('{"brand": "free", "variables": ["a"], "maxlen": 0, "values": {}}',
     "maxlen must be >= 1"),
], ids=["list", "no-brand", "maxlen-0"])
def test_cumulants_rejects_malformed_tables(tmp_path, capsys, text, message):
    src = tmp_path / "bad.json"
    src.write_text(text)
    code, out, err = run(capsys, "cumulants", "--from", "free", "--to", "moment",
                         "--input", str(src))
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


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
    _write_table(src, maxlen=9)
    code, out, err = run(capsys, "cumulants", "--from", "free", "--to", "moment",
                         "--input", str(src))
    assert code == 2 and out == ""
    assert "table maxlen 9 exceeds the cap 8" in err
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



def test_cumulants_rejects_exponent_value_at_once(tmp_path, capsys):
    # Fraction("1e-300000") is 1/10**300000: a conversion over such values
    # runs for minutes instead of rejecting the literal
    values = {w: "1" for w in iter_words(("a", "b"), 3)}
    values["ab"] = "1e-300000"
    src = tmp_path / "exp.json"
    src.write_text(json.dumps({"brand": "free", "variables": ["a", "b"],
                               "maxlen": 3, "values": values}))
    t0 = time.monotonic()
    code, out, err = run(capsys, "cumulants", "--from", "free", "--to", "moment",
                         "--input", str(src))
    assert time.monotonic() - t0 < 5
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: not a rational literal: '1e-300000'")


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


def test_cumulants_rejects_results_past_the_digit_limit(tmp_path, capsys):
    # each input has 2200 digits, within Python's int-to-str limit of 4300;
    # the moment of "aa" adds 1/q^2, whose denominator has about 4400
    src = tmp_path / "big.json"
    q = "1/" + "7" * 2200
    src.write_text(json.dumps({"brand": "free", "variables": ["a"],
                               "maxlen": 2, "values": {"a": q, "aa": q}}))
    code, out, err = run(capsys, "cumulants", "--from", "free", "--to", "moment",
                         "--input", str(src))
    assert code == 2 and out == ""
    assert err == "error: the value of word 'aa' exceeds the limit of 4300 " \
                  "digits for integer string conversion\n"


# ---------------------------------------------------------------------------
# fuzzed command lines

ORDERS = st.integers(-1, 3)

FORESTS = st.builds(
    lambda basis, index, k, flavor: [
        "forest", "--basis", basis, "--index=" + index, "--k", str(k),
        "--flavor", flavor],
    st.sampled_from(["ck", "words"]),
    # random text, or a grade:ordinal pair that is often a basis element
    st.one_of(st.text(alphabet="[]:0123456789abx-+_ ", max_size=12),
              st.builds("{}:{}".format, st.integers(-1, 9),
                        st.integers(-1, 40))),
    st.integers(0, 3), st.sampled_from(["reduced", "full", "irr"]))

TREES = st.builds(lambda n: ["trees", "--max-order", str(n)], ORDERS)

SERIES = st.builds(
    lambda which, n, method, check: [
        "series", "--which", which, "--order", str(n), "--method", method]
    + (["--check"] if check else []),
    st.sampled_from(["exp", "magnus"]), ORDERS,
    st.sampled_from(["closed", "fixed-point", "sol1"]), st.booleans())

VERIFIES = st.builds(
    lambda suite, n: ["verify", "--suite", suite, "--max-order", str(n)],
    st.sampled_from(list(checks.SUITES) + ["all"]), st.integers(-1, 2))

RATIONALS = st.fractions(max_denominator=9).map(str)
VALUES = st.one_of(RATIONALS, st.integers(), st.floats(), st.booleans(),
                   st.none(), st.text(max_size=4))


@st.composite
def cumulant_runs(draw):
    """A cumulants command line and the JSON document of its input: a
    well-formed table of the --from brand, or one of random brand,
    variables and maxlen with values of mixed types."""
    source = draw(st.sampled_from(BRANDS))
    argv = ["cumulants", "--from", source,
            "--to", draw(st.sampled_from(BRANDS)),
            "--route", draw(st.sampled_from(["direct", "via-moments"]))]
    if draw(st.booleans()):
        variables = draw(st.lists(st.sampled_from("abc"), min_size=1,
                                  max_size=3, unique=True))
        maxlen = draw(st.integers(1, 3))
        values = {w: draw(RATIONALS) for w in iter_words(variables, maxlen)}
        return argv, {"brand": source, "variables": variables,
                      "maxlen": maxlen, "values": values}
    variables = draw(st.one_of(
        st.lists(st.sampled_from("abc"), max_size=3, unique=True),
        st.lists(st.one_of(st.text(max_size=2), st.integers()), max_size=3),
        VALUES))
    maxlen = draw(st.integers(-1, 3))
    letters = [v for v in variables if isinstance(v, str)] \
        if isinstance(variables, list) else []
    values = {w: draw(VALUES) for w in iter_words(letters, maxlen)}
    values.update(draw(st.dictionaries(st.text("abx", max_size=4), VALUES,
                                       max_size=2)))
    brand = draw(st.one_of(st.sampled_from(BRANDS), st.text(max_size=6)))
    return argv, {"brand": brand, "variables": variables, "maxlen": maxlen,
                  "values": values}


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(*(argvs.map(lambda argv: (argv, None))
                   for argvs in (FORESTS, TREES, SERIES, VERIFIES)),
                 cumulant_runs()))
def test_fuzzed_command_lines_exit_0_or_2(tmp_path, capsys, run_):
    argv, doc = run_
    if doc is not None:
        src = tmp_path / "table.json"
        src.write_text(json.dumps(doc))
        argv = argv + ["--input", str(src)]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        capsys.readouterr()
        assert exc.code == 2, argv
        return
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1, (argv, err)
        assert err.startswith("error: "), (argv, err)
    elif code == 1:
        # below its instances' order an identity checks nothing, which
        # verify reports as a failure; no identity may fail on an instance
        assert argv[0] == "verify", argv
        assert all(json.loads(line)["reason"] == "no instances"
                   for line in err.splitlines()), err
    else:
        assert code == 0 and err == "", (argv, code, err)

