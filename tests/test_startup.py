"""Start-up: the layer modules each command loads, the package's lazy
surface, and the interface that the cap table ``prelie.caps`` serves
(choices, help texts, argparse errors and the message of every cap)."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prelie
from prelie import caps, checks, cli, exactnum, nc, trees

SRC = Path(cli.__file__).resolve().parents[1]

# runs cli.main() on its own argv and prints the exit code and the sorted
# prelie.* modules in sys.modules to stderr, stdout going to the null device
_PROBE = """\
import json, sys
from prelie import cli
try:
    code = cli.main()
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "prelie" or m.startswith("prelie."))]),
      file=sys.stderr)
"""


def _loaded(*argv):
    """The exit code of ``prelie argv`` in a fresh process and the prelie.*
    modules it loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, check=True)
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    return code, set(modules)


def _write_table(path, maxlen=2):
    path.write_text(json.dumps({
        "brand": "free", "variables": ["a"], "maxlen": maxlen,
        "values": {"a" * n: "1" for n in range(1, maxlen + 1)}}))
    return str(path)


# every command, with the layer modules it loads besides the package, cli
# and the cap table; TABLE is the path of a small free cumulant table
_LAYERS = {
    "--help": set(),
    "trees --max-order 3": {"trees", "exactnum"},
    "cumulants --from free --to moment --input TABLE":
        {"nc", "trees", "exactnum"},
    "series --which magnus --order 4 --check":
        {"checks", "freeprelie", "lincomb", "trees", "exactnum"},
    "forest --basis ck --index [[]] --k 2":
        {"forest", "freeprelie", "lincomb", "trees", "words", "exactnum"},
    "verify --suite forest --max-order 3":
        {"checks", "forest", "freeprelie", "lincomb", "trees", "words",
         "exactnum"},
    "verify --suite all --max-order 3":
        {path.stem for path in (SRC / "prelie").glob("*.py")} - {"__init__"},
}


@pytest.mark.parametrize("command", _LAYERS)
def test_each_command_loads_only_its_layers(tmp_path, command):
    table = _write_table(tmp_path / "free.json")
    code, modules = _loaded(*command.replace("TABLE", table).split())
    assert code == 0
    assert modules == {"prelie", "prelie.caps", "prelie.cli"} | {
        "prelie." + layer for layer in _LAYERS[command]}


def test_importing_the_package_loads_no_layer():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, prelie\n"
         "print(sorted(m for m in sys.modules if m.startswith('prelie')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "['prelie']\n"


def test_star_import_binds_each_layer_object():
    namespace = {}
    exec("from prelie import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted([
        "Rational", "bernoulli", "format_rational", "parse_rational",
        "RootedTree", "Forest", "LEAF", "tree_from_string",
        "forest_from_string", "enumerate_trees", "enumerate_forests", "sigma",
        "tree_factorial", "murua_omega", "murua_omega_recursive"])
    for name, value in namespace.items():
        layer = exactnum if name in vars(exactnum) else trees
        assert value is vars(layer)[name], name
        assert getattr(prelie, name) is value, name


def test_an_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'omega'"):
        prelie.omega


# ---------------------------------------------------------------------------
# the interface the table serves

def test_routes_suites_and_brands_are_the_tables():
    assert {which: {method: cap for method, (_, cap) in routes.items()}
            for which, routes in checks.ROUTES.items()} == caps.SERIES_CAPS
    assert list(checks.SUITES) == list(caps.SUITE_CAPS)
    assert {name: (suite.order, suite.cap)
            for name, suite in checks.SUITES.items()} == caps.SUITE_CAPS
    assert nc.BRANDS is caps.BRANDS
    assert nc.BRANDS == ("moment", "free", "boolean", "monotone")


# sha256 of stdout, a NUL and stderr, on an 80-column terminal, of the help
# texts and argparse errors that the parser builds from the table (Python
# 3.11's argparse; its layout differs between versions)
@pytest.mark.parametrize("argv, code, digest", [
    (["--help"], 0,
     "2891f1579e02c69393909bc91a6b3649b799251974d55563339cf3842cd97705"),
    (["trees", "--help"], 0,
     "f90dc64058aa5cacbc217f14a4ada6c820e01720a11fca474e456203b487d30b"),
    (["series", "--help"], 0,
     "6da207a9e3752260d5825c03e06c4bba8f9f0fbb3da3a912a29412c084a348c8"),
    (["cumulants", "--help"], 0,
     "8e1023880d312e4731938e4ae866df10b0d320790e4096be9de971e2a8167fed"),
    (["forest", "--help"], 0,
     "8ab70a4e30995ea052e34cb34016cfff7fedccd4aa73a2f9cb7fc263b47b2161"),
    (["verify", "--help"], 0,
     "05f8d804981d2fe72de8a9383a91bed2979d119240cb2df6774763e08a896edf"),
    (["series", "--which", "bad"], 2,
     "303f2bc215005e8d91a862db941deda342a85b47be4fcf5f4dd94884207a8827"),
    (["series", "--which", "magnus", "--method", "bad"], 2,
     "186355582bfa1060682d56a89b6786f529d3511580e790abe429194a91bb845d"),
    (["verify", "--suite", "bad"], 2,
     "799a9d88a283a992bbd85e03d160e09d9921ecdd62f055eb4484193bc162ea39"),
    (["cumulants", "--from", "bad", "--to", "free", "--input", "x.json"], 2,
     "97b1c382da1df8f7097055e76e30a56c4f02c7336c9f803043917ddf926a30d0"),
    (["cumulants", "--from", "free", "--to", "bad", "--input", "x.json"], 2,
     "ddf418c7055a0b7fe2ce8876bdfd23458056d415bd736e59f0bfe14d28516492"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_help_texts_and_argparse_errors_are_pinned(monkeypatch, argv, code,
                                                   digest):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
    assert exc.value.code == code
    assert hashlib.sha256((out.getvalue() + "\0" + err.getvalue())
                          .encode()).hexdigest() == digest


# one past every cap of the table, with the one line it prints
@pytest.mark.parametrize("argv, message", [
    (["trees", "--max-order", "13"], "--max-order 13 exceeds the cap 12"),
    *[(["series", "--which", which, "--method", method, "--order", "13"],
       "--order 13 exceeds the cap 12")
      for which, method in [("exp", "closed"), ("exp", "fixed-point"),
                            ("magnus", "closed"), ("magnus", "fixed-point")]],
    (["series", "--which", "magnus", "--method", "sol1", "--order", "10"],
     "--order 10 exceeds the cap 9"),
    (["series", "--which", "magnus", "--order", "10", "--check"],
     "--order 10 exceeds the cap 9"),
    (["series", "--which", "exp", "--order", "13", "--check"],
     "--order 13 exceeds the cap 12"),
    (["forest", "--basis", "ck", "--index", "9:0", "--k", "2"],
     "index grade 9 exceeds the cap 8"),
    (["forest", "--basis", "words", "--index", "aaaaaaaaa", "--k", "2"],
     "index grade 9 exceeds the cap 8"),
    (["forest", "--basis", "ck", "--index", "[[]]", "--k", "7"],
     "--k 7 exceeds the cap 6"),
    (["cumulants", "--from", "free", "--to", "moment", "--input", None],
     "table maxlen 9 exceeds the cap 8"),
    *[(["verify", "--suite", suite, "--max-order", str(order)],
       "%s suite order %d exceeds the cap %d" % (suite, order, order - 1))
      for suite, order in [("trees", 11), ("hopf", 9), ("magnus", 10),
                           ("words", 7), ("forest", 9), ("cumulants", 13)]],
])
def test_one_past_each_cap_is_an_input_error(tmp_path, capsys, argv, message):
    argv = [_write_table(tmp_path / "free.json", 9) if a is None else a
            for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: %s (pass --unsafe-uncapped to override)\n"
                            % message)
