"""Every name a module of the package or of the tests imports is used,
every private module-level helper of the package is read somewhere, every
public name of the package is read by the package or declared as library
surface, and every memo is a cache worker or an object's table that the
commands hit."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "prelie").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def unused_imports(source: str) -> list:
    """The names that source imports and never reads; a name listed in its
    __all__ counts as read, and a from __future__ import is no name."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif _is_all(node):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    assert unused_imports(
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from math import comb, factorial\n"
        "from . import lincomb\n"
        "__all__ = ['lincomb']\n"
        "print(comb(4, 2))\n") == [(2, "os"), (2, "osp"), (3, "factorial")]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.relative_to(ROOT).as_posix(): unused
             for path in SOURCES
             if (unused := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


def _reads(node) -> set:
    """The names node reads: loaded names and attribute names (a helper
    reached as module._helper or through a monkeypatch string)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def orphaned_helpers(package: dict, others: dict) -> list:
    """(file, line, name) of every module-level function or class of the
    package sources whose name starts with "_" and that no source, of the
    package or of the others, reads outside its own definition.  Both map a
    file name to its source."""
    helpers = []
    read = set()
    for name, source in {**package, **others}.items():
        for node in ast.parse(source).body:
            reads = _reads(node)
            if (name in package
                    and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                helpers.append((name, node.lineno, node.name))
                reads.discard(node.name)  # recursion is no reader
            read |= reads
    return sorted(h for h in helpers if h[2] not in read)


def test_orphaned_helpers_are_found():
    package = {"mod.py": (
        "from functools import cache\n"
        "def _used(): return 1\n"
        "@cache\n"
        "def _recursive(n): return n and _recursive(n - 1)\n"
        "class _Orphan: pass\n"
        "def _by_attribute(): pass\n"
        "def _by_test(): pass\n"
        "def _by_string(): pass\n"
        "def __getattr__(name): raise AttributeError(name)\n"
        "def public(): return _used()\n")}
    others = {"test_mod.py": (
        "import mod\n"
        "mod._by_attribute()\n"
        "from mod import _by_test\n"
        "_by_test()\n"
        "def test(monkeypatch): monkeypatch.setattr(mod, '_by_string', 0)\n")}
    assert orphaned_helpers(package, others) == [
        ("mod.py", 4, "_recursive"), ("mod.py", 5, "_Orphan")]


def test_no_private_helper_is_left_unread():
    package = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in SOURCES if path.parent.name == "prelie"}
    others = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
              for path in SOURCES if path.parent.name != "prelie"}
    assert orphaned_helpers(package, others) == []


# the public names of the package that no package source reads, each kept as
# library surface for the reason given
DECLARED_SURFACE = {
    "freeprelie.brace": "named in the README; the B-series, word-basis GL and "
                        "chronological-algebra routes on the roadmap build "
                        "on it",
    "nc.NCPartition.is_irreducible": "named in the README with NCPartition",
    "nc.NCPartition.is_interval": "named in the README with NCPartition",
    "nc.enumerate_nc": "named in the README",
    "nc.nesting_forest": "named in the README",
    "trees.forest_from_string": "in the package's __all__",
    "cli._Parser.print_help": "argparse calls it",
}


def _loads(node) -> set:
    """The names node reads: loaded names, loaded attribute names, and the
    names a ``from ... import`` takes (``import x as y`` reads x)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unread_public_names(package: dict) -> list:
    """(file, line, name) of every public module-level function or class,
    and every public method (Class.method), of the package sources that no
    package source reads outside its own definition and outside __all__.
    Dunders and names starting with "_" are not public; package maps a file
    name to its source."""
    defined = []
    read = set()
    for name, source in package.items():
        for node in ast.parse(source).body:
            if _is_all(node):
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                read |= _loads(node)
                continue
            if not node.name.startswith("_"):
                defined.append((name, node.lineno, node.name, node.name))
            if isinstance(node, ast.FunctionDef):
                read |= _loads(node) - {node.name}  # recursion is no reader
                continue
            for sub in node.body:
                reads = _loads(sub)
                if isinstance(sub, ast.FunctionDef):
                    reads.discard(sub.name)
                    if not sub.name.startswith("_"):
                        defined.append((name, sub.lineno, sub.name,
                                        "%s.%s" % (node.name, sub.name)))
                read |= reads - {node.name}
            read |= set().union(*map(_loads, node.decorator_list + node.bases))
    return sorted((name, line, qual) for name, line, bare, qual in defined
                  if bare not in read)


def test_unread_public_names_are_found():
    package = {"mod.py": (
        "from .other import helper as alias\n"
        "__all__ = ['listed', 'used']\n"
        "def unread(): pass\n"
        "def listed(): pass\n"
        "def used(): return alias()\n"
        "def recursive(n): return n and recursive(n - 1)\n"
        "class Box:\n"
        "    def __eq__(self, other): return isinstance(other, Box)\n"
        "    def opened(self): return self.shut()\n"
        "    def shut(self): return self.size\n"
        "    def unread_method(self): return self.unread_method()\n"
        "def _private(): pass\n"
        "def __getattr__(name): raise AttributeError(name)\n"),
        "other.py": (
        "from . import mod\n"
        "def helper(): return mod.used()\n"
        "mod.Box().opened()\n")}
    assert unread_public_names(package) == [
        ("mod.py", 3, "unread"),
        ("mod.py", 4, "listed"),
        ("mod.py", 6, "recursive"),
        ("mod.py", 11, "Box.unread_method")]


def test_every_public_name_is_read_or_declared():
    # a name that only tests call is a test oracle (tests/oracles.py) or is
    # deleted; a declared entry that the package now reads, or that is gone,
    # is dropped from DECLARED_SURFACE
    package = {path.name: path.read_text(encoding="utf-8")
               for path in SOURCES if path.parent.name == "prelie"}
    found = {"%s.%s" % (name[:-3], qual)
             for name, _, qual in unread_public_names(package)}
    assert found - DECLARED_SURFACE.keys() == set()
    assert DECLARED_SURFACE.keys() - found == set()


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(package: dict) -> list:
    """(file, line, module.name) of every private name that a package source
    takes from a sibling module: ``from .m import _x``, or ``m._x`` where m
    is bound by ``from . import m``.  package maps a file name to its
    source."""
    found = []
    for name, source in package.items():
        tree = ast.parse(source)
        siblings = {alias.asname or alias.name: alias.name
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level
                    and node.module is None
                    for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found.extend((name, node.lineno,
                              "%s.%s" % (node.module, alias.name))
                             for alias in node.names if _private(alias.name))
            elif (isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in siblings):
                found.append((name, node.lineno, "%s.%s"
                              % (siblings[node.value.id], node.attr)))
    return sorted(found)


def test_private_reads_are_found():
    package = {"mod.py": (
        "from . import other, third as t\n"
        "from .other import _hidden, public\n"
        "from .third import _renamed as r, __version__\n"
        "other._helper()\n"
        "t._table[0] = 1\n"
        "self._own = other.public + t.__doc__\n"
        "def f(other2): return other2._field, _local()\n"
        "def _local(): return 0\n")}
    assert private_reads(package) == [
        ("mod.py", 2, "other._hidden"),
        ("mod.py", 3, "third._renamed"),
        ("mod.py", 4, "other._helper"),
        ("mod.py", 5, "third._table")]


def test_no_module_reads_a_private_name_of_another():
    package = {path.name: path.read_text(encoding="utf-8")
               for path in SOURCES if path.parent.name == "prelie"}
    assert private_reads(package) == []


# the module-level tables a function may fill: sigma's, which the benchmark's
# self-test clears, and the Bernoulli numbers, which grow in order
MODULE_TABLES = {("trees.py", "_SIGMA"), ("exactnum.py", "_BERNOULLI")}
_CONTAINERS = {"dict", "list", "set", "defaultdict", "Counter", "OrderedDict"}
_MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault",
             "pop", "popitem", "remove", "discard", "clear", "__setitem__"}


def _own_nodes(func):
    """The nodes of a function's body, without those of nested functions."""
    stack = [func]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child
                stack.append(child)


def _written_name(node):
    """The name a node writes into: ``x[k] = v``, ``del x[k]``, ``x[k] += v``
    or ``x.append(v)`` and the like write into x."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx,
                                                      (ast.Store, ast.Del)):
        target = node.value
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr in _MUTATORS):
        target = node.func.value
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def memo_policy_violations(package: dict) -> list:
    """(file, line, finding) for every memo of the package sources that is
    neither a functools.cache worker nor a table its object sets up in
    __init__: a module-level dict, list or set that a function writes (but
    MODULE_TABLES), a class defining __missing__, a weakref import, and an
    attribute assigned by a function other than __init__ and __new__."""
    found = []
    for name, source in package.items():
        tree = ast.parse(source)
        tables = {target.id for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  and (isinstance(node.value, (
                      ast.Dict, ast.List, ast.Set, ast.DictComp,
                      ast.ListComp, ast.SetComp))
                       or isinstance(node.value, ast.Call)
                       and isinstance(node.value.func, ast.Name)
                       and node.value.func.id in _CONTAINERS)
                  for target in (node.targets if isinstance(node, ast.Assign)
                                 else [node.target])
                  if isinstance(target, ast.Name)
                  and (name, target.id) not in MODULE_TABLES}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                found.extend((name, sub.lineno, "%s.__missing__" % node.name)
                             for sub in node.body
                             if isinstance(sub, ast.FunctionDef)
                             and sub.name == "__missing__")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([node.module] if isinstance(node, ast.ImportFrom)
                           else [alias.name for alias in node.names])
                found.extend((name, node.lineno, "import weakref")
                             for module in modules if module
                             and module.partition(".")[0] == "weakref")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in _own_nodes(node):
                    written = _written_name(sub)
                    if written in tables:
                        found.append((name, sub.lineno, "%s writes %s"
                                      % (node.name, written)))
                    elif (isinstance(sub, ast.Attribute)
                          and isinstance(sub.ctx, ast.Store)
                          and node.name not in ("__init__", "__new__")):
                        found.append((name, sub.lineno, "%s sets .%s"
                                      % (node.name, sub.attr)))
    return sorted(found)


def test_memo_policy_violations_are_found():
    package = {"mod.py": (
        "import weakref\n"
        "from functools import cache\n"
        "_MEMO = {}\n"
        "from weakref import ref\n"
        "_SEEN = set()\n"
        "_READ_ONLY = {'a': 1}\n"
        "_SIGMA = {}\n"
        "class Lazy(dict):\n"
        "    def __missing__(self, key): return key\n"
        "class Node:\n"
        "    def __init__(self): self.table = {}\n"
        "    def __new__(cls): return object.__new__(cls)\n"
        "    def fill(self, k): self.table[k] = 1\n"
        "    def shape(self): self._shape = 1\n"
        "@cache\n"
        "def cached(n): return _READ_ONLY.get(n)\n"
        "def memo(n):\n"
        "    _SIGMA[n] = n\n"
        "    _MEMO.setdefault(n, [])\n"
        "    def inner(): _MEMO[n] = 0\n"
        "    _SEEN.add(n)\n"
        "    return inner\n"),
        "trees.py": "_SIGMA = {}\ndef sigma(t): _SIGMA[t] = 1\n"}
    assert memo_policy_violations(package) == [
        ("mod.py", 1, "import weakref"),
        ("mod.py", 4, "import weakref"),
        ("mod.py", 9, "Lazy.__missing__"),
        ("mod.py", 14, "shape sets ._shape"),
        ("mod.py", 18, "memo writes _SIGMA"),  # excepted in trees.py only
        ("mod.py", 19, "memo writes _MEMO"),
        ("mod.py", 20, "inner writes _MEMO"),
        ("mod.py", 21, "memo writes _SEEN")]


def test_every_memo_is_a_cache_worker_or_an_object_table():
    package = {path.name: path.read_text(encoding="utf-8")
               for path in SOURCES if path.parent.name == "prelie"}
    assert memo_policy_violations(package) == []


def cache_workers(package: dict) -> list:
    """(module, name) of every function of the package sources decorated
    with functools.cache, as @cache or @functools.cache."""
    return sorted(
        (Path(name).stem, node.name)
        for name, source in package.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(d, ast.Name) and d.id == "cache"
                or isinstance(d, ast.Attribute) and d.attr == "cache"
                for d in node.decorator_list))


def test_cache_workers_are_found():
    package = {"mod.py": (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@cache\n"
        "def _a(n): return n\n"
        "@functools.cache\n"
        "def _b(n): return n\n"
        "@lru_cache(8)\n"
        "def _c(n): return n\n"
        "class K:\n"
        "    @cache\n"
        "    def m(self): return 0\n")}
    assert cache_workers(package) == [("mod", "_a"), ("mod", "_b"),
                                      ("mod", "m")]


# every command once, so each cache worker's hits and misses in the child
# come from the commands alone: the whole verification, the trees table,
# both series checks, a small cumulant conversion and a dump per basis
_COMMANDS_SCRIPT = """
import importlib, json, pkgutil, sys
from fractions import Fraction
import prelie
from prelie import cli
from prelie.nc import CumulantTable, iter_words
table = CumulantTable("free", ("a", "b"), 3, {
    w: Fraction(len(w)) for w in iter_words(("a", "b"), 3)})
with open(sys.argv[1], "w") as f:
    json.dump(table.to_json(), f)
for argv in (["verify", "--suite", "all"], ["trees", "--max-order", "6"],
             ["series", "--which", "exp", "--check"],
             ["series", "--which", "magnus", "--check"],
             ["cumulants", "--from", "free", "--to", "monotone",
              "--input", sys.argv[1]],
             ["forest", "--basis", "ck", "--index", "[[][]]", "--k", "3",
              "--flavor", "full"],
             ["forest", "--basis", "words", "--index", "abab", "--k", "3"]):
    if cli.main(argv):
        sys.exit("failed: %r" % (argv,))
sys.stdout.flush()
stats = {}
for info in pkgutil.iter_modules(prelie.__path__):
    module = importlib.import_module("prelie." + info.name)
    for name, obj in vars(module).items():
        if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
            stats[info.name + "." + name] = obj.cache_info()[:2]
print(json.dumps(stats), file=sys.stderr)
"""


def test_every_cache_worker_is_hit_by_a_command(tmp_path):
    # a memo stays only where a command hits it: each cache worker is
    # reached (a miss) and answers from its cache (a hit) at least once.
    # A fresh process, so no earlier test supplies the hits
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _COMMANDS_SCRIPT, str(tmp_path / "t.json")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stderr.splitlines()[-1])
    package = {path.name: path.read_text(encoding="utf-8")
               for path in SOURCES if path.parent.name == "prelie"}
    assert sorted(tuple(name.split(".")) for name in stats) \
        == cache_workers(package)
    assert {name: (hits, misses) for name, (hits, misses) in stats.items()
            if not hits or not misses} == {}
