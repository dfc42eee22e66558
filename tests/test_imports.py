"""Every name a module of the package or of the tests imports is used, and
every private module-level helper of the package is read somewhere."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "prelie").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


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
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
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
