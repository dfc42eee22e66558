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
