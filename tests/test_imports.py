"""Every name a module of the package or of the tests imports is used."""

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
