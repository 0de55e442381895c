"""Static checks on src/mvlab/*.py, with the stdlib ast module.

Every module-level import is used by its module. __init__.py is exempt (it
imports to re-export), and so is any imported name whose line carries a
"# noqa" marker.

Every private module-level name (a function, class or assignment whose name
starts with one underscore) is referenced outside its own definition:
elsewhere in its module, or by a relative import in another module of the
package, which the first check then holds to a use.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mvlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import (\n"
        "    gcd,\n"
        "    lcm,  # noqa: F401\n"
        "    prod,\n"
        ")\n"
        "x = gcd(2, 4)\n"
    )
    assert unused_imports(source) == [(2, "os"), (6, "prod")]


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def dead_private_names(sources):
    """(module, line, name) for each private module-level name of the
    modules in sources (a dict from module name to source text) that no
    module references outside the name's own definition."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    imported = {
        (node.module, alias.name)
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined_names(node):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                used = (module, name) in imported or any(
                    isinstance(n, ast.Name) and n.id == name
                    for other in tree.body
                    if other is not node
                    for n in ast.walk(other)
                )
                if not used:
                    dead.append((module, node.lineno, name))
    return sorted(dead)


def test_no_dead_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert dead_private_names(sources) == []


def test_dead_private_name_detector():
    sources = {
        "a": (
            "from .b import _shared\n"
            "_CACHE: list = []\n"
            "_LIMIT = 3\n"
            "def _rec(k):\n"
            "    return _rec(k - 1) if k else _LIMIT\n"
            "def _wrap(fn):\n"
            "    return fn\n"
            "@_wrap\n"
            "def f():\n"
            "    return _shared()\n"
            "__all__ = ['f']\n"
        ),
        "b": "def _shared():\n    return 1\ndef _unused():\n    return 2\n",
    }
    assert dead_private_names(sources) == [
        ("a", 2, "_CACHE"),
        ("a", 4, "_rec"),
        ("b", 3, "_unused"),
    ]
