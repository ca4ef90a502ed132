"""Checks on the package source itself, read with `ast`."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "specqueue"
SOURCES = sorted(PACKAGE.rglob("*.py"))
# an __init__.py imports names to re-export them, not to use them
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, sorted."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import os, sys\nfrom typing import Iterable, Sequence\nos.sep\nx: Sequence"
    assert unused_imports(source) == ["Iterable", "sys"]


def foreign_imports(source: str) -> list[str]:
    """The top-level modules a module imports from outside the standard
    library and this package, sorted."""
    roots: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return sorted(roots - sys.stdlib_module_names - {"specqueue"})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_the_package_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_foreign_import():
    source = (
        "from __future__ import annotations\nimport numpy as np, os.path\n"
        "from specqueue.core import ChangeId\nfrom . import forest\n"
        "from hypothesis.strategies import integers"
    )
    assert foreign_imports(source) == ["hypothesis", "numpy"]


MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def mutable_defaults(source: str) -> list[str]:
    """The functions and lambdas with a list, dict or set display or
    comprehension as a default, one evaluated once and shared by every
    call, as `name:line`, sorted by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            if any(isinstance(d, MUTABLE_DISPLAYS) for d in defaults):
                found.append((node.lineno, getattr(node, "name", "<lambda>")))
    return [f"{name}:{line}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_default_is_a_mutable_display(path):
    assert mutable_defaults(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_mutable_default():
    source = (
        "def a(x, y=()): ...\n"
        "def b(x, y=[]): ...\n"
        "async def c(*, y={}): ...\n"
        "class K:\n    def d(self, y={1}): ...\n"
        "e = lambda y=[i for i in ()]: y\n"
        "def f(y=None, *, z=frozenset(), w=None): ...\n"
        "def g(y={k: k for k in ()}): ...\n"
    )
    assert mutable_defaults(source) == ["b:2", "c:3", "d:5", "<lambda>:6", "g:8"]
