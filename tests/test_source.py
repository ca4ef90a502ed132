"""Checks on the package source, and on the imports of the test modules,
read with `ast`."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "specqueue"
SOURCES = sorted(PACKAGE.rglob("*.py"))
# an __init__.py imports names to re-export them, not to use them
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize(
    "path",
    MODULES + TESTS,
    ids=lambda p: str(p.relative_to(PACKAGE if PACKAGE in p.parents else ROOT)),
)
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


def package_imports(source: str) -> set[str]:
    """The package modules a top-level module of the package imports, as
    dotted names; `from specqueue import m` and relative imports count."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = node.module or ""
            if node.level:
                module = "specqueue." + module if module else "specqueue"
            found.add(module)
            found.update(f"{module}.{a.name}" for a in node.names)
    return {m for m in found if m.startswith("specqueue.")}


# prioritize scores builds and selection ranks, chooses and decides; the
# forest below them knows neither
APART = [
    ("prioritize", "selection"),
    ("selection", "prioritize"),
    ("forest", "prioritize"),
    ("forest", "selection"),
]


@pytest.mark.parametrize("module, other", APART)
def test_scoring_ranking_and_the_forest_stay_apart(module, other):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert f"specqueue.{other}" not in package_imports(source)


def test_the_check_sees_each_import_form():
    source = (
        "from __future__ import annotations\nimport specqueue.core, os\n"
        "from specqueue import forest\nfrom .prioritize import rank_builds\n"
        "from . import selection\n"
    )
    assert package_imports(source) == {
        "specqueue.core",
        "specqueue.forest",
        "specqueue.prioritize",
        "specqueue.prioritize.rank_builds",
        "specqueue.selection",
    }


def wrapped_names(source: str) -> list[tuple[str, str]]:
    """(module, name) for each wrap that a span module's `_targets` returns
    in the namespace of a module it imports whole."""
    tree = ast.parse(source)
    imports = [n for n in tree.body if isinstance(n, ast.Import)]
    modules = {a.asname or a.name: a.name for n in imports for a in n.names}
    targets = next(n for n in tree.body if getattr(n, "name", None) == "_targets")
    wraps = next(n for n in ast.walk(targets) if isinstance(n, ast.Return)).value.elts
    return [
        (modules[owner.id], attr.value)
        for owner, attr, *_ in (w.elts for w in wraps)
        if isinstance(owner, ast.Name)
    ]


def called_names(source: str) -> set[str]:
    """The names a module calls directly, as `name(...)`."""
    calls = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)]
    return {c.func.id for c in calls if isinstance(c.func, ast.Name)}


# forest's wraps and the simulator package's re-exports are outside this rule
CALLERS = ["cli", "prioritize", "simulator.engine", "simulator.workload"]


def test_layer_functions_the_benchmark_wraps_are_called_where_it_wraps_them():
    # a wrapped name that is imported and read but never called keeps its
    # per-layer span at 0 calls while every other test passes
    wraps = wrapped_names((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    calls = {
        f"specqueue.{m}": called_names(
            (PACKAGE / f"{m.replace('.', '/')}.py").read_text(encoding="utf-8")
        )
        for m in CALLERS
    }
    assert calls.keys() <= {m for m, _ in wraps}
    uncalled = [(m, name) for m, name in wraps if m in calls and name not in calls[m]]
    assert uncalled == []


def test_the_check_sees_the_wraps_and_the_calls():
    spans = (
        "import specqueue.cli as cli\nfrom specqueue import forest\ndef _targets(r):\n"
        "    return ((cli, 'main', 'cli.main', None), (forest.F, 'f', 'f', None))\n"
    )
    assert wrapped_names(spans) == [("specqueue.cli", "main")]
    assert called_names("from m import f, g, h\nf(1)\nx = g\nobj.h()\n") == {"f"}


def sum_readers(source: str) -> list[str]:
    """The functions that read the name `sum`, by calling the builtin or
    passing it on, once per read, sorted; module level reads as
    `<module>`."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id == "sum":
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


# From Python 3.12 the builtin `sum` adds floats with compensation
# (Neumaier summation, gh-100425), so a float sum can round otherwise
# than on 3.10 and 3.11 and move a score, and with it a trace. The package
# adds floats with `+=` in an order it sets; the one `sum` it keeps counts
# the report's bypassed changes, booleans, which every version adds exactly.
SUM_READERS = {"simulator/engine.py": ["_report"]}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_the_package_adds_no_floats_with_the_builtin_sum(path):
    name = path.relative_to(PACKAGE).as_posix()
    assert sum_readers(path.read_text(encoding="utf-8")) == SUM_READERS.get(name, [])


def test_the_check_sees_each_sum():
    source = (
        "x = sum([1.0])\ndef f(r):\n    return sum(r) + g(sum) + r.sum()\n"
        "class K:\n    def h(self):\n        def inner():\n"
        "            return sum(())\n        return sum\n"
    )
    assert sum_readers(source) == ["<module>", "f", "f", "h", "inner"]
