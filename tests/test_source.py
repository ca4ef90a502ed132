"""Checks on the package source, and on the imports of the test modules
and the tools, read with `ast`."""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Callable

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "specqueue"
SOURCES = sorted(PACKAGE.rglob("*.py"))
# an __init__.py imports names to re-export them, not to use them
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted((ROOT / "tests").glob("*.py"))
TOOLS = sorted((ROOT / "tools").glob("*.py"))


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
    MODULES + TESTS + TOOLS,
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


@pytest.mark.parametrize("path", TOOLS, ids=lambda p: str(p.relative_to(ROOT)))
def test_the_tools_import_only_the_standard_library(path):
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


def owned_reads(source: str, match: Callable[[ast.AST], list[str]]) -> list[str]:
    """Each name `match` finds in a node of the module, as `owner:name`,
    sorted. The owner is the dotted name of the enclosing classes and
    functions; module level reads as `<module>`."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{owner}.{child.name}" if owner != "<module>" else child.name
                visit(child, inner)
                continue
            found.extend(f"{owner}:{name}" for name in match(child))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def sum_readers(source: str) -> list[str]:
    """The owners that read the name `sum`, by calling the builtin or
    passing it on, once per read, sorted."""

    def match(node: ast.AST) -> list[str]:
        return ["sum"] if isinstance(node, ast.Name) and node.id == "sum" else []

    return sorted(read.rpartition(":")[0] for read in owned_reads(source, match))


# From Python 3.12 the builtin `sum` adds floats with compensation
# (Neumaier summation, gh-100425), so a float sum can round otherwise
# than on 3.10 and 3.11 and move a score, and with it a trace. The package
# adds floats with `+=` in an order it sets; the one `sum` it keeps counts
# the report's bypassed changes, booleans, which every version adds exactly.
SUM_READERS = {"simulator/engine.py": ["_Simulation._report"]}


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
    assert sum_readers(source) == ["<module>", "K.h", "K.h.inner", "f", "f"]


GRAPH_NAMES = ("ConflictGraph", "build_conflict_graph")


def graph_reads(source: str) -> list[str]:
    """Each read of the conflict graph's builder or type, by name, as an
    attribute or in an import, as `owner:name`, sorted."""

    def match(node: ast.AST) -> list[str]:
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name.split(".")[-1] for a in node.names]
        else:
            names = []
        return [n for n in names if n in GRAPH_NAMES]

    return owned_reads(source, match)


# The forest takes each change's targets, so only core.py names the graph's
# type, and the package builds a graph in two places: the simulation's
# set-up, which hands each change's targets to the scheduler on arrival,
# and `static_conflict_rate`. These are the two builds bench/spans.py
# times; ROADMAP items 1 and 17 retire them with their spans.
GRAPH_READS = {
    "core.py": ["build_conflict_graph:ConflictGraph"] * 2,
    "simulator/engine.py": [
        "<module>:build_conflict_graph",
        "_Simulation.__init__:build_conflict_graph",
    ],
    "simulator/workload.py": [
        "<module>:build_conflict_graph",
        "static_conflict_rate:build_conflict_graph",
    ],
}


def test_only_the_engine_and_the_conflict_rate_build_a_conflict_graph():
    reads = {
        path.relative_to(PACKAGE).as_posix(): graph_reads(
            path.read_text(encoding="utf-8")
        )
        for path in SOURCES
    }
    assert {name: found for name, found in reads.items() if found} == GRAPH_READS


def test_the_check_sees_each_graph_read():
    source = (
        "import specqueue.core as core\nfrom specqueue.core import ConflictGraph as G\n"
        "def f(t):\n    return core.build_conflict_graph(t)\n"
        "class K:\n    def h(self, g: 'x') -> ConflictGraph:\n        return g\n"
    )
    assert graph_reads(source) == [
        "<module>:ConflictGraph",
        "K.h:ConflictGraph",
        "f:build_conflict_graph",
    ]


HIDDEN = frozenset({"passes_alone", "breakers", "true_mean", "true_variance"})


def hidden_reads(source: str) -> list[str]:
    """Each read of a change's hidden truth, as an attribute or as a
    string naming it (as `getattr` takes it), as `owner:name`, sorted."""

    def match(node: ast.AST) -> list[str]:
        if isinstance(node, ast.Attribute) and node.attr in HIDDEN:
            return [node.attr]
        if isinstance(node, ast.Constant) and node.value in HIDDEN:
            return [node.value]
        return []

    return owned_reads(source, match)


# The workload module holds the records, the generator and the file form,
# so it reads the hidden truth throughout; in the rest of the package only
# `GroundTruth` does. The oracle predictor's truth is
# `GroundTruth.durations`, the one declared read from outside it.
TRUTH_MODULE = "simulator/workload.py"
TRUTH_READER = "GroundTruth"


def outside_hidden_reads(sources: dict[str, str]) -> list[str]:
    """The reads of a change's hidden truth, as `path:owner:name`, made
    outside the workload module and `GroundTruth`'s methods."""
    return [
        f"{name}:{read}"
        for name, source in sorted(sources.items())
        if name != TRUTH_MODULE
        for read in hidden_reads(source)
        if not read.startswith(f"{TRUTH_READER}.")
    ]


def package_sources() -> dict[str, str]:
    return {
        path.relative_to(PACKAGE).as_posix(): path.read_text(encoding="utf-8")
        for path in SOURCES
    }


def test_only_the_workload_and_the_ground_truth_read_a_change_s_hidden_truth():
    sources = package_sources()
    assert outside_hidden_reads(sources) == []
    # the fence has something to fence: the ground truth reads each name
    readers = hidden_reads(sources["simulator/engine.py"])
    assert {read.split(":")[1] for read in readers} == HIDDEN


def test_the_check_sees_each_hidden_read():
    source = (
        "x = spec.breakers\nclass K:\n    def f(self, s):\n"
        "        return getattr(s, 'true_mean') + s.true_variance\n"
        "    class Inner:\n        def g(self, s):\n"
        "            def h():\n                return s.passes_alone\n"
        "            return h\n"
        "def k(s):\n    return ChangeSpec(s.id, passes_alone=True, doc='breakers?')\n"
    )
    assert hidden_reads(source) == [
        "<module>:breakers",
        "K.Inner.g.h:passes_alone",
        "K.f:true_mean",
        "K.f:true_variance",
    ]


ENGINE = (PACKAGE / "simulator" / "engine.py").read_text(encoding="utf-8")
SIMULATION, SCHEDULER = (
    next(
        node
        for node in ast.parse(ENGINE).body
        if isinstance(node, ast.ClassDef) and node.name == name
    )
    for name in ("_Simulation", "Scheduler")
)


def methods(owner: ast.ClassDef) -> list[ast.FunctionDef]:
    return [node for node in owner.body if isinstance(node, ast.FunctionDef)]


def injected_true_mean_reads(method: ast.FunctionDef) -> list[str]:
    """The package's reads of hidden truth outside the workload module and
    `GroundTruth` once a read of `true_mean` opens the engine method's body,
    at its first statement's indent."""
    first = method.body[0]
    lines = ENGINE.splitlines(keepends=True)
    read = " " * first.col_offset + "self.workload.changes[0].true_mean\n"
    lines.insert(first.lineno - 1, read)
    sources = package_sources()
    sources["simulator/engine.py"] = "".join(lines)
    return outside_hidden_reads(sources)


@pytest.mark.parametrize("method", methods(SIMULATION), ids=lambda node: node.name)
def test_the_check_fails_when_a_simulation_method_reads_a_true_mean(method):
    assert injected_true_mean_reads(method) == [
        f"simulator/engine.py:_Simulation.{method.name}:true_mean"
    ]


@pytest.mark.parametrize("method", methods(SCHEDULER), ids=lambda node: node.name)
def test_the_check_fails_when_a_scheduler_method_reads_a_true_mean(method):
    assert injected_true_mean_reads(method) == [
        f"simulator/engine.py:Scheduler.{method.name}:true_mean"
    ]


def class_reads(owner: ast.ClassDef) -> set[str]:
    """The names and attributes the class's methods use, read or set,
    the functions nested in them included; a call uses the name it
    calls, as `f(...)` or `x.f(...)`."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for method in methods(owner)
        for node in ast.walk(method)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_the_check_sees_each_class_read():
    source = (
        "class K:\n    def f(self):\n        return g(self.h.m()) + T\n"
        "    def n(self):\n        def inner():\n            return x.truth\n"
        "        return inner\n"
        "    y = z\n"
    )
    (owner,) = ast.parse(source).body
    assert class_reads(owner) == {"T", "g", "h", "m", "self", "inner", "truth", "x"}


# The simulator keeps time, the ground truth, the runs and the trace; the
# `Scheduler` alone decides, scores, selects and updates the forest, and of
# the hidden truth holds only `GroundTruth.durations`, not the ground truth.
SCHEDULING = frozenset(
    {
        "decide_change",
        "carry_map",
        "resolve_change",
        "profile_change",
        "outcome_partition",
        "rank_builds",
        "select_builds",
        "predict_duration",
        "add_change",
        "complete",
    }
)
TRUTH = frozenset({"GroundTruth", "truth"})


def test_the_simulation_makes_no_scheduling_call():
    assert class_reads(SIMULATION) & SCHEDULING == set()
    # the fence has something to fence: the scheduler makes each call
    assert class_reads(SCHEDULER) >= SCHEDULING


def test_the_scheduler_holds_no_ground_truth():
    assert class_reads(SCHEDULER) & TRUTH == set()
    assert "durations" in class_reads(SCHEDULER)
    assert class_reads(SIMULATION) >= TRUTH


# The simulation hands the scheduler each change as it arrives, so no
# scheduler method can read a change that has not arrived yet.
WORKLOAD = frozenset({"workload", "WorkloadSpec"})


def test_the_scheduler_reads_no_workload():
    assert class_reads(SCHEDULER) & WORKLOAD == set()
    # the fence has something to fence: the simulation reads the workload
    assert "workload" in class_reads(SIMULATION)
