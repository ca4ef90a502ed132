"""The line tracer of `tools/uncovered.py`, on a small module."""

from __future__ import annotations

import runpy
import sys
import tracemalloc

from oracles import load_tool

uncovered = load_tool("uncovered")

SMALL = '''\
def pick(x):
    if x:
        return "yes"
    return "no"


def unused():
    return [
        n for n in range(3)
    ]


class Box:
    size = 1
'''


def test_the_tracer_lists_the_lines_a_run_never_reached(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "small.py").write_text(SMALL, encoding="utf-8")
    (tmp_path / "outside.py").write_text("x = 1\n", encoding="utf-8")
    previous = sys.gettrace()
    with uncovered.LineTracer(package) as tracer:
        pick = runpy.run_path(str(package / "small.py"))["pick"]
        assert pick(True) == "yes"
        runpy.run_path(str(tmp_path / "outside.py"))
    assert sys.gettrace() is previous
    assert list(tracer.ran) == [str(package / "small.py")]
    # the `else` return, and the body and comprehension of the uncalled function
    assert uncovered.unrun_lines(package, tracer.ran) == {
        package / "small.py": [4, 8, 9]
    }
    assert uncovered.unrun_lines(package, {}) == {
        package / "small.py": sorted(uncovered.executable_lines(package / "small.py"))
    }


def test_the_tracer_holds_no_memory_while_traced_code_runs(tmp_path):
    # a first call of a file, its first run of each line and every call
    # after them leave nothing allocated, so a test that measures what
    # code holds under `tracemalloc` measures that code alone
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "small.py").write_text(SMALL, encoding="utf-8")
    pick = runpy.run_path(str(package / "small.py"))["pick"]
    flags = (True, False) * 100

    def other(frame, event, arg):
        return other

    # the interpreter gives a code object a line table the first time it
    # traces it, whatever the tracer, and keeps it
    previous = sys.gettrace()
    sys.settrace(other)
    for flag in (True, False):
        pick(flag)
    sys.settrace(previous)
    with uncovered.LineTracer(package) as tracer:
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for flag in flags:
                pick(flag)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert held - before == 0
    # pick's first line, where each call starts, and its body
    assert tracer.ran == {str(package / "small.py"): {1, 2, 3, 4}}
