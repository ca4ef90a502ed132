"""List the lines of the package that no tier-1 test runs.

    python tools/uncovered.py [pytest arguments]

It runs the tier-1 command, `python -m pytest -q
--continue-on-collection-errors` with `src` on the path, in this process
under a `sys.settrace` line tracer that records only frames of files
under `src/specqueue`; pytest arguments given replace those two options.
It then prints `path:line: source` for each line of the package that
compiles to code and never ran, file by file, and exits with pytest's
status. Only the main thread is traced, and tier-1 starts no other; code
that a test runs in a child process is not traced, so a line reached
only there is listed. The tracer holds no new memory while the tests
run, so a test that measures what code holds under `tracemalloc` reads
what it reads without it. It uses only the standard library.
Tracing every line makes the run several times slower than a plain one,
so tier-1 does not run it.
"""

from __future__ import annotations

import os
import runpy
import sys
from pathlib import Path
from types import CodeType
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "specqueue"
TIER_1 = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that compile to code, its functions',
    classes' and comprehensions' included."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def _marker(lines: bytearray) -> Callable:
    """A local trace function that marks each line run in `lines`."""

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_lineno] = 1
        return local

    return local


class LineTracer:
    """While entered, records each line that runs in a file under `root`;
    frames of other files are not traced. `ran[filename]` is the lines
    that ran in each file of which any did.

    Each file under `root` gets a table with a byte per line and its own
    marker when the tracer is made, so a traced call or line only looks
    its file up and sets a byte: the tracer holds no new memory while the
    code it traces runs. A file added under `root` later is not traced.
    """

    def __init__(self, root: Path):
        self.files: dict[str, tuple[bytearray, Callable]] = {}
        for path in sorted(root.rglob("*.py")):
            lines = bytearray(path.read_bytes().count(b"\n") + 2)
            self.files[str(path)] = (lines, _marker(lines))

    def __call__(self, frame, event, arg):
        file = self.files.get(frame.f_code.co_filename)
        if file is None:
            return None
        lines, local = file
        lines[frame.f_lineno] = 1  # a call starts on its first line
        return local

    @property
    def ran(self) -> dict[str, set[int]]:
        return {
            filename: {line for line, hit in enumerate(lines) if hit}
            for filename, (lines, _) in self.files.items()
            if any(lines)
        }

    def __enter__(self) -> LineTracer:
        self.previous = sys.gettrace()
        sys.settrace(self)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self.previous)


def unrun_lines(root: Path, ran: dict[str, set[int]]) -> dict[Path, list[int]]:
    """Per source file under root, in path order, its executable lines
    that are not in `ran`, ascending; a file with none is left out."""
    unrun = {}
    for path in sorted(root.rglob("*.py")):
        missed = executable_lines(path) - ran.get(str(path), set())
        if missed:
            unrun[path] = sorted(missed)
    return unrun


def main(argv: list[str]) -> int:
    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    # tests that start a child process find the package as tier-1's do
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    os.chdir(ROOT)
    sys.argv = ["pytest", *(argv or TIER_1)]
    with LineTracer(PACKAGE) as tracer:
        try:
            runpy.run_module("pytest", run_name="__main__", alter_sys=True)
        except SystemExit as done:  # pytest's `__main__` always exits
            status = done.code
    unrun = unrun_lines(PACKAGE, tracer.ran)
    for path, lines in unrun.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in lines:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    total = sum(map(len, unrun.values()))
    print(f"{total} lines in {len(unrun)} files never ran", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
