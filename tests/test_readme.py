"""The README's examples run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from specqueue.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str) -> str:
    """The first fenced code block under a `## heading` of the README."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"^```\w*\n(.*?)^```$", section, re.S | re.M).group(1)


def test_the_command_line_examples_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in fenced_block("Command line").splitlines()]
    assert commands and all(argv[0] == "specqueue" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()


def test_the_library_example_runs(capsys):
    exec(fenced_block("Library"), {})
    assert capsys.readouterr().out
