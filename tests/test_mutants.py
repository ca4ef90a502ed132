"""Every named mutant in `tests/mutants.py` fails its check, and every
check passes on the package as it is."""

from __future__ import annotations

import pytest

from specqueue.simulator.engine import Scheduler

from mutants import MUTANTS, mutate


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_the_check_passes_and_the_mutant_fails_it(mutant, monkeypatch):
    mutant.check()
    original = vars(mutant.owner)[mutant.attribute]
    monkeypatch.setattr(
        mutant.owner, mutant.attribute, mutate(original, mutant.old, mutant.new)
    )
    with pytest.raises(AssertionError):
        mutant.check()


def test_a_mutant_keeps_its_function_s_file_lines_and_module():
    original = vars(Scheduler)["reschedule"]
    mutated = mutate(original, "if self.moved:", "if self.moved or True:")
    assert mutated is not original
    for name in ("co_filename", "co_firstlineno", "co_name"):
        assert getattr(mutated.__code__, name) == getattr(original.__code__, name)
    assert mutated.__globals__ is original.__globals__


@pytest.mark.parametrize("old", ["if self.moved is None:", "self."])
def test_an_edit_must_match_once(old):
    with pytest.raises(ValueError, match="times, not once$"):
        mutate(vars(Scheduler)["_rescore"], old, "")
