"""A budget on the interpreter work the engine does per event, and on
the work of setting up a workload per change.

Python-level calls made by `run`, counted with `sys.setprofile`, are
divided by the run's events, its arrivals and build completions. The
calls that generate, format and parse a workload are divided by its
changes. The count is deterministic for a given interpreter, so a
change that adds per-event or per-change work fails here before any
timing shows it. Each budget is a count measured on Python 3.11 plus
10%. Python 3.12 and later inline comprehensions, so their counts can
only be lower.
"""

from __future__ import annotations

import sys

import pytest

from specqueue.simulator import format_workload, generate_workload, parse_workload, run

from oracles import benchmark_stream

# Python calls per event, measured plus 10% when each row was set. The
# counts now read 39.34 and 39.87 (contended) and 36.10 and 35.49
# (overload), enhanced and baseline.
BUDGET = {
    ("contended", "enhanced"): 39.45 * 1.1,
    ("contended", "baseline"): 40.07 * 1.1,
    ("overload", "enhanced"): 36.19 * 1.1,
    ("overload", "baseline"): 35.58 * 1.1,
}


# Python calls per change to generate the first `steady` stream, format it
# and parse the text back, measured plus 10%. The count now reads 11.49.
SET_UP_BUDGET = 11.49 * 1.1


def python_calls(work):
    """The Python-level calls `work()` makes, and what it returns."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = work()
    finally:
        sys.setprofile(previous)
    return calls, result


def calls_per_event(workload, strategy: str) -> float:
    calls, (_, trace) = python_calls(lambda: run(workload, strategy))
    events = sum(1 for line in trace if line.split()[1] in ("arrive", "finish"))
    return calls / events


@pytest.mark.parametrize("stream, strategy", sorted(BUDGET))
def test_python_calls_per_event_within_budget(stream, strategy):
    # the first stream of the benchmark workload's batch
    params, config = benchmark_stream(stream)
    workload = generate_workload(params, config=config)
    assert calls_per_event(workload, strategy) <= BUDGET[(stream, strategy)]


def test_python_calls_per_change_to_set_up_within_budget():
    # drawn through the CLI, which generates on the default config
    params, _ = benchmark_stream("steady")
    calls, w = python_calls(
        lambda: parse_workload(format_workload(generate_workload(params)))
    )
    assert len(w.changes) == params.n_changes
    assert calls / params.n_changes <= SET_UP_BUDGET
