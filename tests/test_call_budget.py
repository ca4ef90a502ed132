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

# Python calls per event, measured plus 10%. Before the event path built
# no generator frames or unread records the counts were 77.09 and 69.73
# (contended) and 70.09 and 63.06 (overload), enhanced and baseline;
# before a decision was applied from its carry map alone they were 53.38
# and 49.46 (contended) and 48.94 and 45.65 (overload); before the
# speculation threshold was applied where builds are scored, and the
# queue's tail was no longer scanned for successors, 50.92 and 47.07
# (contended) and 46.45 and 43.16 (overload). Since the ground truth
# draws a duration through `Random.seed` and `Random.gauss` themselves,
# not an inline copy of them, they read 49.37 and 46.25 (contended) and
# 45.27 and 42.07 (overload), up from 48.31 and 45.00 and from 44.23 and
# 41.01. Since profiling pools a change's builds in one function and
# compares arrivals beside the pooled estimates, with no finish-time
# record, and a decision scans for queued predecessors outside a window
# only when the window is full, enhanced runs read 47.96 (contended) and
# 44.31 (overload); baseline runs are unchanged. Since a change's builds
# are pooled in one pass with `+=`, not through a padded list and a
# helper, enhanced runs read 46.66 (contended) and 43.66 (overload), and
# baseline runs 46.25 and 42.07 as before; the baseline rows stayed at
# 45.62 and 41.65, set when the speculation threshold moved to where
# builds are scored. Since a change with an empty window is ranked at 1
# by rule, unprofiled, and an event that moved nothing rescores nothing,
# every row is re-measured: 42.60 and 43.21 (contended) and 39.34 and
# 38.74 (overload), enhanced and baseline. Since a reschedule calls
# `_rescore` only when its events moved a change, they read 42.20 and
# 42.83 (contended) and 38.92 and 38.32 (overload). A `C<seq>` id reads
# its label from one shared table, in C, and the counts are unchanged.
# Since the forest files the predecessors a window's cap leaves out and a
# decision reads them, with no queue scan, they read 41.61 and 42.25
# (contended) and 38.34 and 37.74 (overload). Since the ground truth
# builds the run's one table of true durations in one comprehension, and
# no generator derives a second, they read 40.63 and 41.30 (contended)
# and 37.35 and 36.75 (overload). Since the forest files each queued
# change's conflicting successors, and no decision or rescore scans the
# queue for them, they read 39.45 and 40.07 (contended) and 36.19 and
# 35.58 (overload). Since a `Scheduler` decides, scores and selects apart
# from the simulation, each event makes one more call, its `reschedule`,
# and they read 40.43 and 40.97 (contended) and 37.19 and 36.58
# (overload); the rows were left as they were.
BUDGET = {
    ("contended", "enhanced"): 39.45 * 1.1,
    ("contended", "baseline"): 40.07 * 1.1,
    ("overload", "enhanced"): 36.19 * 1.1,
    ("overload", "baseline"): 35.58 * 1.1,
}


# Python calls per change to generate the first `steady` stream, format it
# and parse the text back, measured plus 10%. Before the generator made
# its draws' arithmetic inline and ChangeSpec set its slots through their
# descriptors, the count was 40.27 (30.94 generating, 0.06 formatting
# and 9.28 parsing); before the bisection's probes built no rows, 15.40;
# before ChangeSpec became a plain dataclass, whose `__post_init__` checks
# each label and target with one regular expression's C match in place of
# a Python helper, 13.83. Parsing shares each repeated `mu`/`var` text's
# float and each target name through two dicts' C `setdefault`, so the
# count is unchanged at 11.49; so is it since an id's constructor looks
# its seq up in the shared label table, in C, and since the records check
# their fields' types: the config and the predictor read their class's
# field table, and `ChangeSpec` tests its fields inline.
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
