"""The parsing of `tools/trajectory.py`, on canned run_bench.py outputs,
its layer table's arithmetic on a canned span table, and its stress
scenarios' trace digests and arrival counts at reduced sizes."""

from __future__ import annotations

import pytest

import specqueue.forest
from specqueue.simulator.workload import STRATEGIES

from oracles import load_tool

trajectory = load_tool("trajectory")

RESULT = (
    '{"correct": true, "attempted": 10, "failed": 0, "metrics": '
    '{"run_s": {"value": 0.716485948012481, "unit": "s"}, '
    '"executor_minutes": {"value": 116162.38, "unit": "min"}}}'
)
CANNED = f"""\
workload contended seed 1 trace 0: 5 streams x ['enhanced', 'baseline'], nproc 2, Python 3.11.7
  run_s = 0.716485948012481 s
  executor_minutes = 116162.38 min
  failed_share = 0.0 ratio (0 of 10 simulation runs)
  wait samples (changes decided by enhanced runs) = 2500
  (wall run_s, unscaled = 0.4669723119950504)
  digest workload = 532941110d4cc4c7488bc8a96d6b247c
  digest metrics = 9964aa36d8ce7e9f096be79070b8a283
  digest trace = 9b50ad253a2420fef8de115381f2ac6f
{RESULT}
"""


def test_a_run_s_result_and_digests_are_kept():
    parsed = trajectory.parse_run(CANNED)
    assert parsed["result"] == {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            "run_s": {"value": 0.716485948012481, "unit": "s"},
            "executor_minutes": {"value": 116162.38, "unit": "min"},
        },
    }
    assert list(parsed["digests"].items()) == [
        ("workload", "532941110d4cc4c7488bc8a96d6b247c"),
        ("metrics", "9964aa36d8ce7e9f096be79070b8a283"),
        ("trace", "9b50ad253a2420fef8de115381f2ac6f"),
    ]


@pytest.mark.parametrize(
    "stdout, message",
    [
        ("", "the run printed nothing"),
        (CANNED.replace(RESULT, "done"), "the run's last line is not its result"),
        (CANNED.replace(RESULT, "[1, 2]"), "the run's last line is not its result"),
        (
            CANNED.replace("digest trace = ", "digest trace "),
            "malformed digest line",
        ),
    ],
    ids=["empty", "no-json", "not-a-result", "bad-digest"],
)
def test_an_output_without_a_result_or_with_a_bad_digest_raises(stdout, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        trajectory.parse_run(stdout)


def test_each_run_is_the_benchmark_s_command_at_seed_1_untraced():
    assert trajectory.bench_command("steady")[1:] == [
        "bench/run_bench.py",
        "--workload",
        "steady",
        "--seed",
        "1",
        "--seconds",
        "30",
        "--trace",
        "0",
    ]
    assert trajectory.bench_command("steady", 1)[1:] == [
        *trajectory.bench_command("steady")[1:-1],
        "1",
    ]


TRACED_RESULT = (
    '{"correct": true, "attempted": 56, "failed": 0, "metrics": '
    '{"forest.carry_map.calls": {"value": 2800, "unit": "count"}, '
    '"forest.carry_map.self_s": {"value": 0.004528226127149537, "unit": "s"}, '
    '"simulator.host_us_per_event": {"value": 32.3740911033604, "unit": "us"}}}'
)
CANNED_TRACED = f"""\
workload overload seed 1 trace 1: 28 streams x ['enhanced'], nproc 2, Python 3.11.7
  forest.carry_map.calls = 2800 count
  forest.carry_map.self_s = 0.004528226127149537 s
  simulator.host_us_per_event = 32.3740911033604 us
  failed_share = 0.0 ratio (0 of 56 simulation runs)
  wait samples (changes decided by enhanced runs) = 2800
  (untraced run_s = 0.37204305495981765)
  (traced run_s = 0.4466967748510431)
  digest workload = 5533476a95b241eb5d224f36bdeaf52f
  digest metrics = 6128bc071b28448f36bba4fbf620ce99
  digest trace = 346b11f2fb5f3a92075b646ad2b5dc57
{TRACED_RESULT}
"""


def test_a_traced_run_s_per_layer_metrics_are_kept():
    parsed = trajectory.parse_run(CANNED_TRACED)
    assert parsed["result"]["correct"] is True
    assert parsed["result"]["metrics"] == {
        "forest.carry_map.calls": {"value": 2800, "unit": "count"},
        "forest.carry_map.self_s": {"value": 0.004528226127149537, "unit": "s"},
        "simulator.host_us_per_event": {"value": 32.3740911033604, "unit": "us"},
    }
    assert list(parsed["digests"]) == ["workload", "metrics", "trace"]


def test_a_layer_table_gives_the_time_no_span_wraps_as_engine_rest():
    # as `SpanRecorder.drain` gives them: [calls, self seconds] by span
    drained = {
        "prioritize.rank_builds": [40, 0.5],
        "forest.carry_map": [3, 0.25],
        "selection.decide_change": [7, 0.125],
    }
    assert trajectory.layer_table(drained, 1.5) == {
        "wall_s": 1.5,
        "forest.carry_map.calls": 3,
        "forest.carry_map.self_s": 0.25,
        "prioritize.rank_builds.calls": 40,
        "prioritize.rank_builds.self_s": 0.5,
        "selection.decide_change.calls": 7,
        "selection.decide_change.self_s": 0.125,
        "engine.rest.self_s": 0.625,
    }
    nothing = trajectory.layer_table({}, 0.75)
    assert nothing == {"wall_s": 0.75, "engine.rest.self_s": 0.75}


# Each stress scenario at a reduced size: its changes, and the trace
# digests of its enhanced and baseline runs. The sizes and seeds are fixed
# like every other pinned workload's.
PINNED_STRESS = {
    "hot-1": (
        60,
        "fc93ac9e12f50b46a2d0abacf169281b",
        "d6575c6538749c94b8c990fcc6baa8e1",
    ),
    "hot-3": (
        60,
        "deb3311c26ce9ab79d72ff68907e1e18",
        "46b672358bb2d24496b6652b027b7869",
    ),
    "dense-3": (
        100,
        "5f101043e31c96037e17e0aeb5f6ae79",
        "04786a0c35acdd84f6e10f707aa9c7f1",
    ),
    "scale-1": (
        1000,
        "b4231124e1495e5ed4259bd0013d2e1b",
        "4c3ab51dd43388f3c857ecfe2992d195",
    ),
}


# Each stress scenario's arrivals at the same sizes, enhanced and baseline:
# the most conflicting predecessors queued ahead of one, and how many had
# more of them than depth_cap 6.
PINNED_TRAFFIC = {
    "hot-1": [(5, 0), (11, 5)],
    "hot-3": [(6, 0), (12, 6)],
    "dense-3": [(6, 0), (6, 0)],
    "scale-1": [(3, 0), (3, 0)],
}


@pytest.mark.parametrize("name", list(PINNED_STRESS))
def test_a_stress_scenario_keeps_its_trace_digests_at_a_reduced_size(name):
    recipe, seed, _ = trajectory.STRESS[name]
    n_changes, *digests = PINNED_STRESS[name]
    workload = recipe(seed, n_changes)
    original = specqueue.forest.BuildNode
    runs = [trajectory.stress_run(workload, strategy) for strategy in STRATEGIES]
    assert specqueue.forest.BuildNode is original
    assert [run["trace_digest"] for run in runs] == digests
    assert all(run["nodes_made"] >= len(workload.changes) for run in runs)
    traffic = [(run["max_predecessors"], run["capped"]) for run in runs]
    assert traffic == PINNED_TRAFFIC[name]
