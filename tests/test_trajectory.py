"""The parsing of `tools/trajectory.py`, on a canned run_bench.py output,
and its stress scenarios' trace digests at reduced sizes."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import specqueue.forest
from specqueue.simulator.workload import STRATEGIES

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "trajectory", ROOT / "tools" / "trajectory.py"
)
trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory)

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
