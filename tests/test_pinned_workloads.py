"""The benchmark's pinned digests, checked on every test run.

The benchmark's set-up generates each workload's batch of streams for
its pinned seed and hashes their text; its pass simulates every stream
through `specqueue simulate`, once per strategy, and hashes the metrics
CSVs and the traces. `bench/reference.json` pins all three hashes.
Rebuilding the batches and rerunning the pass here the same way shows a
moved generator, formatter or engine without running the benchmark.
Nothing under `bench/` is written.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from specqueue.cli import GENERATOR_FLAGS, main
from specqueue.core import EngineConfig
from specqueue.simulator import GeneratorParams, format_workload, generate_workload

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text(
        encoding="utf-8"
    )
)
# stream k of a run with seed s gets seed s * SEED_STRIDE + k
SEED_STRIDE = 1000
# the gen-workload flag of each generator field
CLI_FLAGS = {
    field: "--" + key.replace("_", "-") for key, field in GENERATOR_FLAGS.items()
}


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def stream_text(definition: dict, seed: int, path: Path) -> str:
    """One stream's workload text, made as the benchmark's set-up makes it."""
    if definition["via_cli"]:
        argv = ["gen-workload", "--seed", str(seed), "--out", str(path)]
        for key, value in definition["generator"].items():
            argv += [CLI_FLAGS[key], str(value)]
        assert main(argv) == 0
        return path.read_text(encoding="utf-8")
    params = GeneratorParams(seed=seed, **definition["generator"])
    config = EngineConfig(**definition.get("config", {}))
    return format_workload(generate_workload(params, config=config))


@pytest.mark.parametrize("name", sorted(REFERENCE["workloads"]))
def test_the_pinned_seed_draws_the_pinned_workloads(name, tmp_path):
    definition = REFERENCE["workloads"][name]
    seed = REFERENCE["pinned_seed"]
    texts = [
        stream_text(definition, seed * SEED_STRIDE + k, tmp_path / f"w{k}.txt")
        for k in range(definition["instances"])
    ]
    batch = " ".join(digest(text.encode("utf-8")) for text in texts)
    assert digest(batch.encode()) == definition["pinned_digests"]["workload"]


@pytest.mark.parametrize("name", sorted(REFERENCE["workloads"]))
def test_the_pinned_seed_gives_the_pinned_metrics_and_traces(name, tmp_path):
    definition = REFERENCE["workloads"][name]
    seed = REFERENCE["pinned_seed"]
    metrics_path, trace_path = tmp_path / "metrics.csv", tmp_path / "trace.log"
    metrics, traces = [], []
    for k in range(definition["instances"]):
        path = tmp_path / f"w{k}.txt"
        path.write_text(
            stream_text(definition, seed * SEED_STRIDE + k, path), encoding="utf-8"
        )
        for strategy in definition["strategies"]:
            argv = [
                "simulate", "--workload", str(path), "--strategy", strategy,
                "--out-metrics", str(metrics_path), "--out-trace", str(trace_path),
            ]
            assert main(argv) == 0
            metrics.append(digest(metrics_path.read_bytes()))
            traces.append(digest(trace_path.read_bytes()))
    pinned = definition["pinned_digests"]
    assert digest(" ".join(metrics).encode()) == pinned["metrics"]
    assert digest(" ".join(traces).encode()) == pinned["trace"]
