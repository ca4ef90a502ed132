"""Write BENCH_<pr>.json: the benchmark's results on this checkout, and
fixed stress scenarios run in process.

    python3 tools/trajectory.py PR

For each workload that BENCHMARK.json declares, in its order, it runs
the unchanged benchmark from the repository root twice,

    python3 bench/run_bench.py --workload W --seed 1 --seconds 30 --trace T

with T 0 and then 1, one subprocess at a time, under the interpreter
that runs this script. From each run it keeps the JSON object on the
last line of standard output, and the digests the run prints: the
untraced run's under `workloads`, and the traced run's, whose metrics
are the per-layer ones, under `layers`. It then runs each scenario of
`STRESS` through `specqueue.simulator.run` in this process, under both
strategies, one run at a time:

- `hot`: 1,000 changes at density 0.3 and 1/min on 72 executors, breaker
  rate 0, with target "hot" added to each change with probability 0.2,
  drawn in change order from `random.Random(5)`; seeds 1 and 3.
- `dense`: 1,000 changes at density 0.9, long-target bias 1 and 1/min on
  72 executors, with the default breaker rate; seed 3.
- `scale`: 20,000 changes at 5/min on 400 executors; seed 1.

Of each run it records the wall time of `run` alone, executor minutes,
builds started, aborts, the P50 and P95 wait, the build nodes the forest
made, the digest of the trace, and where the depth cap binds:
`max_predecessors`, the most queued conflicting predecessors any change
had on arrival, and `capped`, the changes that had more of them than
`depth_cap`, so that their window left some out. Arrival is when a
change has the most, since its predecessors only leave the queue after
it. Both counts are read from the trace's `arrive C<n>
pending_conflicts=N` lines. Nodes are counted by a `BuildNode` subclass
swapped into `specqueue.forest` for the run and restored after it, so
the wall time includes the counting. Each run is then made a second
time inside `bench/spans.py`'s `SpanRecorder().installed()`, loaded by
path, and its `layers` give each span's calls and self seconds, the
traced wall time, and `engine.rest.self_s`: that wall time less the
spans' self seconds, the time in the engine's own code (the event loop,
rescoring, success reads), which no span wraps. The plain run's wall
time stays the headline figure, since the spans slow a run down.

Under `traffic` it records the same two arrival counts for each
workload's batch at the pinned seed of `bench/reference.json`, every
stream drawn in process as `benchmark_stream` draws it and run under
each strategy: the most predecessors over the batch, and the capped
changes summed over it.

It records the commit checked out (`git rev-parse HEAD`, or null
outside a git checkout), whether tracked files differ from it, the PR
number given, the host's CPU count as `os.cpu_count()` gives it (the
`nproc` that run_bench.py prints) and the Python version. It writes all
of that to `BENCH_<pr>.json` at the repository root, and exits 1 when a
benchmark run is not correct, 0 otherwise. A run that fails or prints
no result stops it before anything is written. It uses only the
standard library, the package and `bench/spans.py`. Tests draw the
benchmark's streams through `benchmark_stream` and the `hot` and `dense`
streams through their recipes here, so each has one definition.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import json
import os
import platform
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Mapping, Sequence

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # run as a script: find the package without an install
    sys.path.insert(0, str(ROOT / "src"))

import specqueue.forest  # noqa: E402
from specqueue.core import EngineConfig  # noqa: E402
from specqueue.simulator import (  # noqa: E402
    GeneratorParams,
    WorkloadSpec,
    generate_workload,
    run,
)
from specqueue.simulator.workload import STRATEGIES  # noqa: E402

SEED = 1
DIGEST_PREFIX = "digest "
# bench/harness.py's: stream k of a batch at seed s gets seed s * SEED_STRIDE + k
SEED_STRIDE = 1000


def bench_command(workload: str, trace: int = 0) -> list[str]:
    return [
        sys.executable,
        "bench/run_bench.py",
        "--workload",
        workload,
        "--seed",
        str(SEED),
        "--seconds",
        "30",
        "--trace",
        str(trace),
    ]


def parse_run(stdout: str) -> dict:
    """A run's result, the JSON object on its last line, and its digests,
    from each `digest <artifact> = <value>` line, in printed order."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        raise ValueError(f"the run's last line is not its result: {lines[-1]!r}")
    digests = {}
    for line in lines[:-1]:
        text = line.strip()
        if text.startswith(DIGEST_PREFIX):
            artifact, eq, value = text[len(DIGEST_PREFIX) :].partition(" = ")
            if not eq:
                raise ValueError(f"malformed digest line: {line!r}")
            digests[artifact] = value
    return {"result": result, "digests": digests}


def run_workload(workload: str, trace: int = 0) -> dict:
    """One benchmark run of `workload`, parsed; a failed run raises."""
    done = subprocess.run(
        bench_command(workload, trace),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"run_bench.py --workload {workload} --trace {trace} exited "
            f"{done.returncode}: {done.stderr.strip()}"
        )
    return parse_run(done.stdout)


@functools.cache
def reference() -> dict:
    """`bench/reference.json`, read once: each workload's definition and
    the pinned seed."""
    return json.loads((ROOT / "bench" / "reference.json").read_text(encoding="utf-8"))


def benchmark_stream(name: str, k: int = 0) -> tuple[GeneratorParams, EngineConfig]:
    """Stream k of benchmark workload `name`'s batch at the pinned seed,
    drawn as bench/harness.py draws it. A workload drawn through the CLI
    takes the default config, as `gen-workload` does."""
    definition = reference()["workloads"][name]
    seed = reference()["pinned_seed"] * SEED_STRIDE + k
    config = {} if definition["via_cli"] else definition.get("config", {})
    return GeneratorParams(seed=seed, **definition["generator"]), EngineConfig(**config)


def hot(seed: int, n_changes: int) -> WorkloadSpec:
    params = GeneratorParams(
        n_changes=n_changes,
        arrival_rate=1.0,
        conflict_density=0.3,
        breaker_rate=0.0,
        seed=seed,
    )
    w = generate_workload(params, config=EngineConfig(executor_capacity=72))
    rng = random.Random(5)
    changes = tuple(
        [
            replace(s, targets=(*s.targets, "hot")) if rng.random() < 0.2 else s
            for s in w.changes
        ]
    )
    return replace(w, changes=changes)


def dense(seed: int, n_changes: int) -> WorkloadSpec:
    params = GeneratorParams(
        n_changes=n_changes,
        arrival_rate=1.0,
        conflict_density=0.9,
        long_target_bias=1.0,
        seed=seed,
    )
    return generate_workload(params, config=EngineConfig(executor_capacity=72))


def scale(seed: int, n_changes: int) -> WorkloadSpec:
    params = GeneratorParams(n_changes=n_changes, arrival_rate=5.0, seed=seed)
    return generate_workload(params, config=EngineConfig(executor_capacity=400))


# name: (recipe, seed, changes)
STRESS = {
    "hot-1": (hot, 1, 1000),
    "hot-3": (hot, 3, 1000),
    "dense-3": (dense, 3, 1000),
    "scale-1": (scale, 1, 20_000),
}


def stress_run(workload: WorkloadSpec, strategy: str) -> dict:
    """One in-process run of `workload`, with the nodes its forest made
    and, from its trace's `arrive` lines, the conflicting predecessors its
    arrivals queued behind."""
    made = 0
    original = specqueue.forest.BuildNode

    class CountedNode(original):
        __slots__ = ()

        def __init__(self, *args, **fields):
            nonlocal made
            made += 1
            super().__init__(*args, **fields)

    specqueue.forest.BuildNode = CountedNode
    try:
        started = time.perf_counter()
        report, trace = run(workload, strategy)
        wall_s = time.perf_counter() - started
    finally:
        specqueue.forest.BuildNode = original
    # "t=<now> arrive C<n> pending_conflicts=N"
    ahead = [
        int(tokens[3].partition("=")[2])
        for tokens in map(str.split, trace)
        if tokens[1] == "arrive"
    ]
    return {
        "wall_s": wall_s,
        "executor_minutes": report.executor_minutes,
        "builds": report.builds_started,
        "aborts": report.abort_count,
        "p50_wait_min": report.p50_wait,
        "p95_wait_min": report.p95_wait,
        "nodes_made": made,
        "max_predecessors": max(ahead),
        "capped": sum(n > workload.config.depth_cap for n in ahead),
        "trace_digest": hashlib.blake2b(
            ("\n".join(trace) + "\n").encode("utf-8"), digest_size=16
        ).hexdigest(),
    }


def load_spans():
    """`bench/spans.py`, loaded by its path: `bench/` is no package."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer_table(spans: Mapping[str, Sequence[float]], wall_s: float) -> dict:
    """A traced run's layers: each span's calls and self seconds, from
    `SpanRecorder.drain`'s [calls, self seconds] by span name, the traced
    wall time, and as `engine.rest.self_s` that wall time less the spans'
    self seconds, the time no span wraps."""
    table: dict = {"wall_s": wall_s}
    for name, (calls, self_s) in sorted(spans.items()):
        table[f"{name}.calls"] = calls
        table[f"{name}.self_s"] = self_s
    table["engine.rest.self_s"] = wall_s - sum([self_s for _, self_s in spans.values()])
    return table


def traced_run(spans, workload: WorkloadSpec, strategy: str) -> dict:
    """One run of `workload` with every layer's spans recorded, as its
    `layer_table`. `run` is called unwrapped, so no span encloses it."""
    recorder = spans.SpanRecorder()
    with recorder.installed():
        started = time.perf_counter()
        run(workload, strategy)
        wall_s = time.perf_counter() - started
    return layer_table(recorder.drain(), wall_s)


def stress() -> dict:
    """Each scenario of `STRESS` under each strategy, with its layers."""
    spans = load_spans()
    results = {}
    for name, (recipe, seed, n_changes) in STRESS.items():
        workload = recipe(seed, n_changes)
        results[name] = {
            s: {**stress_run(workload, s), "layers": traced_run(spans, workload, s)}
            for s in STRATEGIES
        }
    return results


def traffic(name: str) -> dict:
    """Under each strategy, the most conflicting predecessors a change of
    benchmark workload `name`'s batch queued behind on arrival, and the
    changes past `depth_cap` summed over the batch."""
    workloads = []
    for k in range(reference()["workloads"][name]["instances"]):
        params, config = benchmark_stream(name, k)
        workloads.append(generate_workload(params, config=config))
    results = {}
    for strategy in STRATEGIES:
        runs = [stress_run(w, strategy) for w in workloads]
        results[strategy] = {
            "max_predecessors": max([r["max_predecessors"] for r in runs]),
            "capped": sum([r["capped"] for r in runs]),
        }
    return results


def git(*args: str) -> str | None:
    """A git command's output in the repository root, or None when it fails."""
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def trajectory(pr: int) -> dict:
    """The benchmark's results on this checkout, with what identifies it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "pr": pr,
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": SEED,
        "workloads": {w["name"]: run_workload(w["name"]) for w in spec["workloads"]},
        "layers": {w["name"]: run_workload(w["name"], 1) for w in spec["workloads"]},
        "traffic": {w["name"]: traffic(w["name"]) for w in spec["workloads"]},
        "stress": stress(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="the PR number the file is named by")
    args = parser.parse_args(argv)
    document = trajectory(args.pr)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    wrong = [
        f"{w} ({kind})"
        for kind in ("workloads", "layers")
        for w, run in document[kind].items()
        if not run["result"]["correct"]
    ]
    if wrong:
        print(f"error: not correct on {', '.join(wrong)}", file=sys.stderr)
        return 1
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
