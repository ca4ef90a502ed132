"""Write BENCH_<pr>.json: the benchmark's results on this checkout, and
fixed stress scenarios run in process.

    python3 tools/trajectory.py PR

For each workload that BENCHMARK.json declares, in its order, it runs
the unchanged benchmark from the repository root,

    python3 bench/run_bench.py --workload W --seed 1 --seconds 30 --trace 0

one subprocess at a time, under the interpreter that runs this script.
From each run it keeps the JSON object on the last line of standard
output, and the digests the run prints. It then runs each scenario of
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
made and the digest of the trace. Nodes are counted by a `BuildNode`
subclass swapped into `specqueue.forest` for the run, so the wall time
includes the counting. It records the commit checked out (`git
rev-parse HEAD`, or null outside a git checkout), whether tracked files
differ from it, the PR number given, the host's CPU count as
`os.cpu_count()` gives it (the `nproc` that run_bench.py prints) and the
Python version. It writes all of that to `BENCH_<pr>.json` at the
repository root, and exits 1 when a benchmark run is not correct, 0
otherwise. A run that fails or prints no result stops it before anything
is written. It uses only the standard library and the package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

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


def bench_command(workload: str) -> list[str]:
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
        "0",
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


def run_workload(workload: str) -> dict:
    """One benchmark run of `workload`, parsed; a failed run raises."""
    done = subprocess.run(
        bench_command(workload), cwd=ROOT, capture_output=True, text=True, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"run_bench.py --workload {workload} exited {done.returncode}: "
            f"{done.stderr.strip()}"
        )
    return parse_run(done.stdout)


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
    """One in-process run of `workload`, with the nodes its forest made."""
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
    return {
        "wall_s": wall_s,
        "executor_minutes": report.executor_minutes,
        "builds": report.builds_started,
        "aborts": report.abort_count,
        "p50_wait_min": report.p50_wait,
        "p95_wait_min": report.p95_wait,
        "nodes_made": made,
        "trace_digest": hashlib.blake2b(
            ("\n".join(trace) + "\n").encode("utf-8"), digest_size=16
        ).hexdigest(),
    }


def stress() -> dict:
    """Each scenario of `STRESS` under each strategy."""
    results = {}
    for name, (recipe, seed, n_changes) in STRESS.items():
        workload = recipe(seed, n_changes)
        results[name] = {s: stress_run(workload, s) for s in STRATEGIES}
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
        "stress": stress(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="the PR number the file is named by")
    args = parser.parse_args(argv)
    document = trajectory(args.pr)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    wrong = [w for w, run in document["workloads"].items() if not run["result"]["correct"]]
    if wrong:
        print(f"error: not correct on {', '.join(wrong)}", file=sys.stderr)
        return 1
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
