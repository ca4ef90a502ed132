"""Write BENCH_<pr>.json: the benchmark's results on this checkout.

    python3 tools/trajectory.py PR

For each workload that BENCHMARK.json declares, in its order, it runs
the unchanged benchmark from the repository root,

    python3 bench/run_bench.py --workload W --seed 1 --seconds 30 --trace 0

one subprocess at a time, under the interpreter that runs this script.
From each run it keeps the JSON object on the last line of standard
output, and the digests the run prints. It records the commit checked
out (`git rev-parse HEAD`, or null outside a git checkout), whether
tracked files differ from it, the PR number given, the host's CPU count
as `os.cpu_count()` gives it (the `nproc` that run_bench.py prints) and
the Python version. It writes all of that to `BENCH_<pr>.json` at the
repository root, and exits 1 when a run is not correct, 0 otherwise.
A run that fails or prints no result stops it before anything is
written. It uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
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
