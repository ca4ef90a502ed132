"""specqueue benchmark: host speed and simulated queue outcomes.

Run one workload from the repository root:

    python3 bench/run_bench.py --workload steady --seed 1 --seconds 30 --trace 0

With --trace 0 it prints every end-to-end metric of BENCHMARK.json;
with --trace 1 it wraps each layer's functions and prints every
per-layer metric instead. Each metric goes on its own line with its
unit, and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workload definitions, the pinned seed's digests and the reference
numbers live in bench/reference.json; see bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    # Each workload's batch is fixed, so its figures repeat exactly for a seed;
    # it was sized to run about BENCHMARK.json's run_seconds on the reference
    # host. The flag is part of the benchmark's interface and sets nothing.
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name to unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "specqueue" / "__init__.py").is_file():
        print(f"error: no specqueue sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # needs the package on the path

    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    definition = reference["workloads"].get(args.workload)
    if definition is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reference_s = reference["host"]["calibration_s"]
    units = declared_metrics(bool(args.trace))

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        if args.trace:
            outcome = harness.measure_traced(
                definition, args.seed, Path(tmp), reference_s
            )
        else:
            outcome = harness.measure(definition, args.seed, Path(tmp), reference_s)

    if set(outcome.metrics) != set(units):
        print(
            "error: measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(outcome.metrics) ^ set(units))}",
            file=sys.stderr,
        )
        return 2
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(outcome.span_tables) + "\n", encoding="utf-8")

    pinned = reference["pinned_seed"] == args.seed
    digests_match = not pinned or outcome.digests == definition["pinned_digests"]
    correct = outcome.failed == 0 and outcome.consistent and digests_match

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{definition['instances']} streams x {definition['strategies']}, "
          f"nproc {os.cpu_count()}, Python {platform.python_version()}")
    for name, unit in units.items():
        print(f"  {name} = {outcome.metrics[name]!r} {unit}")
    print(f"  failed_share = {outcome.failed_share!r} ratio "
          f"({outcome.failed} of {outcome.attempted} simulation runs)")
    print(f"  wait samples (changes decided by enhanced runs) = {outcome.samples}")
    for note, value in outcome.notes.items():
        print(f"  ({note} = {value!r})")
    for artifact, value in outcome.digests.items():
        print(f"  digest {artifact} = {value}")
    if not outcome.consistent:
        print("  digests differ between the untraced and traced runs", file=sys.stderr)
    if not digests_match:
        print(f"  digests differ from the pinned seed's {definition['pinned_digests']}",
              file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
