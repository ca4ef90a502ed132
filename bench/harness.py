"""Set up, simulate and measure one benchmark workload.

A workload is a batch of independent change streams generated from the
run's seed (stream k gets seed * 1000 + k), so that one run measures
enough simulated work for its figures to hold still from seed to seed.
Every stream is simulated through `specqueue simulate`, which writes
the metrics CSV and the trace that the audit and the digests read.

Host times are wall seconds on this process's single thread, scaled to
the reference host's speed by samples of a fixed calibration unit taken
while each section runs (calibration.py). Simulated figures come from
the enhanced runs, in virtual minutes, and repeat exactly for a given
seed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from specqueue import cli, simulator
from specqueue.core import EngineConfig

from audit import RunSummary, audit_run, nearest_rank
from calibration import SpeedGauge
from spans import SpanRecorder

SEED_STRIDE = 1000

# gen-workload flags for the generator fields steady sets
_CLI_GENERATOR_FLAGS = {
    "n_changes": "--n-changes",
    "arrival_rate": "--arrival-rate",
    "conflict_density": "--density",
}

# Spans whose call count is reported beside their self time.
COUNTED_SPANS = (
    "core.build_conflict_graph",
    "forest.enumerate_forest",
    "forest.resolve_change",
    "forest.carry_map",
    "forest.nodes_for_change",
    "prediction.predict_duration",
    "completion.p_finishes_before",
    "prioritize.profile_change",
    "prioritize.rank_builds",
    "selection.decide_change",
    "selection.select_builds",
)
SELF_TIME_ONLY_SPANS = (
    "simulator.generate_workload",
    "simulator.format_workload",
    "simulator.parse_workload",
    "simulator.static_conflict_rate",
    "simulator.run",
    "cli.main",
)


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@dataclass
class Instance:
    """One generated change stream, written to a workload file."""

    seed: int
    path: Path
    workload: simulator.WorkloadSpec
    text_digest: str
    setup_s: float  # reference seconds


@dataclass
class SimRun:
    seed: int
    strategy: str
    elapsed: float  # wall seconds
    scaled: float  # reference seconds
    summary: RunSummary | None = None
    metrics_digest: str = ""
    trace_digest: str = ""
    problems: list[str] = field(default_factory=list)
    spans: dict[str, list[float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.summary is not None and not self.problems


@dataclass
class Pass:
    runs: list[SimRun]

    @property
    def run_s(self) -> float:
        return sum(r.scaled for r in self.runs)

    @property
    def wall_s(self) -> float:
        return sum(r.elapsed for r in self.runs)

    def summaries(self) -> list[RunSummary]:
        """Summaries of the runs that completed and passed the audit."""
        return [r.summary for r in self.runs if r.ok]

    def digests(self) -> dict[str, str]:
        return {
            "metrics": digest(" ".join(r.metrics_digest for r in self.runs).encode()),
            "trace": digest(" ".join(r.trace_digest for r in self.runs).encode()),
        }


def instance_seeds(definition: dict, seed: int) -> list[int]:
    return [seed * SEED_STRIDE + k for k in range(definition["instances"])]


def set_up(
    definition: dict, seed: int, directory: Path, gauge: SpeedGauge
) -> Instance:
    """Generate a stream, format it to text and parse it back, timed."""
    path = directory / f"workload-{seed}.txt"
    gc.collect()
    with gauge.section() as timing:
        if definition["via_cli"]:
            argv = ["gen-workload", "--seed", str(seed), "--out", str(path)]
            for key, value in definition["generator"].items():
                argv += [_CLI_GENERATOR_FLAGS[key], str(value)]
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"gen-workload exited with {code}")
            text = path.read_text(encoding="utf-8")
        else:
            params = simulator.GeneratorParams(seed=seed, **definition["generator"])
            config = EngineConfig(**definition.get("config", {}))
            text = simulator.format_workload(
                simulator.generate_workload(params, config=config)
            )
            path.write_text(text, encoding="utf-8")
        workload = simulator.parse_workload(text)
    text_digest = digest(text.encode("utf-8"))
    return Instance(seed, path, workload, text_digest, timing.scaled_s)


def set_up_streams(
    definition: dict, seed: int, directory: Path, gauge: SpeedGauge
) -> list[Instance]:
    return [
        set_up(definition, s, directory, gauge)
        for s in instance_seeds(definition, seed)
    ]


def simulate(
    instance: Instance,
    strategy: str,
    directory: Path,
    gauge: SpeedGauge,
    recorder: SpanRecorder | None = None,
) -> SimRun:
    """One timed `specqueue simulate`, then the audit of what it wrote.

    With a recorder, the layers are wrapped for the timed call only.
    """
    metrics_path = directory / "metrics.csv"
    trace_path = directory / "trace.log"
    argv = [
        "simulate", "--workload", str(instance.path), "--strategy", strategy,
        "--out-metrics", str(metrics_path), "--out-trace", str(trace_path),
    ]
    tracing = contextlib.nullcontext() if recorder is None else recorder.installed()
    gc.collect()
    try:
        with gauge.section() as timing, tracing:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        run = SimRun(instance.seed, strategy, timing.wall_s, timing.scaled_s)
        run.problems.append("raised")
        return run
    run = SimRun(instance.seed, strategy, timing.wall_s, timing.scaled_s)
    if recorder is not None:
        run.spans = recorder.drain()
    if code != 0:
        run.problems.append(f"simulate exited with {code}")
        return run
    metrics = metrics_path.read_bytes()
    trace = trace_path.read_bytes()
    metrics_path.unlink()
    trace_path.unlink()
    run.metrics_digest = digest(metrics)
    run.trace_digest = digest(trace)
    try:
        run.summary, run.problems = audit_run(
            instance.workload,
            strategy,
            trace.decode("utf-8").splitlines(),
            metrics.decode("utf-8"),
        )
    except (KeyError, ValueError) as exc:
        run.problems.append(f"audit could not read the artifacts: {exc!r}")
    for problem in run.problems[:5]:
        print(f"audit seed={instance.seed} {strategy}: {problem}", file=sys.stderr)
    return run


def run_pass(
    instances: list[Instance], strategies: list[str], directory: Path, gauge: SpeedGauge
) -> Pass:
    return Pass(
        [
            simulate(instance, strategy, directory, gauge)
            for instance in instances
            for strategy in strategies
        ]
    )


@dataclass
class Outcome:
    """Everything one benchmark run found, before it is printed."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    digests: dict[str, str]
    samples: int
    # the traced run checks its untraced and traced halves against each other
    consistent: bool = True
    # printed beside the metrics, not reported as metrics
    notes: dict[str, float] = field(default_factory=dict)
    span_tables: dict = field(default_factory=dict)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted


def measure(
    definition: dict, seed: int, directory: Path, reference_s: float
) -> Outcome:
    """Untraced run: every end-to-end metric, from one pass over the batch."""
    gauge = SpeedGauge(reference_s)
    # every workload has at least 5 streams, so setup_s is a median of 5 or more
    instances = set_up_streams(definition, seed, directory, gauge)
    batch = run_pass(instances, definition["strategies"], directory, gauge)
    summaries = batch.summaries()
    enhanced = [s for s in summaries if s.strategy == "enhanced"]
    if not enhanced:
        raise RuntimeError("no enhanced run completed")
    waits = [w for s in enhanced for w in s.waits]
    metrics = {
        "setup_s": statistics.median(i.setup_s for i in instances),
        "run_s": batch.run_s,
        "changes_per_s": sum(s.decided for s in summaries) / batch.run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "builds_per_change": sum(s.builds_started for s in enhanced)
        / sum(s.decided for s in enhanced),
        "executor_minutes": sum(s.executor_minutes for s in enhanced),
        "p50_wait_min": nearest_rank(waits, 50),
        "p95_wait_min": nearest_rank(waits, 95),
    }
    return Outcome(
        metrics=metrics,
        attempted=len(batch.runs),
        failed=sum(not r.ok for r in batch.runs),
        digests=_digests(instances, batch),
        samples=len(waits),
        notes={
            "wall run_s, unscaled": batch.wall_s,
            "host slowdown (calibration / reference)": gauge.slowdown,
        },
    )


def measure_traced(
    definition: dict, seed: int, directory: Path, reference_s: float
) -> Outcome:
    """Traced run: every per-layer metric.

    Set-up is traced too, since generation is a layer. Each simulation
    then runs untraced and traced back to back, in alternating order, so
    the machine's drift falls on both sides of `trace.overhead_s` alike.
    """
    gauge = SpeedGauge(reference_s)
    recorder = SpanRecorder()
    with recorder.installed():
        instances = set_up_streams(definition, seed, directory, gauge)
    setup_table = recorder.drain()
    untraced, traced = [], []
    jobs = [(i, s) for i in instances for s in definition["strategies"]]
    for k, (instance, strategy) in enumerate(jobs):
        for with_trace in (k % 2 == 1, k % 2 == 0):
            if with_trace:
                traced.append(simulate(instance, strategy, directory, gauge, recorder))
            else:
                untraced.append(simulate(instance, strategy, directory, gauge))
    plain, traced_pass = Pass(untraced), Pass(traced)

    totals: dict[str, list[float]] = {}
    for table in [setup_table] + [r.spans for r in traced]:
        for name, (calls, self_s) in table.items():
            row = totals.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_s

    metrics: dict[str, float] = {}
    for name in COUNTED_SPANS + SELF_TIME_ONLY_SPANS:
        calls, self_s = totals.get(name, (0, 0.0))
        if name in COUNTED_SPANS:
            metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    counts, peaks = recorder.counts, recorder.peaks
    summaries = traced_pass.summaries()
    starts = sum(s.builds_started for s in summaries)
    decided = sum(s.decided for s in summaries)
    events = sum(s.events for s in summaries)
    executor_minutes = sum(s.executor_minutes for s in summaries)
    decide_calls = totals.get("selection.decide_change", (0, 0.0))[0]
    profile_calls = totals.get("prioritize.profile_change", (0, 0.0))[0]
    metrics.update(
        {
            "core.graph_edges": counts.get("core.graph_edges", 0),
            "forest.peak_live_nodes": peaks.get("forest.peak_live_nodes", 0),
            "forest.peak_queue_len": peaks.get("forest.peak_queue_len", 0),
            "prioritize.ranked_builds": counts.get("prioritize.ranked_builds", 0),
            "prioritize.fallback_share": _share(
                counts.get("prioritize.fallbacks", 0), profile_calls
            ),
            "selection.decide_wait_share": _share(
                counts.get("selection.decide_waits", 0), decide_calls
            ),
            "selection.builds_started": starts,
            "selection.abort_share": _share(sum(s.aborts for s in summaries), starts),
            "selection.aborted_minutes_share": _share(
                sum(s.aborted_minutes for s in summaries), executor_minutes
            ),
            "selection.bypass_share": _share(
                sum(s.bypasses for s in summaries), decided
            ),
            "simulator.events": events,
            "simulator.host_us_per_event": _share(plain.run_s * 1e6, events),
            "trace.overhead_s": traced_pass.run_s - plain.run_s,
        }
    )
    all_runs = untraced + traced
    return Outcome(
        metrics=metrics,
        attempted=len(all_runs),
        failed=sum(not r.ok for r in all_runs),
        digests=_digests(instances, traced_pass),
        samples=sum(len(s.waits) for s in summaries if s.strategy == "enhanced"),
        consistent=plain.digests() == traced_pass.digests(),
        notes={
            "untraced run_s": plain.run_s,
            "traced run_s": traced_pass.run_s,
            "share of traced wall run time in layer self times, "
            "without cli.main and simulator.run": _share(
                sum(
                    self_s
                    for r in traced
                    for name, (_, self_s) in r.spans.items()
                    if name not in ("cli.main", "simulator.run")
                ),
                traced_pass.wall_s,
            ),
            "host slowdown (calibration / reference)": gauge.slowdown,
        },
        span_tables={
            "setup": setup_table,
            "runs": [
                {"seed": r.seed, "strategy": r.strategy, "spans": r.spans}
                for r in traced
            ],
        },
    )


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _digests(instances: list[Instance], first: Pass) -> dict[str, str]:
    texts = " ".join(i.text_digest for i in instances)
    return {"workload": digest(texts.encode()), **first.digests()}
