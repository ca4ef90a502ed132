"""Virtual-time event loop driving the queue under a chosen strategy.

Arrivals and build completions are the only events. After every event
the engine resolves whatever changes have become decidable (repeating
until nothing more resolves, since one landing can unblock the next),
then re-profiles, re-ranks, and reconciles the executor: builds that
fell out of the chosen set abort, newly chosen ones start. All times are
virtual minutes; a run is a pure function of its workload.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass, replace
from typing import Sequence

from specqueue.core import (
    BuildOutcome,
    Change,
    ChangeId,
    EngineConfig,
    build_conflict_graph,
)
from specqueue.forest import (
    BaseKey,
    BuildNode,
    BuildStatus,
    NodeKey,
    SpeculationForest,
    carry_map,
    enumerate_forest,
    resolve_change,
)
from specqueue.prediction import (
    DurationEstimate,
    PredictionFeatures,
    predict_duration,
    predict_success,
)
from specqueue.prioritize import (
    BypassPartition,
    RankedBuild,
    profile_change,
    rank_builds,
)
from specqueue.selection import DecisionKind, decide_change, select_builds
from specqueue.simulator.metrics import MetricsReport, WaitRecord
from specqueue.simulator.workload import (
    STRATEGIES,
    WorkloadSpec,
    static_conflict_rate,
)

TraceLog = tuple[str, ...]

_ARRIVAL, _FINISH = 0, 1


class GroundTruth:
    """Deterministic real outcomes and durations behind the predictor.

    A build fails iff its change does not pass alone or any breaker is
    in the code the build ran against (mainline at start plus the
    assumed base). Durations are drawn once per (change, base) from the
    change's true normal, so reruns of the same build take equally long.
    """

    def __init__(self, workload: WorkloadSpec):
        self._specs = workload.by_id()
        self._seed = workload.seed

    def outcome(self, change: ChangeId, snapshot: frozenset[ChangeId]) -> BuildOutcome:
        spec = self._specs[change]
        if not spec.passes_alone or (snapshot & spec.breakers):
            return BuildOutcome.FAIL
        return BuildOutcome.PASS

    def duration(self, change: ChangeId, base: BaseKey) -> float:
        spec = self._specs[change]
        key = f"{self._seed}|{change.label}|{','.join(b.label for b in base)}"
        seed = int.from_bytes(
            hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
        )
        sample = random.Random(seed).gauss(
            spec.true_mean, math.sqrt(spec.true_variance)
        )
        return max(0.01, sample)


@dataclass
class _Run:
    """One executor occupancy; survives node relabelling via `key` updates."""

    token: int
    key: NodeKey
    started: float
    duration: float
    outcome: BuildOutcome


class _Simulation:
    def __init__(self, workload: WorkloadSpec, strategy: str):
        self.workload = workload
        self.strategy = strategy
        self.enhanced = strategy == "enhanced"
        self.cfg = workload.config
        # The baseline model has no speculation threshold: it fills
        # capacity with the most likely paths regardless of score.
        self.select_cfg = (
            self.cfg
            if self.enhanced
            else replace(self.cfg, speculation_threshold=0.0)
        )
        self.specs = workload.by_id()
        self.changes: dict[ChangeId, Change] = {
            s.id: s.to_change() for s in workload.changes
        }
        self.graph = build_conflict_graph(list(self.changes.values()))
        self.truth = GroundTruth(workload)
        self.now = 0.0
        self.heap: list[tuple] = []
        self.forest: SpeculationForest = enumerate_forest(
            [], self.graph, self.cfg.depth_cap
        )
        self.landed_set: set[ChangeId] = set()
        # live runs by token; a finished or aborted run leaves, so a
        # completion event whose token is gone is stale
        self.runs: dict[int, _Run] = {}
        self.running: dict[NodeKey, _Run] = {}
        self.next_token = 0
        self.trace: list[str] = []
        self.waits: list[WaitRecord] = []
        self.builds_started = 0
        self.abort_count = 0
        self.bypass_count = 0
        self.executor_minutes = 0.0
        self.waited_on_conflicts = 0
        self.decided = 0

    # -- event loop ---------------------------------------------------

    def execute(self) -> tuple[MetricsReport, TraceLog]:
        for spec in self.workload.changes:
            heapq.heappush(self.heap, (spec.arrival_time, _ARRIVAL, spec.id.seq))
        while self.heap:
            entry = heapq.heappop(self.heap)
            self.now = entry[0]
            if entry[1] == _ARRIVAL:
                self._arrive(self.workload.changes[entry[2]].id)
            elif not self._finish(entry[3]):
                continue  # stale completion; nothing changed
            self._settle()
        if self.forest.queue or self.running:
            raise RuntimeError(
                f"simulation drained with {len(self.forest.queue)} undecided changes"
            )
        return self._report(), tuple(self.trace)

    def _arrive(self, c: ChangeId) -> None:
        self.forest.add_change(c)
        conflicts_pending = len(self.forest.conflicting_ahead(c))
        if conflicts_pending:
            self.waited_on_conflicts += 1
        self._log(f"arrive {c.label} pending_conflicts={conflicts_pending}")

    def _finish(self, token: int) -> bool:
        run = self.runs.pop(token, None)
        if run is None:
            return False
        del self.running[run.key]
        node = self.forest.nodes[run.key]
        self.forest.update_node(node.completed(run.outcome, self.now))
        self.executor_minutes += run.duration
        self._log(
            f"finish {node.change.label} base={_base_str(node.base)} "
            f"outcome={run.outcome.value} elapsed={run.duration:.2f}"
        )
        return True

    # -- decisions ----------------------------------------------------

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            for c in list(self.forest.queue):
                if c not in self.forest.windows:
                    continue  # resolved earlier in this sweep
                decision = decide_change(c, self.forest, allow_bypass=self.enhanced)
                if decision.kind is DecisionKind.WAIT:
                    continue
                self._apply(decision)
                progress = True
        self._reschedule()

    def _apply(self, decision) -> None:
        c = decision.change
        spec = self.specs[c]
        landed = decision.kind is DecisionKind.LAND
        nodes = self.forest.nodes_for_change(c)
        post_build_wait = self.now - max(n.finished_at for n in nodes)
        bypassed: tuple[ChangeId, ...] = ()
        if decision.via_bypass:
            bypassed = self.forest.conflicting_ahead(c)
            self.bypass_count += 1

        mapping = carry_map(self.forest, c, landed)
        self.forest = resolve_change(self.forest, c, landed, mapping)
        survivors: dict[NodeKey, _Run] = {}
        for key, run in self.running.items():
            if key in mapping:
                run.key = mapping[key]
                survivors[run.key] = run
            else:
                # The build's base assumption just got contradicted; its
                # node is gone from the forest, so account directly.
                del self.runs[run.token]
                elapsed = self.now - run.started
                self.executor_minutes += elapsed
                self.abort_count += 1
                self._log(
                    f"abort {key[0].label} base={_base_str(key[1])} "
                    f"elapsed={elapsed:.2f}"
                )
        self.running = survivors

        if landed:
            self.landed_set.add(c)
        self.decided += 1
        wait = self.now - spec.arrival_time
        self.waits.append(
            WaitRecord(
                change=c.label,
                arrival=spec.arrival_time,
                decided_at=self.now,
                landed=landed,
                via_bypass=decision.via_bypass,
                post_build_wait=post_build_wait,
            )
        )
        verb = "land" if landed else "reject"
        self._log(
            f"{verb} {c.label} via_bypass={'yes' if decision.via_bypass else 'no'} "
            f"bypassed={_base_str(bypassed)} wait={wait:.2f} "
            f"post_wait={post_build_wait:.2f}"
        )

    # -- scheduling ---------------------------------------------------

    def _reschedule(self) -> None:
        self._annotate()
        partitions = self._partitions()
        ranked = rank_builds(self.forest, partitions, self._success_fn)
        running_nodes = [self.forest.nodes[key] for key in self.running]
        action = select_builds(ranked, running_nodes, self.select_cfg)
        scores = {r.node.key: r for r in ranked}
        for node in action.to_abort:
            self._abort(node)
        for node in action.to_start:
            self._start(node, scores[node.key])

    def _partitions(self) -> dict[ChangeId, BypassPartition]:
        if self.enhanced:
            arrivals = {c: self.changes[c].arrival_time for c in self.forest.queue}
            return {
                c: profile_change(c, self.forest, arrivals, self.cfg)
                for c in self.forest.queue
            }
        # Baseline: every conflicting predecessor is waited out.
        return {
            c: BypassPartition(
                change=c,
                non_bypassable=self.forest.window(c),
                bypassable=(),
                bypass_product=1.0,
                fallback_active=False,
            )
            for c in self.forest.queue
        }

    def _annotate(self) -> None:
        for node in self.forest.all_nodes():
            if node.estimate is not None:
                continue
            spec = self.specs[node.change]
            features = PredictionFeatures(
                targets_changed=len(spec.targets),
                conflicts_count=len(self.forest.window(node.change)),
                speculation_height=len(node.base),
            )
            estimate = predict_duration(
                self.workload.predictor,
                features,
                truth=DurationEstimate(spec.true_mean, spec.true_variance),
            )
            self.forest.update_node(node.with_estimate(estimate))

    def _success_fn(self, pred: ChangeId, context: BaseKey) -> float:
        window = self.forest.windows.get(pred)
        if window is not None:
            members = set(window)
            key = tuple(b for b in context if b in members)
            node = self.forest.nodes.get((pred, key))
            if node is not None and node.status is BuildStatus.COMPLETED:
                return 1.0 if node.outcome is BuildOutcome.PASS else 0.0
        return predict_success(self.changes[pred])

    def _start(self, node: BuildNode, ranked: RankedBuild) -> None:
        snapshot = frozenset(self.landed_set) | set(node.base)
        outcome = self.truth.outcome(node.change, snapshot)
        duration = self.truth.duration(node.change, node.base)
        token = self.next_token
        self.next_token += 1
        run = _Run(token, node.key, self.now, duration, outcome)
        self.runs[token] = run
        self.running[node.key] = run
        self.forest.update_node(node.started(self.now))
        self.builds_started += 1
        heapq.heappush(
            self.heap, (self.now + duration, _FINISH, node.change.seq, token)
        )
        self._log(
            f"start {node.change.label} base={_base_str(node.base)} "
            f"p={ranked.p_needed:.4f} mandatory={'yes' if ranked.mandatory else 'no'} "
            f"eta={node.estimate.mean:.2f}"
        )

    def _abort(self, node: BuildNode) -> None:
        run = self.running.pop(node.key)
        del self.runs[run.token]
        elapsed = self.now - run.started
        self.executor_minutes += elapsed
        self.abort_count += 1
        self.forest.update_node(self.forest.nodes[node.key].aborted(self.now))
        self._log(
            f"abort {node.change.label} base={_base_str(node.base)} "
            f"elapsed={elapsed:.2f}"
        )

    # -- reporting ----------------------------------------------------

    def _log(self, message: str) -> None:
        self.trace.append(f"t={self.now:.2f} {message}")

    def _report(self) -> MetricsReport:
        return MetricsReport(
            strategy=self.strategy,
            builds_started=self.builds_started,
            changes_decided=self.decided,
            executor_minutes=self.executor_minutes,
            bypass_count=self.bypass_count,
            abort_count=self.abort_count,
            waited_on_conflicts=self.waited_on_conflicts,
            conflict_rate=static_conflict_rate(self.workload),
            waits=tuple(self.waits),
        )


def _base_str(base: Sequence[ChangeId]) -> str:
    return ",".join(b.label for b in base)


def run(
    workload: WorkloadSpec, strategy: str | None = None
) -> tuple[MetricsReport, TraceLog]:
    """Simulate the workload; deterministic for identical inputs."""
    chosen = strategy if strategy is not None else workload.strategy
    if chosen not in STRATEGIES:
        raise ValueError(f"unknown strategy {chosen!r}")
    return _Simulation(workload, chosen).execute()


def run_baseline(workload: WorkloadSpec) -> tuple[MetricsReport, TraceLog]:
    """Simulate under the prior model: no bypassing, no threshold pruning."""
    return run(workload, "baseline")


def compare(
    workload: WorkloadSpec,
    variants: Sequence[tuple[str, str, EngineConfig]],
) -> list[MetricsReport]:
    """Run labeled (strategy, config) variants over one workload, in order."""
    if len(variants) < 2:
        raise ValueError("compare needs at least two variants")
    reports = []
    for label, strategy, config in variants:
        report, _ = run(replace(workload, config=config), strategy)
        reports.append(replace(report, strategy=label))
    return reports
