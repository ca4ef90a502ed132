"""Virtual-time event loop driving the queue under a chosen strategy.

Arrivals and build completions are the only events. An arrival decides
nothing; a finished build can only make its own change decidable, and a
decision can only unblock the later queued changes that conflict with
it, which are decided next in queue order.

After every event the engine re-profiles and re-scores only what the
event moved, and an event that moved nothing rescores nothing. A
change's pooled estimate moves when it arrives, when one of its builds
finishes, and when a decision re-derives its window; starts and aborts
touch no node, since the table of live runs alone records which builds
run. A change is re-scored when its estimate moved or its window holds
a change whose estimate moved, since its partition and scores read
nothing else; its builds at or above the strategy's floor replace its
builds in the `selection.RankOrder` kept across events, and a change
leaves it when it is decided. A change with an empty window waits on
nobody, so its one build scores exactly 1 under either strategy: it is
ranked by that rule, neither profiled nor scored. Builds that fell out
of the order's first capacity abort, newly chosen ones start. A run
holds its build's node, so a decision leaves the runs it carries as
they are and aborts only those whose nodes vanish. All times are
virtual minutes; a run is a pure function of its workload.

Per-change data, the targets the forest reads included, is indexed by
change id, which is the change's position in the workload's change tuple.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass
from operator import attrgetter
from typing import AbstractSet, Sequence

# bench/spans.py wraps the layer functions imported below by name in this
# module's namespace, so they stay imported and called here
from specqueue.core import BuildOutcome, ChangeId, build_conflict_graph
from specqueue.forest import (
    BaseKey,
    BuildNode,
    SpeculationForest,
    carry_map,
    enumerate_forest,
    resolve_change,
)
from specqueue.prediction import (
    DurationEstimate,
    PredictionFeatures,
    estimates_stay_finite,
    predict_duration,
)
from specqueue.prioritize import (
    BypassPartition,
    outcome_partition,
    profile_change,
    rank_builds,
)
from specqueue.selection import (
    DecisionKind,
    RankOrder,
    decide_change,
    select_builds,
)
from specqueue.simulator.metrics import MetricsReport, WaitRecord
from specqueue.simulator.workload import (
    STRATEGIES,
    WorkloadError,
    WorkloadSpec,
    static_conflict_rate,
)

TraceLog = tuple[str, ...]

_ARRIVAL, _FINISH = 0, 1
_LABEL = attrgetter("label")


class GroundTruth:
    """The engine's one reader of each change's hidden truth: whether it
    passes alone, its breakers, and `durations`, the run's one table of
    true duration normals by id, which the oracle predictor reads too.

    A build fails iff its change does not pass alone or any breaker is
    in the code the build ran against: the changes landed when it
    started, or its assumed base. Durations are drawn once per (change,
    base) from the change's true normal, so reruns of the same build
    take equally long. A draw is `Random(s).gauss(mean, sqrt(variance))`
    for s the blake2b hash of "seed|change|base": one generator is
    reseeded per draw, so no draw depends on an earlier one. Set-up
    raises `WorkloadError` if the predictor can overflow an estimate.
    """

    def __init__(self, workload: WorkloadSpec):
        changes = self._changes = workload.changes
        # per change, by id: its hash key's prefix
        self._prefix = tuple(f"{workload.seed}|{s.id.label}|" for s in changes)
        self.durations = tuple(
            [DurationEstimate(s.true_mean, s.true_variance) for s in changes]
        )
        # an estimate grows with its truth, so the largest true mean and
        # variance bound every estimate the predictor makes in this run
        largest = DurationEstimate(
            max([s.true_mean for s in changes]), max([s.true_variance for s in changes])
        )
        if not estimates_stay_finite(workload.predictor, largest):
            raise WorkloadError(
                f"predictor {workload.predictor!r} overflows a duration estimate: "
                f"the largest true mean is {largest.mean!r} and variance "
                f"{largest.variance!r}"
            )
        self._rng = random.Random()

    def outcome(
        self, change: ChangeId, landed: AbstractSet[ChangeId], base: BaseKey
    ) -> BuildOutcome:
        spec = self._changes[change]
        if not spec.passes_alone:
            return BuildOutcome.FAIL
        for b in spec.breakers:
            if b in landed or b in base:
                return BuildOutcome.FAIL
        return BuildOutcome.PASS

    def duration(self, change: ChangeId, base: BaseKey) -> float:
        key = self._prefix[change] + _base_str(base)
        self._rng.seed(
            int.from_bytes(
                hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
            )
        )
        normal = self.durations[change]
        return max(0.01, self._rng.gauss(normal.mean, math.sqrt(normal.variance)))


@dataclass(slots=True)
class _Run:
    """One executor occupancy of a node's build, whatever base it is carried to."""

    node: BuildNode
    started: float
    duration: float
    outcome: BuildOutcome
    number: int  # start order; a decision logs its aborts in this order


class _Simulation:
    """One run under one strategy: the scheduler's state and the event
    loop's. It reads no change's hidden truth but through `truth`, as
    tests/test_source.py pins."""

    def __init__(self, workload: WorkloadSpec, strategy: str):
        self.workload = workload
        self.strategy = strategy
        self.enhanced = strategy == "enhanced"
        self.cfg = workload.config
        # the lowest score a build may run at: the baseline has no
        # speculation threshold, it fills capacity regardless of score
        self.floor = self.cfg.speculation_threshold if self.enhanced else 0.0
        # indexed by change id: an id is its position in workload.changes
        self.arrivals = tuple(s.arrival_time for s in workload.changes)
        self.truth = GroundTruth(workload)
        # one immutable record per distinct (targets, conflicts, height)
        self._features: dict[tuple[int, int, int], PredictionFeatures] = {}
        self.now = 0.0
        self._stamp = ""  # "t=<now> ", the prefix of every line an event logs
        self.heap: list[tuple] = []
        self.forest: SpeculationForest = enumerate_forest(
            [],
            # the forest reads only targets; bench/spans.py times this build
            build_conflict_graph({s.id: s.targets for s in workload.changes}).targets,
            self.cfg.depth_cap,
        )
        self.landed_set: set[ChangeId] = set()
        # live runs, the one record of which builds run; a finished or
        # aborted run leaves, so a completion event whose run is no
        # longer here is stale
        self.running: dict[BuildNode, _Run] = {}
        # changes whose pooled estimate moved since the last reschedule
        self.moved: set[ChangeId] = set()
        self.order = RankOrder()
        self.trace: list[str] = []
        self.waits: list[WaitRecord] = []
        self.builds_started = 0
        self.abort_count = 0
        self.executor_minutes = 0.0
        self.waited_on_conflicts = 0

    # -- event loop ---------------------------------------------------

    def execute(self) -> tuple[MetricsReport, TraceLog]:
        for spec in self.workload.changes:
            heapq.heappush(self.heap, (spec.arrival_time, _ARRIVAL, spec.id.seq))
        while self.heap:
            entry = heapq.heappop(self.heap)
            if entry[1] == _FINISH and self.running.get(entry[4].node) is not entry[4]:
                continue  # stale completion: the run was aborted; nothing changed
            self.now = entry[0]
            self._stamp = f"t={self.now:.2f} "
            if entry[1] == _ARRIVAL:
                self._arrive(self.workload.changes[entry[2]].id)
            else:
                self._decide(self._finish(entry[4]))
            self._reschedule()
        if self.forest.queue or self.running:
            raise RuntimeError(
                f"simulation drained with {len(self.forest.queue)} undecided changes"
            )
        return self._report(), tuple(self.trace)

    def _arrive(self, c: ChangeId) -> None:
        forest = self.forest
        forest.add_change(c)
        conflicts_pending = len(forest.windows[c]) + len(forest.outside[c])
        self.moved.add(c)
        if conflicts_pending:
            self.waited_on_conflicts += 1
        self._log(f"arrive {c.label} pending_conflicts={conflicts_pending}")

    def _finish(self, run: _Run) -> ChangeId:
        """Complete a live run's node."""
        node = run.node
        del self.running[node]
        node.complete(run.outcome, self.now)
        self.moved.add(node.change)
        self.executor_minutes += run.duration
        self._log(
            f"finish {node.change.label} base={_base_str(node.base)} "
            f"outcome={run.outcome.value} elapsed={run.duration:.2f}"
        )
        return node.change

    # -- decisions ----------------------------------------------------

    def _decide(self, finished: ChangeId) -> None:
        """Decide the finished build's change, then whatever that unblocks:
        the changes each decision re-windowed. A candidate is only ever
        added by an earlier one, so the heap takes them in queue order,
        as a sweep of the queue would."""
        candidates = [finished]
        while candidates:
            c = heapq.heappop(candidates)
            decision = decide_change(c, self.forest, allow_bypass=self.enhanced)
            if decision.kind is DecisionKind.WAIT:
                continue
            for later in self._apply(decision):
                if later not in candidates:
                    heapq.heappush(candidates, later)

    def _apply(self, decision) -> list[ChangeId]:
        """Land or reject the decided change, which leaves the rank order
        and `moved`, and return the changes it re-windowed: its queued
        conflicting successors, in queue order. It bypassed the
        predecessors in its window. Both are read before the forest
        resolves it."""
        c = decision.change
        landed = decision.kind is DecisionKind.LAND
        nodes = self.forest.nodes_for_change(c)
        post_build_wait = self.now - max([n.finished_at for n in nodes])
        bypassed = self.forest.windows[c]

        rewindowed = self.forest.after[c]
        mapping = carry_map(self.forest, c, landed)
        resolve_change(self.forest, c, mapping)
        self.moved.update(rewindowed)
        self.moved.discard(c)
        self.order.drop(c)
        # a run whose base assumption was contradicted aborts; its node is
        # gone from the forest
        gone = [n for n, new in mapping.items() if new is None and n in self.running]
        if gone:
            for run in sorted(map(self.running.pop, gone), key=lambda run: run.number):
                self._abort(run)

        if landed:
            self.landed_set.add(c)
        record = WaitRecord(
            change=c.label,
            arrival=self.arrivals[c],
            decided_at=self.now,
            landed=landed,
            via_bypass=bool(bypassed),
        )
        self.waits.append(record)
        verb = "land" if landed else "reject"
        self._log(
            f"{verb} {c.label} via_bypass={'yes' if record.via_bypass else 'no'} "
            f"bypassed={_base_str(bypassed)} wait={record.wait:.2f} "
            f"post_wait={post_build_wait:.2f}"
        )
        return rewindowed

    # -- scheduling ---------------------------------------------------

    def _reschedule(self) -> None:
        if self.moved:  # else the events moved no node, window or estimate
            self._rescore()
        to_start, to_abort = select_builds(
            self.order, self.running, self.cfg.executor_capacity
        )
        for node in to_abort:
            self._abort(self.running.pop(node))
        for node, p in to_start:
            self._start(node, p)

    def _rescore(self) -> None:
        """Bring the rank order up to date with the events since the last
        reschedule, re-profiling only the changes they moved, and of each
        moved m's filed successors `forest.after[m]` those whose window
        holds m, since a score reads only its change's window; the caller
        skips it when they moved none. A change with an empty window
        waits on nobody, so its one node scores 1 under either strategy
        and is ranked by that rule, unprofiled; a pending one with no
        estimate raises, as `profile_change` does."""
        windows = self.forest.windows
        moved = sorted(self.moved)
        self.moved.clear()
        self._annotate(moved)
        rescore = set(moved)
        for m in moved:
            rescore.update([d for d in self.forest.after[m] if m in windows[d]])
        for c in sorted(rescore):
            nodes = self.forest.nodes_for_change(c)
            if windows[c]:
                ranked = rank_builds(
                    nodes, self._partition(c), self._success_fn, self.floor
                )
            else:
                (node,) = nodes
                if node.outcome is not None:
                    ranked = []
                elif node.estimate is None:
                    raise ValueError(f"node {node.key} has no duration estimate")
                else:
                    ranked = [(node, 1.0)]
            self.order.put(c, ranked)

    def _partition(self, c: ChangeId) -> BypassPartition:
        if self.enhanced:
            return profile_change(c, self.forest, self.arrivals, self.cfg)
        # Baseline: every conflicting predecessor is waited out.
        return outcome_partition(c, self.forest)

    def _annotate(self, changes: Sequence[ChangeId]) -> None:
        """Estimate the nodes that have none. Only an arrived or
        re-windowed change has such nodes: a node carried across a
        re-window keeps its estimate."""
        for c in changes:
            targets = len(self.workload.changes[c].targets)
            conflicts = len(self.forest.windows[c])
            for node in self.forest.nodes_for_change(c):
                if node.estimate is not None:
                    continue
                key = (targets, conflicts, len(node.base))
                features = self._features.get(key)
                if features is None:
                    features = self._features[key] = PredictionFeatures(*key)
                node.estimate = predict_duration(
                    self.workload.predictor,
                    features,
                    truth=self.truth.durations[c],
                )

    def _success_fn(self, pred: ChangeId, context: BaseKey) -> float:
        """pred's observed outcome on the path `context` assumes, else its
        prior. A scored predecessor is in a queued change's window, so it
        is queued, and `context` within its window is one of its bases."""
        window = self.forest.windows[pred]
        node = self.forest.nodes[(pred, tuple([b for b in context if b in window]))]
        if node.outcome is None:
            return self.workload.changes[pred].success_prior
        return 1.0 if node.outcome is BuildOutcome.PASS else 0.0

    def _start(self, node: BuildNode, p_needed: float) -> None:
        outcome = self.truth.outcome(node.change, self.landed_set, node.base)
        duration = self.truth.duration(node.change, node.base)
        finish = self.now + duration
        if math.isinf(finish):
            raise WorkloadError(
                f"{node.change.label}'s build started at {self.now!r} takes "
                f"{duration!r} minutes, so it finishes past the largest float"
            )
        self.builds_started += 1
        run = _Run(node, self.now, duration, outcome, self.builds_started)
        self.running[node] = run
        # the start count breaks ties, so the run itself is never compared
        heapq.heappush(self.heap, (finish, _FINISH, node.change.seq, run.number, run))
        head = "yes" if self.forest.heads_component(node.change) else "no"
        self._log(
            f"start {node.change.label} base={_base_str(node.base)} "
            f"p={p_needed:.4f} mandatory={head} eta={node.estimate.mean:.2f}"
        )

    def _abort(self, run: _Run) -> None:
        """Account a run that left the executor before it finished."""
        elapsed = self.now - run.started
        self.executor_minutes += elapsed
        self.abort_count += 1
        change, base = run.node.key
        self._log(f"abort {change.label} base={_base_str(base)} elapsed={elapsed:.2f}")

    # -- reporting ----------------------------------------------------

    def _log(self, message: str) -> None:
        self.trace.append(self._stamp + message)

    def _report(self) -> MetricsReport:
        if math.isinf(self.executor_minutes):
            raise WorkloadError(
                "the run's executor minutes overflow: each build is finite, "
                "but their sum is past the largest float"
            )
        return MetricsReport(
            strategy=self.strategy,
            builds_started=self.builds_started,
            changes_decided=len(self.waits),
            executor_minutes=self.executor_minutes,
            bypass_count=sum(w.via_bypass for w in self.waits),
            abort_count=self.abort_count,
            waited_on_conflicts=self.waited_on_conflicts,
            conflict_rate=static_conflict_rate(self.workload),
            waits=tuple(self.waits),
        )


def _base_str(base: Sequence[ChangeId]) -> str:
    return ",".join(map(_LABEL, base))


def run(
    workload: WorkloadSpec, strategy: str | None = None
) -> tuple[MetricsReport, TraceLog]:
    """Simulate the workload; deterministic for identical inputs."""
    chosen = strategy if strategy is not None else workload.strategy
    if chosen not in STRATEGIES:
        raise ValueError(f"unknown strategy {chosen!r}")
    return _Simulation(workload, chosen).execute()
