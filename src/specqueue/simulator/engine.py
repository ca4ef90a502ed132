"""Virtual-time event loop driving the queue under a chosen strategy.

Arrivals and build completions are the only events. Arrivals are read
from the workload in queue order, which is arrival order; only
completions wait in a heap, and at a tie an arrival comes first. An
arrival decides nothing; a finished build can only make its own change
decidable, and a decision can only unblock the later queued changes that
conflict with it, which are decided next in queue order.

After every event the engine re-profiles and re-scores only what the
event moved, and an event that moved nothing rescores nothing. A
change's pooled estimate moves when it arrives, when one of its builds
finishes, and when a decision re-derives its window; starts and aborts
touch no node, since the table of live runs alone records which builds
run. A change is re-scored when its estimate moved or its window holds
a change whose estimate moved, since its partition and scores read
nothing else. One pass in queue order estimates each moved change's new
builds and ranks each re-scored change: a re-scored change's builds at
or above the strategy's floor replace its builds in the
`selection.RankOrder` kept across events, and a change leaves it when
it is decided. A change with an empty window waits on
nobody, so its one build scores exactly 1 under either strategy: it is
ranked by that rule, neither profiled nor scored. Builds that fell out
of the order's first capacity abort, newly chosen ones start. A run
holds its build's node, so a decision leaves the runs it carries as
they are and aborts only those whose nodes vanish. All times are
virtual minutes; a run is a pure function of its workload.

The `Scheduler` is the planner: it keeps the forest, the rank order and
the changes whose estimates moved, and it decides, scores and selects.
It is built from the strategy, the engine config and the predictor
alone, and learns of each change only when the change arrives: its
arrival time, targets, success prior and the true duration normal the
oracle predictor reads. So it cannot read a change before that change
arrives. `_Simulation` keeps the workload, virtual time, the ground
truth, the live runs, the waits and the trace: it feeds each arrival
and finished build to the scheduler, logs the decisions it returns,
and starts and aborts the builds it selects.

Per-change data is indexed by change id, which is the change's position
in the workload's change tuple, and so in arrival order.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass
from operator import attrgetter
from typing import AbstractSet, Collection, Sequence

# bench/spans.py wraps the layer functions imported below by name in this
# module's namespace, so they stay imported and called here
from specqueue.core import BuildOutcome, ChangeId, EngineConfig, build_conflict_graph
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
    PredictorSpec,
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
    Decision,
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

_LABEL = attrgetter("label")
_NUMBER = attrgetter("number")


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


class Scheduler:
    """The planner of one run under one strategy: it keeps the forest, the
    rank order and the changes whose estimates moved, and it decides,
    scores and selects. It holds no workload: the simulator hands it each
    change as it arrives, feeds it finished builds and runs what it
    selects. Of a change's hidden truth it holds only `durations`, the
    true duration normals the oracle predictor takes, as
    tests/test_source.py pins."""

    def __init__(self, strategy: str, config: EngineConfig, predictor: PredictorSpec):
        self.enhanced = strategy == "enhanced"
        self.cfg, self.predictor = config, predictor
        # the lowest score a build may run at: the baseline has no
        # speculation threshold, it fills capacity regardless of score
        self.floor = config.speculation_threshold if self.enhanced else 0.0
        # per arrived change, by id, as `arrive` appends them
        self.arrivals: list[float] = []
        self.priors: list[float] = []
        self.durations: list[DurationEstimate] = []
        # one immutable record per distinct (targets, conflicts, height)
        self._features: dict[tuple[int, int, int], PredictionFeatures] = {}
        self.forest: SpeculationForest = enumerate_forest([], {}, config.depth_cap)
        # changes whose pooled estimate moved since the last reschedule
        self.moved: set[ChangeId] = set()
        self.order = RankOrder()

    def arrive(
        self,
        c: ChangeId,
        arrival: float,
        targets: Collection[str],
        prior: float,
        normal: DurationEstimate,
    ) -> int:
        """Queue the arriving change c with what the scheduler may know of
        it: its arrival time, targets, success prior and the true duration
        normal the oracle predictor reads. Ids arrive in order, 0 first,
        so each list entry appended here is filed under its id; an id out
        of turn raises ValueError before anything is kept. Return how many
        queued changes ahead of c conflict with it."""
        if c != len(self.arrivals):
            raise ValueError(f"{c!r} arrives, but seq {len(self.arrivals)} is next")
        self.arrivals.append(arrival)
        self.priors.append(prior)
        self.durations.append(normal)
        self.forest.add_change(c, targets)
        self.moved.add(c)
        return len(self.forest.windows[c]) + len(self.forest.outside[c])

    def finish(self, node: BuildNode, outcome: BuildOutcome, now: float) -> list:
        """Complete the node, then decide its change and whatever that
        unblocks: the changes each decision re-windowed. A candidate is
        only ever added by an earlier one, so the heap takes them in queue
        order, as a sweep of the queue would. Returns what `_apply` gives
        for each decision applied, in order."""
        node.complete(outcome, now)
        self.moved.add(node.change)
        applied = []
        candidates = [node.change]
        while candidates:
            c = heapq.heappop(candidates)
            decision = decide_change(c, self.forest, allow_bypass=self.enhanced)
            if decision.kind is DecisionKind.WAIT:
                continue
            record, rewindowed = self._apply(decision)
            applied.append(record)
            for later in rewindowed:
                if later not in candidates:
                    heapq.heappush(candidates, later)
        return applied

    def _apply(self, decision: Decision) -> tuple[tuple, list[ChangeId]]:
        """Land or reject the decided change, which leaves the rank order
        and `moved`. Returns the record the simulator logs, `(decision,
        bypassed, finished_at, dropped)`: the predecessors in the change's
        window, which it bypassed, the time its last build finished, and
        every node the decision took out of the forest, its own change's
        included. With it come the changes it re-windowed: its queued
        conflicting successors, in queue order. The window and the
        successors are read before the forest resolves it."""
        c = decision.change
        finished_at = max([n.finished_at for n in self.forest.nodes_for_change(c)])
        bypassed = self.forest.windows[c]

        rewindowed = self.forest.after[c]
        mapping = carry_map(self.forest, c, decision.kind is DecisionKind.LAND)
        resolve_change(self.forest, c, mapping)
        self.moved.update(rewindowed)
        self.moved.discard(c)
        self.order.drop(c)
        # a run whose base assumption was contradicted aborts: its node is
        # among those gone from the forest
        dropped = [n for n, new in mapping.items() if new is None]
        return (decision, bypassed, finished_at, dropped), rewindowed

    def reschedule(self, running: Collection[BuildNode]) -> tuple[tuple, tuple]:
        """Bring the rank order up to date, then return the builds to
        start, with their scores, and the running ones to abort, as
        `select_builds` does."""
        if self.moved:  # else the events moved no node, window or estimate
            self._rescore()
        return select_builds(self.order, running, self.cfg.executor_capacity)

    def _rescore(self) -> None:
        """Bring the rank order up to date with the events since the last
        reschedule, re-profiling only the changes they moved, and of each
        moved m's filed successors `forest.after[m]` those whose window
        holds m, since a score reads only its change's window; the caller
        skips it when they moved none. One pass in queue order reads each
        rescored change's nodes once, estimating a moved change's new
        nodes just before ranking them: the window predecessors a score
        reads come earlier, so they are estimated by then. A change with
        an empty window waits on nobody, so its one node scores 1 under
        either strategy and is ranked by that rule, unprofiled; a pending
        one with no estimate raises, as `profile_change` does."""
        windows = self.forest.windows
        moved, self.moved = self.moved, set()
        rescore = set(moved)
        for m in moved:
            rescore.update([d for d in self.forest.after[m] if m in windows[d]])
        for c in sorted(rescore):
            nodes = self.forest.nodes_for_change(c)
            if c in moved:
                self._annotate(c, nodes)
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
            # each estimate is finite, but a change's pooled sum need not be
            try:
                return profile_change(c, self.forest, self.arrivals, self.cfg)
            except OverflowError as exc:
                raise WorkloadError(str(exc)) from None
        # Baseline: every conflicting predecessor is waited out.
        return outcome_partition(c, self.forest)

    def _annotate(self, c: ChangeId, nodes: Collection[BuildNode]) -> None:
        """Estimate those of c's nodes that have none. Only an arrived or
        re-windowed change has such nodes, and either is in `moved`: a
        node carried across a re-window keeps its estimate."""
        targets = len(self.forest.targets[c])
        conflicts = len(self.forest.windows[c])
        for node in nodes:
            if node.estimate is not None:
                continue
            key = (targets, conflicts, len(node.base))
            features = self._features.get(key)
            if features is None:
                features = self._features[key] = PredictionFeatures(*key)
            node.estimate = predict_duration(
                self.predictor, features, truth=self.durations[c]
            )

    def _success_fn(self, pred: ChangeId, context: BaseKey) -> float:
        """pred's observed outcome on the path `context` assumes, else its
        prior. A scored predecessor is in a queued change's window, so it
        is queued, and `context` within its window is one of its bases."""
        window = self.forest.windows[pred]
        node = self.forest.by_change[pred][tuple([b for b in context if b in window])]
        if node.outcome is None:
            return self.priors[pred]
        return 1.0 if node.outcome is BuildOutcome.PASS else 0.0


class _Simulation:
    """One run under one strategy: the event loop, the ground truth, the
    live runs, the waits and the trace. Its `scheduler` decides, scores
    and selects; the simulation reads its forest only to render the
    trace and to check that the run drained. It reads no change's hidden
    truth but through `truth`, as tests/test_source.py pins."""

    def __init__(self, workload: WorkloadSpec, strategy: str):
        self.workload = workload
        self.strategy = strategy
        self.truth = GroundTruth(workload)
        # each change's targets, handed to the scheduler when it arrives;
        # bench/spans.py times this build
        graph = build_conflict_graph({s.id: s.targets for s in workload.changes})
        self.targets = graph.targets
        self.scheduler = Scheduler(strategy, workload.config, workload.predictor)
        self.now = 0.0
        self._stamp = ""  # "t=<now> ", the prefix of every line an event logs
        self.heap: list[tuple] = []
        self.landed_set: set[ChangeId] = set()
        # live runs, the one record of which builds run; a finished or
        # aborted run leaves, so a completion event whose run is no
        # longer here is stale
        self.running: dict[BuildNode, _Run] = {}
        self.trace: list[str] = []
        self.waits: list[WaitRecord] = []
        self.builds_started = 0
        self.abort_count = 0
        self.executor_minutes = 0.0
        self.waited_on_conflicts = 0

    # -- event loop ---------------------------------------------------

    def execute(self) -> tuple[MetricsReport, TraceLog]:
        """Run every event: the arrivals in the workload's (arrival time,
        seq) order, merged with the completions in the heap's (finish,
        seq, start) order, an arrival first at a tie. A completion whose
        run was aborted is stale: it sets no time, logs nothing and does
        not reschedule. Returns the report and the trace."""
        arrivals = iter(self.workload.changes)
        spec = next(arrivals, None)
        while spec is not None or self.heap:
            if self.heap and (spec is None or self.heap[0][0] < spec.arrival_time):
                finish, _, _, run = heapq.heappop(self.heap)
                if self.running.get(run.node) is not run:
                    continue  # stale completion: the run was aborted; nothing changed
                self.now = finish
                self._stamp = f"t={finish:.2f} "
                self._finish(run)
            else:
                self.now, c = spec.arrival_time, spec.id
                self._stamp = f"t={self.now:.2f} "
                normal = self.truth.durations[c]
                pending = self.scheduler.arrive(
                    c, self.now, self.targets[c], spec.success_prior, normal
                )
                if pending:
                    self.waited_on_conflicts += 1
                self._log(f"arrive {c.label} pending_conflicts={pending}")
                spec = next(arrivals, None)
            self._reschedule()
        left = self.scheduler.forest.queue
        if left or self.running:
            raise RuntimeError(f"simulation drained with {len(left)} undecided changes")
        return self._report(), tuple(self.trace)

    def _finish(self, run: _Run) -> None:
        """Complete a live run, then log each decision it led to: abort,
        in start order, the runs whose nodes the decision dropped, then
        record and log the decided change's wait."""
        node = run.node
        del self.running[node]
        self.executor_minutes += run.duration
        self._log(
            f"finish {node.change.label} base={_base_str(node.base)} "
            f"outcome={run.outcome.value} elapsed={run.duration:.2f}"
        )
        decided = self.scheduler.finish(node, run.outcome, self.now)
        for decision, bypassed, finished_at, dropped in decided:
            c = decision.change
            landed = decision.kind is DecisionKind.LAND
            gone = self.running.keys() & dropped
            if gone:
                for aborted in sorted(map(self.running.pop, gone), key=_NUMBER):
                    self._abort(aborted)
            if landed:
                self.landed_set.add(c)
            record = WaitRecord(
                change=c.label,
                arrival=self.workload.changes[c].arrival_time,
                decided_at=self.now,
                landed=landed,
                via_bypass=bool(bypassed),
            )
            self.waits.append(record)
            verb = "land" if landed else "reject"
            self._log(
                f"{verb} {c.label} via_bypass={'yes' if record.via_bypass else 'no'} "
                f"bypassed={_base_str(bypassed)} wait={record.wait:.2f} "
                f"post_wait={self.now - finished_at:.2f}"
            )

    def _reschedule(self) -> None:
        to_start, to_abort = self.scheduler.reschedule(self.running)
        for node in to_abort:
            self._abort(self.running.pop(node))
        for node, p in to_start:
            self._start(node, p)

    def _start(self, node: BuildNode, p_needed: float) -> None:
        outcome = self.truth.outcome(node.change, self.landed_set, node.base)
        duration = self.truth.duration(node.change, node.base)
        finish = self.now + duration
        if math.isinf(finish):
            raise WorkloadError(
                f"{node.change.label}'s build started at {self.now!r} takes "
                f"{duration!r} minutes, so it finishes past the largest float"
            )
        # the trace gives times to 0.01 minute, so a finish time must keep
        # the duration to within half of that
        if abs((finish - self.now) - duration) >= 0.005:
            raise WorkloadError(
                f"{node.change.label}'s build started at {self.now!r} takes "
                f"{duration!r} minutes, which a finish time that late cannot resolve"
            )
        self.builds_started += 1
        run = _Run(node, self.now, duration, outcome, self.builds_started)
        self.running[node] = run
        # the start count breaks ties, so the run itself is never compared
        heapq.heappush(self.heap, (finish, node.change.seq, run.number, run))
        head = "yes" if self.scheduler.forest.heads_component(node.change) else "no"
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
