"""Reference implementations that tests compare the package against, the
scheduler and the engine with their kept state checked after every
event, the five worked scoring cases, the tools and the benchmark's
streams as tests load them, and the named generator streams."""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import math
import random
from dataclasses import replace
from itertools import combinations
from pathlib import Path
from typing import AbstractSet, Collection, Iterable, Mapping, Sequence

from hypothesis import strategies as st

from specqueue.cli import GENERATOR_FLAGS
from specqueue.core import BuildOutcome, ChangeId, EngineConfig
from specqueue.forest import BaseKey, BuildNode, SpeculationForest, enumerate_forest
from specqueue.prediction import DurationEstimate
from specqueue.prioritize import (
    BypassPartition,
    SuccessFn,
    needed_probability,
    rank_builds,
)
from specqueue.selection import (
    Decision,
    DecisionKind,
    decide_change,
    rank_key,
    select_builds,
)
from specqueue.simulator.engine import Scheduler, _Simulation
from specqueue.simulator.workload import (
    LINK_WINDOW,
    LONG_MEAN,
    LONG_VARIANCE,
    SHORT_MEAN,
    SHORT_VARIANCE,
    ChangeSpec,
    GeneratorParams,
)

ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def load_tool(name: str):
    """`tools/<name>.py`, loaded by its path once per session: `tools/`
    is no package."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_stream(name: str, k: int = 0) -> tuple[GeneratorParams, EngineConfig]:
    """Stream k of benchmark workload `name`'s batch at the pinned seed of
    bench/reference.json, drawn as bench/harness.py draws it, from
    `tools/trajectory.py`'s one reading of that file."""
    return load_tool("trajectory").benchmark_stream(name, k)


# The named generator streams; a test sets a stream's size and seed with
# `replace`. `criterion-5` is the contended benchmark's stream, whose
# long changes take chain-forming and second links, and `chained` the
# same with chain-forming links alone. `bridged` takes second links
# without the bias, so they can join conflict groups.
_CRITERION_5 = benchmark_stream("contended")[0]
GENERATORS = {
    "default": GeneratorParams(),
    "criterion-5": _CRITERION_5,
    "chained": replace(_CRITERION_5, long_second_link=0.0),
    "bridged": GeneratorParams(long_second_link=1.0),
    "failing": GeneratorParams(fail_rate=0.5, breaker_rate=0.8),
}


def gen_workload_argv(params: GeneratorParams) -> list[str]:
    """The `specqueue gen-workload` argv that draws `params`' stream,
    every field given as its flag."""
    argv = ["gen-workload"]
    for key, field in GENERATOR_FLAGS.items():
        argv += ["--" + key.replace("_", "-"), str(getattr(params, field))]
    return argv


def rank_all(
    forest: SpeculationForest,
    partitions: Mapping[ChangeId, BypassPartition],
    success: SuccessFn,
) -> list[tuple[tuple, BuildNode]]:
    """Every queued change's builds scored from scratch, as sorted
    `(rank_key, node)` entries."""
    return sorted(
        (rank_key(node, p), node)
        for c in forest.queue
        for node, p in rank_builds(forest.nodes_for_change(c), partitions[c], success)
    )


def chosen_nodes(
    entries: Iterable[tuple[tuple, BuildNode]], capacity: int, threshold: float
) -> set[BuildNode]:
    """The nodes a rank order's sorted `(rank_key, node)` entries choose:
    taken in order until capacity is full or a score falls below the
    speculation threshold."""
    chosen: set[BuildNode] = set()
    for key, node in entries:
        if len(chosen) == capacity or -key[0] < threshold:
            break
        chosen.add(node)
    return chosen


# The conflict graph's pairwise form, as `build_conflict_graph` stored it
# before it kept memberships alone, kept verbatim but for its return.
def reference_adjacency(
    targets: Mapping[ChangeId, Collection[str]],
) -> dict[ChangeId, frozenset[ChangeId]]:
    """Each change's neighbours, the changes sharing a target with it,
    from every pair of changes that share one."""
    by_target: dict[str, list[ChangeId]] = {}
    adjacency: dict[ChangeId, set[ChangeId]] = {}
    for cid, touched in targets.items():
        adjacency[cid] = set()
        for target in touched:
            by_target.setdefault(target, []).append(cid)
    for sharing in by_target.values():
        if len(sharing) > 1:
            for cid in sharing:
                adjacency[cid].update(sharing)
    return {cid: frozenset(nbrs - {cid}) for cid, nbrs in adjacency.items()}


def reference_queued_conflicts(
    adjacency: Mapping[ChangeId, AbstractSet[ChangeId]],
    queued: Collection[ChangeId],
    c: ChangeId,
) -> tuple[BaseKey, list[ChangeId]]:
    """The queued changes before c and after it that share a target with
    it, each in queue order, which is `ChangeId` order: the former as a
    tuple, as `outside[c] + windows[c]` files them, the latter as a list,
    as `after[c]` does."""
    conflicts = sorted(p for p in adjacency[c] if p in queued)
    ahead = tuple(p for p in conflicts if p < c)
    return ahead, conflicts[len(ahead) :]


def reference_windows(
    queue: Sequence[ChangeId],
    targets: Mapping[ChangeId, Collection[str]],
    depth_cap: int,
) -> dict[ChangeId, BaseKey]:
    """Each queued change's window, in queue order: the nearest
    `depth_cap` of its queued conflicting predecessors, from
    `reference_adjacency`."""
    adjacency = reference_adjacency(targets)
    queued = set(queue)
    return {
        c: reference_queued_conflicts(adjacency, queued, c)[0][-depth_cap:]
        for c in queue
    }


@st.composite
def target_maps(draw) -> dict[ChangeId, tuple[str, ...]]:
    """Up to 12 changes' target lists over a few targets, with one hot
    target, two changes that share two or three targets of their own, and
    one change that lists a target twice."""
    n = draw(st.integers(min_value=2, max_value=12))
    lists = [draw(st.lists(st.sampled_from("abcde"), max_size=3)) for _ in range(n)]
    for touched in lists:
        if draw(st.booleans()):
            touched.append("hot")
    first = draw(st.integers(min_value=0, max_value=n - 2))
    second = draw(st.integers(min_value=first + 1, max_value=n - 1))
    shared = ["s1", "s2", "s3"][: draw(st.integers(min_value=2, max_value=3))]
    lists[first] += shared
    lists[second] += shared
    # `own` is a target no other change touches
    twice = draw(st.sampled_from(["a", "b", "hot", "own"]))
    lists[draw(st.integers(min_value=0, max_value=n - 1))] += [twice, twice]
    return {ChangeId(i, f"C{i}"): tuple(t) for i, t in enumerate(lists)}


def connected_components(
    adjacency: Mapping[ChangeId, AbstractSet[ChangeId]], changes: Sequence[ChangeId]
) -> list[list[ChangeId]]:
    """Partition the changes into conflict-connected components, given
    each change's neighbours.

    Components are listed in order of their earliest member; within a
    component the original arrival order is preserved. A component's
    first member is its head, the change the trace labels mandatory.
    """
    order = {cid: i for i, cid in enumerate(changes)}
    assigned: dict[ChangeId, int] = {}
    components: list[list[ChangeId]] = []
    for cid in changes:
        if cid in assigned:
            continue
        index = len(components)
        members = [cid]
        assigned[cid] = index
        frontier = [cid]
        while frontier:
            current = frontier.pop()
            for nbr in adjacency[current]:
                if nbr in order and nbr not in assigned:
                    assigned[nbr] = index
                    members.append(nbr)
                    frontier.append(nbr)
        components.append(members)
    for members in components:
        members.sort(key=lambda cid: order[cid])
    return components


class CheckedScheduler(Scheduler):
    """The scheduler, asserting around every call the simulation makes
    that the state it keeps across events is what a pass from scratch
    derives, and that every decision it applies, and every queued change
    it leaves waiting, is the one `reference_decide_change` takes. Queued
    conflicting predecessors and successors are `reference_queued_conflicts`
    over `adjacency`, the run's `reference_adjacency`, not read from the
    forest, and before every reschedule each queued change's `outside[c]
    + windows[c]` must list the former and its `after[c]` the latter, and
    the forest must hold the targets of the queued changes alone. After it, the kept
    order must be a fresh one filtered at the floor, and the builds it
    starts and aborts must leave running what the fresh one chooses,
    which it keeps as `chosen`."""

    def __init__(self, strategy, config, predictor, adjacency):
        super().__init__(strategy, config, predictor)
        self.adjacency = adjacency
        self.chosen: set[BuildNode] = set()

    def _conflicts(self, c) -> tuple[BaseKey, list[ChangeId]]:
        return reference_queued_conflicts(self.adjacency, self.forest.windows, c)

    def _reference_decision(self, c) -> Decision:
        ahead = len(self._conflicts(c)[0])
        return reference_decide_change(
            c, self.forest, allow_bypass=self.enhanced, ahead=ahead
        )

    def finish(self, node, outcome, now) -> list:
        applied = super().finish(node, outcome, now)
        # no decided change kept
        queued = self.forest.windows
        assert all(c in queued for c in self.moved), (now, self.moved)
        assert all(node.change in queued for _, node in self.order.entries), now
        return applied

    def _apply(self, decision):
        expected = self._reference_decision(decision.change)
        assert decision == expected, (decision, expected)
        return super()._apply(decision)

    def reschedule(self, running):
        forest = self.forest
        # the filed predecessors outside each window are the reference's
        # oldest, the filed successors are the reference's, and a decided
        # change leaves none filed, nor its targets
        assert forest.outside.keys() == forest.windows.keys()
        assert forest.after.keys() == forest.windows.keys()
        assert forest.targets.keys() == forest.windows.keys()
        for c in forest.queue:
            ahead, behind = self._conflicts(c)
            filed = forest.outside[c] + forest.windows[c]
            assert filed == ahead, (c, filed)
            assert forest.after[c] == behind, (c, forest.after[c])
        # sweeping the queue until nothing resolves would decide nothing
        for c in forest.queue:
            decision = decide_change(c, forest, allow_bypass=self.enhanced)
            assert decision == self._reference_decision(c), decision
            assert decision.kind is DecisionKind.WAIT, decision
        to_start, to_abort = super().reschedule(running)
        # the kept order is a fresh one filtered at the floor, what runs
        # after the starts and aborts is what the fresh one chooses, and
        # every node is the forest's
        partitions = {c: self._partition(c) for c in forest.queue}
        fresh = rank_all(forest, partitions, self._success_fn)
        kept = [(k, node) for k, node in fresh if -k[0] >= self.floor]
        assert self.order.entries == kept
        capacity = self.cfg.executor_capacity
        self.chosen = chosen_nodes(fresh, capacity, self.floor)
        started = {node for node, _ in to_start}
        assert set(running).difference(to_abort) | started == self.chosen
        assert set(to_abort) <= set(running) and not started & set(running)
        for k, node in self.order.entries:
            assert k == rank_key(node, -k[0]), k
            assert is_filed(forest, node), k
        return to_start, to_abort


class CheckedSimulation(_Simulation):
    """The engine with a `CheckedScheduler`, asserting after every finish
    that each decision left no run whose node it dropped, and after every
    reschedule that the runs are the ones the scheduler chose, at most
    capacity, each on its forest's pending node. Selection, starts and
    aborts change no node, the rank order or the queue, so what is read
    around a reschedule is what scoring and its start lines saw. `labels`
    collects the mandatory labels logged, and `capped` counts the starts
    of changes with more queued conflicting predecessors than
    `depth_cap`, whose windows leave some out."""

    def __init__(self, workload, strategy):
        super().__init__(workload, strategy)
        self.scheduler = CheckedScheduler(
            strategy,
            workload.config,
            workload.predictor,
            reference_adjacency({s.id: s.targets for s in workload.changes}),
        )
        self.labels: set[str] = set()
        self.capped = 0

    def _finish(self, run) -> None:
        super()._finish(run)
        # a run whose node a decision dropped left with it
        for node in self.running:
            assert is_filed(self.scheduler.forest, node), (self.now, node)

    def _start(self, node, p_needed) -> None:
        scheduler = self.scheduler
        if len(scheduler._conflicts(node.change)[0]) > scheduler.cfg.depth_cap:
            self.capped += 1
        super()._start(node, p_needed)

    def _reschedule(self) -> None:
        scheduler = self.scheduler
        forest = scheduler.forest
        components = connected_components(scheduler.adjacency, forest.queue)
        heads = {members[0].label for members in components}
        logged = len(self.trace)
        super()._reschedule()
        capacity = scheduler.cfg.executor_capacity
        assert set(self.running) == scheduler.chosen, self.now
        assert len(self.running) <= capacity, self.now
        assert select_builds(scheduler.order, self.running, capacity) == ((), ())
        for node, run in self.running.items():
            assert is_filed(forest, node), (self.now, node.key)
            assert run.node is node and node.outcome is None, (self.now, node.key)
        # a start is mandatory iff it is its component head's mainline build
        for line in self.trace[logged:]:
            _, verb, label, *rest = line.split()
            if verb == "start":
                fields = dict(t.split("=", 1) for t in rest)
                expected = "yes" if not fields["base"] and label in heads else "no"
                assert fields["mandatory"] == expected, line
                self.labels.add(expected)


# ChangeSpec's rule for a label or target as it was before it became one
# regular expression, kept verbatim.
def reference_is_list_item(text: str) -> bool:
    """Whether the file format writes text back as one list item.

    The format splits fields on whitespace and lists on commas; split()
    is [text] only for a non-empty text with no whitespace.
    """
    return "," not in text and text.split() == [text]


# The generator's row loop as it was before its rows kept targets as
# row indices and it made its draws' arithmetic inline, kept verbatim:
# each draw calls the `random` method it stands for (`expovariate`,
# `uniform`, `randrange`), targets are named, and each row's
# predecessors are gathered in a set and sorted.
def reference_generate_changes(
    params: GeneratorParams, p_link: float
) -> tuple[list[tuple], float, float, float]:
    """One full change stream for a candidate link probability, the
    share of its changes that share a target with another, and the
    interval (below, above] of link probabilities that draw this stream.

    A change is a plain row, (arrival, targets, mean, variance, passes
    alone, breaker indices, prior), since the bisection discards all but
    one stream; `generate_workload` makes specs of the kept one, and
    rounds the arrival and clamps the prior as it does. A link reaches
    back LINK_WINDOW rows at most, and a chain-forming link reads only
    those; a row is long iff its mean is LONG_MEAN. A change shares a
    target iff it has a predecessor on its targets or is one.

    The stream depends on p_link only through its link draws' `u <
    p_link`, and every other draw follows from those. So every p in
    (below, above] draws the same stream, where below is the largest
    link draw under p_link and above the smallest at or over it (each
    infinite if there is none).
    """
    rng = random.Random(params.seed)
    rows: list[tuple] = []
    arrival = 0.0
    below, above = -math.inf, math.inf
    # indices of the changes touching each target, ascending
    indices_by_target: dict[str, list[int]] = {}
    conflicted: set[int] = set()
    for i in range(params.n_changes):
        if i > 0:
            arrival += rng.expovariate(params.arrival_rate)

        is_short = rng.random() < params.short_fraction
        if is_short:
            mean, variance = SHORT_MEAN, SHORT_VARIANCE
        else:
            mean, variance = LONG_MEAN, LONG_VARIANCE

        targets = {f"t{i}"}
        linked = False
        if i > 0:
            u = rng.random()
            linked = u < p_link
            if linked:
                if u > below:
                    below = u
            elif u < above:
                above = u
        if linked:
            window_start = max(0, i - LINK_WINDOW)
            recent_longs = [
                j for j in range(window_start, i) if rows[j][2] == LONG_MEAN
            ]
            if (
                params.long_target_bias > 0
                and recent_longs
                and rng.random() < params.long_target_bias
            ):
                # chain-forming: extend an existing conflict run when
                # one is still in the window, else start a fresh one
                chained = [j for j in recent_longs if j in conflicted]
                j = chained[-1] if chained else recent_longs[-1]
            else:
                j = rng.randrange(window_start, i)
            targets.add(f"t{j}")
            if (
                not is_short
                and params.long_second_link > 0
                and rng.random() < params.long_second_link
            ):
                targets.add(f"t{rng.randrange(window_start, i)}")

        passes_alone = rng.random() >= params.fail_rate
        preds: set[int] = set()
        for t in targets:
            touching = indices_by_target.setdefault(t, [])
            preds.update(touching)
            touching.append(i)
        breakers: list[int] = []
        if preds:
            conflicted.add(i)
            conflicted.update(preds)
            # ascending, so the breaker draws consume the RNG in index order
            breakers = [j for j in sorted(preds) if rng.random() < params.breaker_rate]
        prior = (0.92 if passes_alone else 0.15) + rng.uniform(-0.04, 0.04)
        rows.append((arrival, targets, mean, variance, passes_alone, breakers, prior))
    return rows, len(conflicted) / params.n_changes, below, above


def reference_link_probability(
    params: GeneratorParams, generate=reference_generate_changes
) -> float:
    """The link probability bisected against params.conflict_density,
    drawing all 18 probes in full and reusing none. `generate(params,
    p_link)` draws one stream as (rows, share, below, above); the
    reference loop by default."""
    if params.conflict_density in (0.0, 1.0):  # no link, or every link
        return params.conflict_density
    lo, hi = 0.0, 1.0
    for _ in range(18):
        mid = (lo + hi) / 2.0
        if generate(params, mid)[1] < params.conflict_density:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def reference_calibrated_rows(
    params: GeneratorParams, generate=reference_generate_changes
) -> list[tuple]:
    """The rows `generate` draws at the bisected link probability."""
    return generate(params, reference_link_probability(params, generate))[0]


def reference_duration(seed: int, spec: ChangeSpec, base: Sequence[ChangeId]) -> float:
    """A build's true duration as `GroundTruth.duration` first drew it: a
    fresh generator seeded by the blake2b hash of "seed|change|base"."""
    key = f"{seed}|{spec.id.label}|{','.join(b.label for b in base)}"
    draw_seed = int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )
    sample = random.Random(draw_seed).gauss(
        spec.true_mean, math.sqrt(spec.true_variance)
    )
    return max(0.01, sample)


# The three rules below, kept as they were written before the engine's
# event path compared outcomes by identity and built its tuples and sums
# without generators.
def reference_decide_change(
    c: ChangeId,
    forest: SpeculationForest,
    *,
    allow_bypass: bool = True,
    ahead: int | None = None,
) -> Decision:
    """`decide_change` over the set of c's node outcomes, blocking a
    bypass whenever c has more queued conflicting predecessors, `ahead`
    (by default counted from the forest's `queued`), than its window
    holds."""
    window = forest.windows[c]
    if ahead is None:
        queued = forest.queued
        ahead = len({p for t in forest.targets[c] for p in queued[t] if p < c})
    outcomes = {n.outcome for n in forest.nodes_for_change(c)}
    if (
        None in outcomes
        or len(outcomes) > 1
        or (window and (not allow_bypass or ahead > len(window)))
    ):
        return Decision(DecisionKind.WAIT, c)
    if outcomes == {BuildOutcome.PASS}:
        return Decision(DecisionKind.LAND, c)
    return Decision(DecisionKind.REJECT, c)


def reference_finish_time_model(builds: Sequence[BuildNode]) -> DurationEstimate:
    """`finish_time_model` over a change's builds, adding every build's
    mean and variance in turn, left to right, and 0.0 for a finished one."""
    mean = variance = 0.0
    for build in builds:
        if build.outcome is None:
            mean += build.estimate.mean
            variance += build.estimate.variance
        else:
            mean += 0.0
            variance += 0.0
    return DurationEstimate(mean / len(builds), variance / len(builds))


def is_filed(forest: SpeculationForest, node: BuildNode) -> bool:
    """Whether node is the one its forest files under its key. It reads
    the change's map, so a per-event check builds no `forest.nodes`."""
    return forest.by_change.get(node.change, {}).get(node.base) is node


def reference_ordered_bases(window: BaseKey) -> tuple[BaseKey, ...]:
    """Every base of a window, largest first, then base lexicographic."""
    return tuple(
        base
        for size in range(len(window), -1, -1)
        for base in combinations(window, size)
    )


def triangle(n: int = 3, depth_cap: int = 6) -> SpeculationForest:
    """The forest of the first n of C1, C2 and C3, all touching one target."""
    targets = {ChangeId(i, f"C{i}"): {"t"} for i in range(1, n + 1)}
    return enumerate_forest(list(targets), targets, depth_cap)


# The five worked scoring cases. C1, C2 and C3 share one target, so C3's
# four builds cover every landed/failed combination, and which formula
# applies depends only on the expected finish order. Each case lists
# (change, base, partition, the needed probability it scores exactly)
# under success priors PS1 for C1 and PS2 for C2.
C1, C2, C3 = ChangeId(1, "C1"), ChangeId(2, "C2"), ChangeId(3, "C3")
PS1, PS2 = 0.8, 0.7
P_ORDER, P31, P32, P21 = 0.7, 0.9, 0.8, 0.6  # finish-order chances
C3_BASES = [(C1, C2), (C1,), (C2,), ()]


def partition(change, fixed=(), bypassed=(), product=1.0) -> BypassPartition:
    return BypassPartition(
        change=change,
        non_bypassable=tuple(fixed),
        bypassable=tuple(bypassed),
        bypass_product=product,
        fallback_active=False,
    )


_C2_WAITS = [
    (C2, (C1,), partition(C2, fixed=(C1,)), PS1),
    (C2, (), partition(C2, fixed=(C1,)), 1 - PS1),
]
_C3_OVERTAKES_BOTH = [
    (C3, base, partition(C3, bypassed=(C1, C2), product=P31 * P32), P31 * P32)
    for base in C3_BASES
]
SCORING_CASES = {
    # FT1 < FT2 < FT3, everyone waits: outcome terms only
    "one": [
        (C1, (), partition(C1), 1.0),
        *_C2_WAITS,
        (C3, (C1, C2), partition(C3, fixed=(C1, C2)), PS1 * PS2),
    ],
    # FT2 < FT1: both of C2's builds carry the finish-order chance
    "two": [
        (C2, base, partition(C2, bypassed=(C1,), product=P_ORDER), P_ORDER)
        for base in [(C1,), ()]
    ],
    # FT1 < FT3 < FT2: C3 overtakes C2 but still waits on C1
    "three": [
        (
            C3,
            base,
            partition(C3, fixed=(C1,), bypassed=(C2,), product=P_ORDER),
            (PS1 if C1 in base else 1 - PS1) * P_ORDER,
        )
        for base in C3_BASES
    ],
    # FT3 < FT2 < FT1: every build of C3 carries both order chances, and
    # C2 may overtake C1
    "four": [
        *_C3_OVERTAKES_BOTH,
        *[
            (C2, base, partition(C2, bypassed=(C1,), product=P21), P21)
            for base in [(C1,), ()]
        ],
    ],
    # FT3 < FT1 < FT2: C3 scores as in case four, C2 as in case one
    "five": [*_C3_OVERTAKES_BOTH, *_C2_WAITS],
}


def assert_scoring_case(forest: SpeculationForest, case: str) -> None:
    """Each listed build of the three-change forest scores exactly."""
    priors = {C1: PS1, C2: PS2}
    success = lambda pred, context: priors[pred]
    for change, base, part, want in SCORING_CASES[case]:
        got = needed_probability(forest.by_change[change][base], part, success)
        assert got == want, (case, change, base)
