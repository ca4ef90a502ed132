"""Pick which builds run and decide when changes land or reject.

The selector keeps the executor full with the highest needed-probability
builds at or above the speculation threshold and aborts running builds
that fell out of the chosen set. The chosen set is a prefix of the rank
order, so it is remembered by its cut, the rank key of its last build;
a build whose rank key did not move since the last selection can only
enter or leave the set when it lies between the old cut and the new
one, and a selection reads only those and the re-ranked builds, never
the whole prefix. A component head's one build always
qualifies: with no predecessor to wait on, it scores exactly 1. One rule
decides a change: once every speculative variant of it finished with the
same outcome, that outcome holds no matter how its queued predecessors
resolve, so it lands or rejects. A change with no predecessor left in
its window has one variant, its build against the mainline; one with
predecessors decides early, by bypass.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Collection, Iterable, Sequence

from specqueue.core import BuildOutcome, ChangeId, EngineConfig
from specqueue.forest import BuildNode, SpeculationForest, key_order
from specqueue.prioritize import RankedBuild


# one build in the rank order: (RankedBuild.rank_key, the build)
RankEntry = tuple[tuple, RankedBuild]


@dataclass(frozen=True)
class ScheduleAction:
    """What the executor should do after a ranking pass: start the chosen
    builds not yet running, in rank order, and abort the running builds
    that fell out of the chosen set, their nodes in `key_order`. ``cut`` is
    the rank key of the last chosen build, None when none is chosen; the
    next selection takes it as the previous cut."""

    to_start: tuple[RankedBuild, ...]
    to_abort: tuple[BuildNode, ...]
    cut: tuple | None


class DecisionKind(Enum):
    LAND = "land"
    REJECT = "reject"
    WAIT = "wait"


@dataclass(frozen=True)
class Decision:
    """A verdict on a queued change: land, reject or wait. Whether a land
    or reject bypassed anything is not part of it: the predecessors in
    the change's window when it is decided are the ones it bypassed."""

    kind: DecisionKind
    change: ChangeId


def select_builds(
    ranking: Sequence[RankEntry],
    fresh: Iterable[RankEntry],
    cut: tuple | None,
    running: Collection[BuildNode],
    cfg: EngineConfig,
) -> ScheduleAction:
    """Reconcile the running builds with the chosen set.

    ``ranking`` is every build that could run, in rank order. The chosen
    set is its prefix of builds at or above the speculation threshold,
    at most capacity long. ``fresh`` holds the entries inserted into
    ``ranking`` since the previous selection, whose cut is ``cut``, and
    ``running`` the nodes of the builds running now. Every entry that is
    not fresh must be running iff its rank key is at most ``cut``: the
    previous selection's builds all started, and a build that finished,
    aborted or was carried since has only fresh entries. Such an entry
    keeps its key, so it changes sides only when it lies between the old
    cut and the new one; only that band and the fresh entries are read.
    On a first selection ``cut`` is None and every entry is fresh.
    """
    first = itemgetter(0)
    capacity, threshold = cfg.executor_capacity, cfg.speculation_threshold
    # rank keys start with -p_needed, so the builds at or above the
    # threshold come first
    chosen = min(capacity, bisect_left(ranking, (-threshold, math.inf), key=first))
    new_cut = ranking[chosen - 1][0] if chosen else None
    old = 0 if cut is None else bisect_right(ranking, cut, key=first)
    touched = dict(ranking[min(old, chosen) : max(old, chosen)])
    touched.update(fresh)
    to_start: list[RankedBuild] = []
    to_abort: list[BuildNode] = []
    for key in sorted(touched):
        build = touched[key]
        if new_cut is not None and key <= new_cut:
            if build.node not in running:
                to_start.append(build)
        elif build.node in running:
            to_abort.append(build.node)
    return ScheduleAction(
        to_start=tuple(to_start),
        to_abort=tuple(sorted(to_abort, key=key_order)),
        cut=new_cut,
    )


def decide_change(
    c: ChangeId,
    forest: SpeculationForest,
    *,
    allow_bypass: bool = True,
) -> Decision:
    """Resolve a change now if its builds make the outcome certain.

    Its only inputs are c's window, c's nodes and c's queued conflicting
    predecessors. The change waits while a variant is pending, while the
    variants disagree, or while it is blocked; otherwise it lands on a
    unanimous pass and rejects on a unanimous fail. With an empty window
    its one build speaks for the real merge. With predecessors in the
    window the decision bypasses them, which is blocked when bypass is
    off or when conflicting predecessors fell outside the window, since
    no build covered those combinations.
    """
    window = forest.windows[c]
    outcomes = {n.outcome for n in forest.nodes_for_change(c)}
    if (
        None in outcomes
        or len(outcomes) > 1
        or (
            window
            and (not allow_bypass or len(forest.conflicting_ahead(c)) > len(window))
        )
    ):
        return Decision(DecisionKind.WAIT, c)
    if outcomes == {BuildOutcome.PASS}:
        return Decision(DecisionKind.LAND, c)
    return Decision(DecisionKind.REJECT, c)
