"""Pick which builds run and decide when changes land or reject.

The selector keeps the executor full with the highest needed-probability
builds at or above the speculation threshold and aborts running builds
that fell out of the chosen set. The chosen set is a prefix of the rank
order, so it is remembered by its cut, the rank key of its last build;
a build whose rank key did not move since the last selection can only
enter or leave the set when it lies between the old cut and the new
one, and a selection reads only those and the re-ranked builds, never
the whole prefix. A component head's one build always
qualifies: with no predecessor to wait on, it scores exactly 1. A change
resolves either by the head rule (its conflicting predecessors are all
decided, so its one remaining build is authoritative) or by bypass: if
every speculative variant of the change finished with the same outcome,
that outcome holds no matter how the predecessors resolve, so the
change may land or reject early.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Collection, Iterable, Sequence

from specqueue.core import BuildOutcome, ChangeId, EngineConfig
from specqueue.forest import NodeKey, SpeculationForest, key_order
from specqueue.prioritize import RankedBuild


# one build in the rank order: (RankedBuild.rank_key, the build)
RankEntry = tuple[tuple, RankedBuild]


@dataclass(frozen=True)
class ScheduleAction:
    """What the executor should do after a ranking pass: start the chosen
    builds not yet running, in rank order, and abort the running builds
    that fell out of the chosen set, by key in `key_order`. ``cut`` is
    the rank key of the last chosen build, None when none is chosen; the
    next selection takes it as the previous cut."""

    to_start: tuple[RankedBuild, ...]
    to_abort: tuple[NodeKey, ...]
    cut: tuple | None


class DecisionKind(Enum):
    LAND = "land"
    REJECT = "reject"
    WAIT = "wait"


class WaitReason(Enum):
    BUILDS_OUTSTANDING = "builds_outstanding"
    OUTCOMES_INCONSISTENT = "outcomes_inconsistent"
    BLOCKED_BY_PREDECESSOR = "blocked_by_predecessor"


@dataclass(frozen=True)
class Decision:
    kind: DecisionKind
    change: ChangeId
    via_bypass: bool = False
    reason: WaitReason | None = None

    def __post_init__(self) -> None:
        if self.kind is DecisionKind.WAIT and self.reason is None:
            raise ValueError("wait decisions need a reason")


def select_builds(
    ranking: Sequence[RankEntry],
    fresh: Iterable[RankEntry],
    cut: tuple | None,
    running: Collection[NodeKey],
    cfg: EngineConfig,
) -> ScheduleAction:
    """Reconcile the running builds with the chosen set.

    ``ranking`` is every build that could run, in rank order. The chosen
    set is its prefix of builds at or above the speculation threshold,
    at most capacity long. ``fresh`` holds the entries inserted into
    ``ranking`` since the previous selection, whose cut is ``cut``, and
    ``running`` the keys of the builds running now. Every entry that is
    not fresh must be running iff its rank key is at most ``cut``: the
    previous selection's builds all started, and a build that finished,
    aborted or was relabelled since has only fresh entries. Such an entry
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
    to_abort: list[NodeKey] = []
    for key in sorted(touched):
        build = touched[key]
        if new_cut is not None and key <= new_cut:
            if build.node.key not in running:
                to_start.append(build)
        elif build.node.key in running:
            to_abort.append(build.node.key)
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
    predecessors. Head rule: no unresolved conflicting predecessors means
    the single remaining build speaks for the real merge. Bypass rule:
    with predecessors still pending, identical outcomes across every
    speculative variant make the result independent of how they resolve.
    Bypass is unsafe when conflicting predecessors fell outside the
    speculation window, since no build covered those combinations.
    """
    window = forest.window(c)
    nodes = forest.nodes_for_change(c)
    if not window:
        node = nodes[0]
        if node.outcome is None:
            return Decision(
                DecisionKind.WAIT, c, reason=WaitReason.BUILDS_OUTSTANDING
            )
        if node.outcome is BuildOutcome.PASS:
            return Decision(DecisionKind.LAND, c)
        return Decision(DecisionKind.REJECT, c)

    if any(n.outcome is None for n in nodes):
        return Decision(DecisionKind.WAIT, c, reason=WaitReason.BUILDS_OUTSTANDING)
    outcomes = {n.outcome for n in nodes}
    if len(outcomes) > 1:
        return Decision(
            DecisionKind.WAIT, c, reason=WaitReason.OUTCOMES_INCONSISTENT
        )
    if not allow_bypass or len(forest.conflicting_ahead(c)) > len(window):
        return Decision(
            DecisionKind.WAIT, c, reason=WaitReason.BLOCKED_BY_PREDECESSOR
        )
    if outcomes == {BuildOutcome.PASS}:
        return Decision(DecisionKind.LAND, c, via_bypass=True)
    return Decision(DecisionKind.REJECT, c, via_bypass=True)
