"""Pick which builds run and decide when changes land or reject.

The selector keeps the executor full with the highest needed-probability
builds at or above the speculation threshold and aborts running builds
that fell out of the chosen set. A component head's one build always
qualifies: with no predecessor to wait on, it scores exactly 1. A change
resolves either by the head rule (its conflicting predecessors are all
decided, so its one remaining build is authoritative) or by bypass: if
every speculative variant of the change finished with the same outcome,
that outcome holds no matter how the predecessors resolve, so the
change may land or reject early.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable

from specqueue.core import BuildOutcome, ChangeId, EngineConfig
from specqueue.forest import NodeKey, SpeculationForest, key_order
from specqueue.prioritize import RankedBuild


@dataclass(frozen=True)
class ScheduleAction:
    """What the executor should do after a ranking pass: start the chosen
    builds not yet running, in rank order, and abort the running builds
    that fell out of the chosen set, by key in `key_order`."""

    to_start: tuple[RankedBuild, ...]
    to_abort: tuple[NodeKey, ...]


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
    ranked: Iterable[RankedBuild],
    running: Collection[NodeKey],
    cfg: EngineConfig,
) -> ScheduleAction:
    """Choose the build set for the executor's capacity.

    ``ranked`` is in rank order, so the candidates, the builds at or
    above the speculation threshold, are a prefix of it: they are taken
    in order until capacity is full or a score falls below the
    threshold, and no more of ``ranked`` is read. ``running`` holds the
    keys of the builds running now; those that did not make the cut are
    aborted.
    """
    capacity, threshold = cfg.executor_capacity, cfg.speculation_threshold
    chosen: list[RankedBuild] = []
    for r in ranked:
        if len(chosen) == capacity or r.p_needed < threshold:
            break
        chosen.append(r)
    taken = {r.node.key for r in chosen}
    to_abort = tuple(sorted((k for k in running if k not in taken), key=key_order))
    to_start = tuple(r for r in chosen if r.node.key not in running)
    return ScheduleAction(to_start=to_start, to_abort=to_abort)


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
