"""Pick which builds run and decide when changes land or reject.

The selector keeps the executor full with the highest needed-probability
builds (component heads always qualify) and aborts running builds that
fell out of the chosen set. A change resolves either by the head rule
(its conflicting predecessors are all decided, so its one remaining
build is authoritative) or by bypass: if every speculative variant of
the change finished with the same outcome, that outcome holds no matter
how the predecessors resolve, so the change may land or reject early.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from specqueue.core import BuildOutcome, ChangeId, EngineConfig
from specqueue.forest import BuildNode, BuildStatus, SpeculationForest, key_order
from specqueue.prioritize import RankedBuild


@dataclass(frozen=True)
class ScheduleAction:
    """What the executor should do after a ranking pass."""

    to_start: tuple[BuildNode, ...]
    to_abort: tuple[BuildNode, ...]
    to_keep: tuple[BuildNode, ...]


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
    failing_node: BuildNode | None = None
    reason: WaitReason | None = None

    def __post_init__(self) -> None:
        if self.kind is DecisionKind.WAIT and self.reason is None:
            raise ValueError("wait decisions need a reason")
        if self.kind is DecisionKind.REJECT and self.failing_node is None:
            raise ValueError("reject decisions need the failing build")


def select_builds(
    ranked: Sequence[RankedBuild],
    running: Iterable[BuildNode],
    cfg: EngineConfig,
) -> ScheduleAction:
    """Choose the build set for the executor's capacity.

    Candidates are builds at or above the speculation threshold plus the
    mandatory component-head builds; the top candidates fill capacity in
    rank order. Running builds that did not make the cut are aborted.
    """
    candidates = [
        r
        for r in ranked
        if r.mandatory or r.p_needed >= cfg.speculation_threshold
    ]
    chosen = candidates[: cfg.executor_capacity]
    taken = {r.node.key for r in chosen}
    running_by_key = {n.key: n for n in running}
    to_keep = tuple(
        running_by_key[r.node.key] for r in chosen if r.node.key in running_by_key
    )
    to_abort = tuple(
        running_by_key[k]
        for k in sorted(running_by_key, key=key_order)
        if k not in taken
    )
    to_start = tuple(
        r.node for r in chosen if r.node.key not in running_by_key
    )
    return ScheduleAction(to_start=to_start, to_abort=to_abort, to_keep=to_keep)


def decide_change(
    c: ChangeId,
    forest: SpeculationForest,
    *,
    allow_bypass: bool = True,
) -> Decision:
    """Resolve a change now if its builds make the outcome certain.

    Head rule: no unresolved conflicting predecessors means the single
    remaining build speaks for the real merge. Bypass rule: with
    predecessors still pending, identical outcomes across every
    speculative variant make the result independent of how they resolve.
    Bypass is unsafe when conflicting predecessors fell outside the
    speculation window, since no build covered those combinations.
    """
    window = forest.window(c)
    nodes = forest.nodes_for_change(c)
    if not window:
        node = nodes[0]
        if node.status is not BuildStatus.COMPLETED:
            return Decision(
                DecisionKind.WAIT, c, reason=WaitReason.BUILDS_OUTSTANDING
            )
        if node.outcome is BuildOutcome.PASS:
            return Decision(DecisionKind.LAND, c)
        return Decision(DecisionKind.REJECT, c, failing_node=node)

    if any(n.status is not BuildStatus.COMPLETED for n in nodes):
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
    return Decision(
        DecisionKind.REJECT, c, via_bypass=True, failing_node=nodes[0]
    )
