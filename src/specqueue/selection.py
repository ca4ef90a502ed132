"""Pick which builds run and decide when changes land or reject.

The selector keeps the executor full with the highest needed-probability
builds and aborts running builds that fell out of the chosen set.
`prioritize` scores the builds and keeps those at or above the
speculation threshold; this module alone orders them: `rank_key` is the
rank order, `key_order` the abort order. `RankOrder` is the one rank
order of every build that can run, kept across selections. The chosen
set is its first capacity builds, which a selection compares with the
running builds. A component head's one build always qualifies: with no
predecessor to wait on, it scores exactly 1. One rule decides a change:
once every speculative variant of it finished with the same outcome,
that outcome holds no matter how its queued predecessors resolve, so it
lands or rejects. A change with no predecessor left in its window has
one variant, its build against the mainline; one with predecessors
decides early, by bypass.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable

from specqueue.core import BuildOutcome, ChangeId
from specqueue.forest import BaseKey, BuildNode, SpeculationForest


def rank_key(node: BuildNode, p: float) -> tuple:
    """Rank order of a build scored p: higher score first, then earlier
    change, then deeper base, then base members."""
    return (-p, node.change, -len(node.base), node.base)


def key_order(node: BuildNode) -> tuple[ChangeId, int, BaseKey]:
    """Abort order of nodes: by change, then base size, then base members."""
    return (node.change, len(node.base), node.base)


class RankOrder:
    """Every build at or above its strategy's floor, in rank order, kept
    across selections.

    ``entries`` holds ``(rank_key, node)`` pairs, sorted; an entry keeps
    the rank key computed when its change was put. The caller puts a
    change whenever a node or score of it may have moved and drops it
    once decided.
    """

    def __init__(self) -> None:
        self.entries: list[tuple[tuple, BuildNode]] = []
        self._by_change: dict[ChangeId, list[tuple[tuple, BuildNode]]] = {}

    def put(self, c: ChangeId, scored: Iterable[tuple[BuildNode, float]]) -> None:
        """Replace c's builds with the ``(node, p)`` pairs ``scored``."""
        self.drop(c)
        placed = [(rank_key(node, p), node) for node, p in scored]
        for entry in placed:
            insort(self.entries, entry)
        self._by_change[c] = placed

    def drop(self, c: ChangeId) -> None:
        """Remove c's builds; a dropped change has nothing left to start."""
        entries = self.entries
        for entry in self._by_change.pop(c, ()):
            del entries[bisect_left(entries, entry)]


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
    order: RankOrder, running: Collection[BuildNode], capacity: int
) -> tuple[tuple[tuple[BuildNode, float], ...], tuple[BuildNode, ...]]:
    """Reconcile the running builds with the chosen set.

    The chosen set is the rank order's first ``capacity`` builds;
    ``running`` holds the nodes of the builds running now, each once.
    Returns the chosen builds not yet running as ``(node, p)`` pairs in
    rank order, p read back exactly from the key, and the nodes of the
    running builds outside the set, in `key_order`.
    """
    chosen = order.entries[:capacity]
    to_start = [(node, -key[0]) for key, node in chosen if node not in running]
    if len(running) + len(to_start) == len(chosen):
        return tuple(to_start), ()  # every running build is still chosen
    chosen_set = {node for _, node in chosen}
    to_abort = [node for node in running if node not in chosen_set]
    return tuple(to_start), tuple(sorted(to_abort, key=key_order))


def decide_change(
    c: ChangeId,
    forest: SpeculationForest,
    *,
    allow_bypass: bool = True,
) -> Decision:
    """Resolve a change now if its builds make the outcome certain.

    Its only inputs are c's window, the queued conflicting predecessors
    its cap left outside, and c's nodes. The change waits while a variant
    is pending, while the variants disagree, or while it is blocked;
    otherwise it lands on a unanimous pass and rejects on a unanimous
    fail. With an empty window its one build speaks for the real merge.
    With predecessors in the window the decision bypasses them, which is
    blocked when bypass is off or when ``forest.outside[c]`` is not
    empty, since no build covered those predecessors.
    """
    window = forest.windows[c]
    nodes = iter(forest.nodes_for_change(c))
    # outcomes compare by identity: an Enum member hashes in Python
    outcome = next(nodes).outcome
    if outcome is None or (window and (not allow_bypass or forest.outside[c])):
        return Decision(DecisionKind.WAIT, c)
    for node in nodes:
        if node.outcome is not outcome:
            return Decision(DecisionKind.WAIT, c)
    if outcome is BuildOutcome.PASS:
        return Decision(DecisionKind.LAND, c)
    return Decision(DecisionKind.REJECT, c)
