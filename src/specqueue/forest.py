"""Pruned speculation forest over the pending queue.

Each pending change gets one build node per subset of its unresolved
conflicting predecessors (capped at the nearest ``depth_cap`` of them;
the older ones are filed as outside its window).
Non-conflicting predecessors never enter a base set: speculation paths
that differ only in an independent change would produce identical merge
results, so they are merged away. Changes in different conflict
components therefore speculate independently, giving a forest of trees
rather than one tree over the whole queue.

The forest is kept in place. A node is the one record of its build's
estimate and outcome, and is updated where it stands: an estimate is
set on it, a finished build completes it, and a decision that carries
it rewrites its base and files it under its new key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import lt
from typing import Collection, Mapping, Sequence

from specqueue.core import BuildOutcome, ChangeId
from specqueue.prediction import DurationEstimate

BaseKey = tuple[ChangeId, ...]
NodeKey = tuple[ChangeId, BaseKey]


@dataclass(slots=True, eq=False)
class BuildNode:
    """One speculative build: a change merged onto mainline plus a base set.

    ``base`` lists the conflicting predecessors assumed to have landed
    under this node, in queue order. A node is pending until its build
    finishes and it gets an outcome; whether its build is running is
    the engine's to know, not the node's. A node is the one record of
    its build's estimate and outcome: the forest and the engine update
    it in place, and it is validated once, when it is created. Nodes
    compare and hash by identity, so a node can key a table of its own.
    """

    change: ChangeId
    base: BaseKey
    finished_at: float | None = None
    outcome: BuildOutcome | None = None
    estimate: DurationEstimate | None = None

    def __post_init__(self) -> None:
        base = self.base
        if base:
            # strictly, so a repeated member is out of order too
            if len(base) > 1 and not all(map(lt, base, base[1:])):
                raise ValueError("base must be sorted in queue order")
            # sorted, so its last member is its largest
            if base[-1] >= self.change:
                raise ValueError("base members must precede the change in queue order")
        if (self.outcome is None) != (self.finished_at is None):
            raise ValueError("outcome and finished_at are set together")

    @property
    def key(self) -> NodeKey:
        return (self.change, self.base)

    def complete(self, outcome: BuildOutcome, now: float) -> None:
        if self.outcome is not None:
            raise ValueError(f"build {self.key} already finished")
        self.outcome = outcome
        self.finished_at = now


def _ordered_bases(window: BaseKey) -> tuple[BaseKey, ...]:
    """Every base of a window, largest first, then base lexicographic.

    A window is in queue order, so `combinations` yields each size's
    bases in base-lexicographic order already.
    """
    if not window:
        return ((),)
    return tuple(
        [
            base
            for size in range(len(window), -1, -1)
            for base in combinations(window, size)
        ]
    )


@dataclass
class SpeculationForest:
    """All speculative builds for the current pending queue, kept in place.

    Queue order is ChangeId order. ``targets[c]`` is c's targets, for every
    change that may arrive. ``windows[c]`` is c's window, its nearest
    ``depth_cap`` queued conflicting predecessors, and the keys of
    ``windows`` are the queue, in that order. ``outside[c]`` is the older
    ones the cap left out, in queue order, so ``outside[c] + windows[c]``
    is every queued conflicting predecessor of c. ``after[c]`` is every
    queued conflicting successor of c, in queue order: the only changes
    whose windows c is in, so the only ones its resolution moves. Only an
    arrival and a resolution change it, since the conflict relation among
    queued changes is fixed. For the same reason c's predecessors are
    derived once, on arrival, from ``queued[t]``, the queued changes on
    each of c's targets t in queue order; a re-window takes them from
    ``outside[c] + windows[c]``. Each node is built once and filed twice:
    in ``by_change[c]``, c's nodes in read order, and in ``nodes``, by key.
    A node holds what is known of its build: its estimate, and its outcome
    once it finished; which builds run is kept by the engine alone.
    Mutation is single-writer (the engine), and reads hand out the nodes
    themselves, so a held node sees every later update to it; one carried
    to a new base has ``node.key`` equal to its new key. Only the forest
    files nodes.
    """

    targets: Mapping[ChangeId, Collection[str]]
    depth_cap: int
    windows: dict[ChangeId, BaseKey] = field(default_factory=dict)
    outside: dict[ChangeId, BaseKey] = field(default_factory=dict)
    after: dict[ChangeId, list[ChangeId]] = field(default_factory=dict)
    by_change: dict[ChangeId, tuple[BuildNode, ...]] = field(default_factory=dict)
    nodes: dict[NodeKey, BuildNode] = field(default_factory=dict)
    queued: dict[str, list[ChangeId]] = field(default_factory=dict)

    @property
    def queue(self) -> tuple[ChangeId, ...]:
        """The queued changes, in queue order."""
        return tuple(self.windows)

    def heads_component(self, c: ChangeId) -> bool:
        """Whether c is the first queued change of its conflict component
        among the queued changes; the trace labels its build mandatory.
        The walk reads each target's changes once and queues each change
        once."""
        if self.windows[c]:
            return False  # a conflicting predecessor is queued ahead
        queued, targets = self.queued, self.targets
        seen, walked, frontier = {c}, set(), [c]
        while frontier:
            for t in targets[frontier.pop()]:
                if t not in walked:
                    walked.add(t)
                    for other in queued[t]:
                        if other not in seen:
                            if other < c:
                                return False
                            seen.add(other)
                            frontier.append(other)
        return True

    def node(self, change: ChangeId, base: BaseKey) -> BuildNode:
        return self.nodes[(change, base)]

    def nodes_for_change(self, c: ChangeId) -> tuple[BuildNode, ...]:
        """All nodes of c, largest base first, then base lexicographic."""
        return self.by_change[c]

    def add_change(self, c: ChangeId) -> None:
        """Append an arriving change with its window, the predecessors its
        cap left outside, and its pending nodes, and file it as the last
        successor of each of its queued conflicting predecessors.

        c must sort after the queue's tail, so every change queued on one
        of its targets is ahead of it: this one read of ``queued`` is the
        only derivation of c's predecessors, which a re-window takes from
        what is filed here. A later arrival never enters an earlier
        change's window, so every existing window, base and node stays as
        it is, and appending c keeps each list of successors in queue
        order.
        """
        if self.windows and c <= next(reversed(self.windows)):
            raise ValueError(f"change {c} does not sort after the queue's tail")
        targets, queued = set(self.targets[c]), self.queued
        ahead = tuple(sorted({p for t in targets for p in queued.get(t, ())}))
        for t in targets:
            queued.setdefault(t, []).append(c)
        self._set_window(c, ahead, {})
        for p in ahead:
            self.after[p].append(c)
        self.after[c] = []

    def _set_window(
        self, c: ChangeId, ahead: BaseKey, carried: Mapping[BaseKey, BuildNode]
    ) -> None:
        """(Re)file c's window, the nearest ``depth_cap`` of ``ahead``, c's
        queued conflicting predecessors in queue order, and the older ones
        the cap left outside, and file per base the node carried to it,
        else a fresh pending one. A carried node that finds no base
        raises."""
        window = self.windows[c] = ahead[-self.depth_cap :]
        self.outside[c] = ahead[: -self.depth_cap]
        filed = self.by_change[c] = tuple(
            [
                carried[base] if base in carried else BuildNode(change=c, base=base)
                for base in _ordered_bases(window)
            ]
        )
        nodes = self.nodes
        for node in filed:
            nodes[(c, node.base)] = node
        for base, node in carried.items():
            if nodes.get((c, base)) is not node:
                raise AssertionError(f"carried node {node.key} maps outside the forest")


def enumerate_forest(
    queue: Sequence[ChangeId],
    targets: Mapping[ChangeId, Collection[str]],
    depth_cap: int,
) -> SpeculationForest:
    """Build a fresh all-pending forest by adding the queue in order."""
    forest = SpeculationForest(targets=targets, depth_cap=depth_cap)
    for c in queue:
        forest.add_change(c)
    return forest


def carry_map(
    forest: SpeculationForest, resolved: ChangeId, landed: bool
) -> dict[BuildNode, BaseKey | None]:
    """Where each node that `resolved`'s decision moves goes.

    Only the nodes of the resolved change and of its filed successors,
    ``forest.after[resolved]``, the queued later changes that conflict with
    it, are listed; each maps to its new base, or to None when it
    vanishes. The resolved change's own nodes always vanish.
    Every other node keeps its base: builds of earlier changes never
    included it (when it landed early by bypass, the consistency of its
    own variants proved the two changes commute). A successor's node
    survives a landing iff it assumed the landing (the member moves from
    base to mainline), and survives a rejection iff it did not.
    """
    by_change = forest.by_change
    mapping: dict[BuildNode, BaseKey | None] = dict.fromkeys(by_change[resolved])
    for c in forest.after[resolved]:
        for node in by_change[c]:
            if (resolved in node.base) == landed:
                mapping[node] = tuple([b for b in node.base if b != resolved])
            else:
                mapping[node] = None
    return mapping


def resolve_change(
    forest: SpeculationForest,
    resolved: ChangeId,
    mapping: Mapping[BuildNode, BaseKey | None],
) -> SpeculationForest:
    """Remove a decided change and drop every node its outcome contradicts.

    It re-windows exactly the other changes whose nodes ``mapping`` lists,
    so ``mapping`` must be ``carry_map(forest, resolved, landed)``. Each
    keeps its filed predecessors, ``outside[c] + windows[c]``, less the
    resolved change: the conflict relation among queued changes is fixed,
    so that is what a read of the queue would give, and only the resolved
    change's targets are read. A
    surviving node is the same node, its base rewritten in place: when the
    resolved change landed it joins mainline, so a node that assumed it in
    the base describes the same merge with the base member removed. A base
    no carried node fills gets a fresh pending node, built once; every other
    change keeps its window and nodes. The resolved change leaves its
    predecessors' lists of successors, and its own list goes. The forest is
    updated in place and returned; an unknown change raises KeyError before
    anything changes.
    """
    for p in forest.outside[resolved] + forest.windows[resolved]:
        forest.after[p].remove(resolved)
    del forest.windows[resolved], forest.outside[resolved], forest.by_change[resolved]
    del forest.after[resolved]
    queued = forest.queued
    for t in set(forest.targets[resolved]):
        queued[t].remove(resolved)
        if not queued[t]:
            del queued[t]
    carried: dict[ChangeId, dict[BaseKey, BuildNode]] = {}
    for node, base in mapping.items():
        del forest.nodes[(node.change, node.base)]
        kept = carried.setdefault(node.change, {})
        if base is not None:
            node.base = base
            kept[base] = node
    del carried[resolved]
    for c, kept in carried.items():
        ahead = forest.outside[c] + forest.windows[c]
        forest._set_window(c, tuple([p for p in ahead if p != resolved]), kept)
    return forest
