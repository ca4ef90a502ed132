"""Pruned speculation forest over the pending queue.

Each pending change gets one build node per subset of its unresolved
conflicting predecessors (capped at the nearest ``depth_cap`` of them).
Non-conflicting predecessors never enter a base set: speculation paths
that differ only in an independent change would produce identical merge
results, so they are merged away. Changes in different conflict
components therefore speculate independently, giving a forest of trees
rather than one tree over the whole queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import combinations
from typing import Iterator, Mapping, Sequence

from specqueue.core import BuildOutcome, ChangeId, ConflictGraph, connected_components
from specqueue.prediction import DurationEstimate

BaseKey = tuple[ChangeId, ...]
NodeKey = tuple[ChangeId, BaseKey]


class BuildStatus(Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    ABORTED = "aborted"


@dataclass(frozen=True)
class BuildNode:
    """One speculative build: a change merged onto mainline plus a base set.

    ``base`` lists the conflicting predecessors assumed to have landed
    under this node, in queue order.
    """

    change: ChangeId
    base: BaseKey
    status: BuildStatus = BuildStatus.PENDING
    started_at: float | None = None
    finished_at: float | None = None
    outcome: BuildOutcome | None = None
    aborted_at: float | None = None
    estimate: DurationEstimate | None = None

    def __post_init__(self) -> None:
        if list(self.base) != sorted(self.base):
            raise ValueError("base must be sorted in queue order")
        if any(b >= self.change for b in self.base):
            raise ValueError("base members must precede the change in queue order")
        if self.status is BuildStatus.RUNNING and self.started_at is None:
            raise ValueError("running node needs started_at")
        if self.status is BuildStatus.COMPLETED and (
            self.outcome is None or self.finished_at is None
        ):
            raise ValueError("completed node needs outcome and finished_at")
        if self.status is BuildStatus.ABORTED and self.aborted_at is None:
            raise ValueError("aborted node needs aborted_at")

    @property
    def key(self) -> NodeKey:
        return (self.change, self.base)

    def with_estimate(self, estimate: DurationEstimate) -> "BuildNode":
        return replace(self, estimate=estimate)

    def started(self, now: float) -> "BuildNode":
        if self.status is BuildStatus.COMPLETED:
            raise ValueError(f"cannot restart completed build {self.key}")
        return replace(
            self,
            status=BuildStatus.RUNNING,
            started_at=now,
            aborted_at=None,
        )

    def completed(self, outcome: BuildOutcome, now: float) -> "BuildNode":
        if self.status is BuildStatus.COMPLETED and self.outcome is not outcome:
            raise ValueError(f"completed build {self.key} cannot change outcome")
        if self.status is not BuildStatus.RUNNING:
            raise ValueError(f"only running builds complete, {self.key} is {self.status}")
        return replace(
            self, status=BuildStatus.COMPLETED, outcome=outcome, finished_at=now
        )

    def aborted(self, now: float) -> "BuildNode":
        if self.status is not BuildStatus.RUNNING:
            raise ValueError(f"only running builds abort, {self.key} is {self.status}")
        return replace(
            self,
            status=BuildStatus.ABORTED,
            aborted_at=now,
            started_at=None,
        )


def key_order(key: NodeKey) -> tuple[int, int, tuple[int, ...]]:
    """Sort key for node keys: by change, then base size, then base members."""
    change, base = key
    return (change.seq, len(base), tuple(b.seq for b in base))


def _subsets(window: BaseKey) -> Iterator[BaseKey]:
    for size in range(len(window) + 1):
        yield from combinations(window, size)


def _ordered_bases(window: BaseKey) -> tuple[BaseKey, ...]:
    """Every base of a window, largest first, then base lexicographic."""
    return tuple(
        sorted(_subsets(window), key=lambda b: (-len(b), tuple(m.seq for m in b)))
    )


@dataclass
class SpeculationForest:
    """All speculative builds for the current pending queue.

    Indexed by how it is read: ``bases`` holds each change's node bases
    in ``nodes_for_change`` order, and ``order`` ranks the queued changes
    (increasing along the queue, not necessarily contiguous), so a
    window is read from the change's conflict neighbours rather than
    from a scan of the queue. Mutation is single-writer (the engine);
    reads hand out immutable node values.
    """

    queue: tuple[ChangeId, ...]
    graph: ConflictGraph
    depth_cap: int
    windows: dict[ChangeId, BaseKey] = field(default_factory=dict)
    nodes: dict[NodeKey, BuildNode] = field(default_factory=dict)
    components: list[list[ChangeId]] = field(default_factory=list)
    bases: dict[ChangeId, tuple[BaseKey, ...]] = field(default_factory=dict)
    order: dict[ChangeId, int] = field(default_factory=dict)

    def window(self, c: ChangeId) -> BaseKey:
        """Unresolved conflicting predecessors of c, nearest depth_cap only."""
        if c not in self.windows:
            raise KeyError(f"unknown change {c}")
        return self.windows[c]

    def conflicting_ahead(self, c: ChangeId) -> BaseKey:
        """Every queued conflicting predecessor of c, in queue order."""
        order = self.order
        rank = order[c]
        ahead = [p for p in self.graph.neighbors(c) if order.get(p, rank) < rank]
        ahead.sort(key=order.__getitem__)
        return tuple(ahead)

    def node(self, change: ChangeId, base: BaseKey) -> BuildNode:
        return self.nodes[(change, base)]

    def nodes_for_change(self, c: ChangeId) -> list[BuildNode]:
        """All nodes of c, largest base first, then base lexicographic."""
        bases = self.bases.get(c)
        if bases is None:
            raise KeyError(f"unknown change {c}")
        nodes = self.nodes
        return [nodes[(c, base)] for base in bases]

    def all_nodes(self) -> list[BuildNode]:
        """Every node, by change sequence, then in nodes_for_change order."""
        nodes = self.nodes
        return [
            nodes[(c, base)]
            for c in sorted(self.queue, key=lambda c: c.seq)
            for base in self.bases[c]
        ]

    def update_node(self, node: BuildNode) -> None:
        if node.key not in self.nodes:
            raise KeyError(f"no such node {node.key}")
        self.nodes[node.key] = node

    def add_change(self, c: ChangeId) -> None:
        """Append an arriving change with its window and pending nodes.

        A later arrival never enters an earlier change's window, so every
        existing window, base and node stays as it is.
        """
        if c in self.order:
            raise ValueError(f"change {c} is already queued")
        self.order[c] = self.order[self.queue[-1]] + 1 if self.queue else 0
        self.queue += (c,)
        self._set_window(c)
        self.components = connected_components(self.graph, self.queue)

    def _set_window(self, c: ChangeId) -> None:
        """(Re)derive c's window, bases and fresh pending nodes."""
        window = self.conflicting_ahead(c)[-self.depth_cap :]
        self.windows[c] = window
        self.bases[c] = _ordered_bases(window)
        for base in self.bases[c]:
            self.nodes[(c, base)] = BuildNode(change=c, base=base)


def enumerate_forest(
    queue: Sequence[ChangeId], g: ConflictGraph, depth_cap: int
) -> SpeculationForest:
    """Build a fresh all-pending forest; every node starts Pending."""
    queue_t = tuple(queue)
    forest = SpeculationForest(
        queue=queue_t,
        graph=g,
        depth_cap=depth_cap,
        order={c: i for i, c in enumerate(queue_t)},
    )
    for c in queue_t:
        forest._set_window(c)
    forest.components = connected_components(g, queue_t)
    return forest


def _later_conflicting(forest: SpeculationForest, c: ChangeId) -> list[ChangeId]:
    """Queued changes after c that conflict with it: the only windows c is in."""
    order = forest.order
    rank = order[c]
    return sorted(
        (s for s in forest.graph.neighbors(c) if order.get(s, rank) > rank),
        key=order.__getitem__,
    )


def carry_map(
    forest: SpeculationForest, resolved: ChangeId, landed: bool
) -> dict[NodeKey, NodeKey]:
    """Where each surviving node goes once `resolved` leaves the queue.

    Nodes of the resolved change itself vanish. Only successors ever
    speculated on it; builds of earlier changes never included it and
    stay valid under the same key (when it landed early by bypass, the
    consistency of its own variants proved the two changes commute). A
    successor's node survives a landing iff it assumed the landing (the
    member moves from base to mainline), and survives a rejection iff it
    did not.
    """
    if resolved not in forest.windows:
        raise KeyError(f"unknown change {resolved}")
    affected = set(_later_conflicting(forest, resolved))
    mapping: dict[NodeKey, NodeKey] = {}
    for c in forest.queue:
        if c == resolved:
            continue
        for base in forest.bases[c]:
            if c not in affected:
                mapping[(c, base)] = (c, base)
            elif resolved not in base:
                if not landed:
                    mapping[(c, base)] = (c, base)
            elif landed:
                mapping[(c, base)] = (c, tuple(b for b in base if b != resolved))
    return mapping


def resolve_change(
    forest: SpeculationForest,
    resolved: ChangeId,
    landed: bool,
    mapping: Mapping[NodeKey, NodeKey] | None = None,
) -> SpeculationForest:
    """Remove a decided change and drop every node its outcome contradicts.

    A surviving node keeps its state under its rewritten base: when the
    resolved change landed it joins mainline, so a node that assumed it
    in the base describes the same merge with the base member removed.
    Nodes whose assumption was wrong (or that were built against a
    mainline now missing a landed conflicting change) come back Pending,
    including any fresh nodes from a widened speculation window.

    Only the later changes that conflict with the resolved one get new
    windows; every other change keeps its window, bases and nodes.
    ``mapping`` is ``carry_map(forest, resolved, landed)``, for callers
    that already computed it. The given forest is left unchanged.
    """
    if mapping is None:
        mapping = carry_map(forest, resolved, landed)
    affected = _later_conflicting(forest, resolved)
    nodes = dict(forest.nodes)
    for c in [resolved, *affected]:
        for base in forest.bases[c]:
            del nodes[(c, base)]
    queue = tuple(c for c in forest.queue if c != resolved)
    rebuilt = SpeculationForest(
        queue=queue,
        graph=forest.graph,
        depth_cap=forest.depth_cap,
        windows=dict(forest.windows),
        nodes=nodes,
        components=connected_components(forest.graph, queue),
        bases=dict(forest.bases),
        order=dict(forest.order),
    )
    for index in (rebuilt.windows, rebuilt.bases, rebuilt.order):
        del index[resolved]
    for c in affected:
        rebuilt._set_window(c)
    for old_key, new_key in mapping.items():
        if new_key not in nodes:
            raise AssertionError(f"carried node {old_key} maps outside the forest")
        node = forest.nodes[old_key]
        nodes[new_key] = node if old_key == new_key else replace(node, base=new_key[1])
    return rebuilt
