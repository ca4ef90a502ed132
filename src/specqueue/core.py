"""Domain types, conflict analysis, and engine configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence


@dataclass(frozen=True, order=True)
class ChangeId:
    """Identifier for one submitted change.

    ``seq`` is the enqueue index; the total order over ids equals the order
    in which changes entered the queue. ``label`` is the human-facing name
    used in workload files and traces.
    """

    seq: int
    label: str

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Change:
    """One submitted code change: the targets it touches and its prior."""

    id: ChangeId
    arrival_time: float
    targets_changed: frozenset[str] = frozenset()
    success_prior: float = 0.9

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError(f"arrival_time must be >= 0, got {self.arrival_time}")
        if not 0.0 <= self.success_prior <= 1.0:
            raise ValueError(f"success_prior must be in [0, 1], got {self.success_prior}")


class BuildOutcome(Enum):
    PASS = "pass"
    FAIL = "fail"


@dataclass(frozen=True)
class ConflictGraph:
    """Symmetric, irreflexive conflict relation over a set of changes."""

    adjacency: Mapping[ChangeId, frozenset[ChangeId]] = field(default_factory=dict)

    def neighbors(self, c: ChangeId) -> frozenset[ChangeId]:
        return self.adjacency.get(c, frozenset())


@dataclass(frozen=True)
class EngineConfig:
    """Tunable thresholds and limits for the scheduling engine.

    speculation_threshold: minimum needed-probability for a build to be
        scheduled (delta).
    bypass_eligibility_threshold: minimum finish-before probability for a
        conflicting predecessor to count as bypassable (tau).
    bypass_product_floor: when the product of bypass probabilities falls
        below this, scoring falls back to the outcome-only model (epsilon).
    executor_capacity: maximum concurrently running builds.
    depth_cap: maximum number of conflicting predecessors expanded per
        change; node count per change is two to this power.
    """

    speculation_threshold: float = 0.3
    bypass_eligibility_threshold: float = 0.5
    bypass_product_floor: float = 0.05
    executor_capacity: int = 8
    depth_cap: int = 6

    def __post_init__(self) -> None:
        if not 0.0 <= self.speculation_threshold <= 1.0:
            raise ValueError("speculation_threshold must be in [0, 1]")
        if not 0.0 <= self.bypass_eligibility_threshold <= 1.0:
            raise ValueError("bypass_eligibility_threshold must be in [0, 1]")
        if not 0.0 < self.bypass_product_floor < 1.0:
            raise ValueError("bypass_product_floor must be in (0, 1)")
        if self.executor_capacity < 1:
            raise ValueError("executor_capacity must be >= 1")
        if self.depth_cap < 1:
            raise ValueError("depth_cap must be >= 1")


def conflicts(a: Change, b: Change) -> bool:
    """True iff the two changes touch at least one common build target."""
    return bool(a.targets_changed & b.targets_changed)


def build_conflict_graph(changes: Sequence[Change]) -> ConflictGraph:
    """Conflict graph over the given changes: the pairs `conflicts` holds for.

    Built from an index of the changes touching each target, so only
    changes that share a target are ever paired. Raises ValueError on
    duplicate change ids.
    """
    by_target: dict[str, list[ChangeId]] = {}
    adjacency: dict[ChangeId, set[ChangeId]] = {}
    for c in changes:
        if c.id in adjacency:
            raise ValueError(f"duplicate change id: {c.id}")
        adjacency[c.id] = set()
        for target in c.targets_changed:
            by_target.setdefault(target, []).append(c.id)
    for sharing in by_target.values():
        if len(sharing) > 1:
            for cid in sharing:
                adjacency[cid].update(sharing)
    return ConflictGraph(
        {cid: frozenset(nbrs - {cid}) for cid, nbrs in adjacency.items()}
    )


def connected_components(
    g: ConflictGraph, changes: Sequence[ChangeId]
) -> list[list[ChangeId]]:
    """Partition the changes into conflict-connected components.

    Components are listed in order of their earliest member; within a
    component the original arrival order is preserved.
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
            for nbr in g.neighbors(current):
                if nbr in order and nbr not in assigned:
                    assigned[nbr] = index
                    members.append(nbr)
                    frontier.append(nbr)
        components.append(members)
    for members in components:
        members.sort(key=lambda cid: order[cid])
    return components
