"""Change ids, the conflict graph built from changes' targets, and engine
configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Collection, Mapping


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

    def __hash__(self) -> int:
        # Equal ids have equal seq, so this agrees with the generated
        # __eq__, and it is much cheaper than hashing (seq, label).
        return self.seq


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


def build_conflict_graph(
    targets: Mapping[ChangeId, Collection[str]],
) -> ConflictGraph:
    """Conflict graph over the given changes, from each one's build targets.

    Two changes conflict when they touch a common target. The graph is
    built from an index of the changes touching each target, so only
    changes that share a target are ever paired.
    """
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
    return ConflictGraph(
        {cid: frozenset(nbrs - {cid}) for cid, nbrs in adjacency.items()}
    )
