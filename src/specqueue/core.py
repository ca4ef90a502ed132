"""Change ids, the conflict graph built from changes' targets, and engine
configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Collection, Mapping


class ChangeId(int):
    """Identifier for one submitted change: the int ``seq`` with a label.

    ``seq`` is the enqueue index and the id's int value, so ids hash,
    compare and order as their seq, in C; the total order over ids
    equals the order in which changes entered the queue. ``label`` is
    the human-facing name used in workload files and traces. Ids are
    immutable.
    """

    label: str
    seq = property(int)

    def __new__(cls, seq: int, label: str) -> "ChangeId":
        self = super().__new__(cls, seq)
        self.__dict__["label"] = label
        return self

    def __getnewargs__(self) -> tuple[int, str]:
        return (int(self), self.label)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of ChangeId")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of ChangeId")

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"ChangeId(seq={int(self)}, label={self.label!r})"


class BuildOutcome(Enum):
    PASS = "pass"
    FAIL = "fail"


@dataclass(frozen=True)
class ConflictGraph:
    """Symmetric, irreflexive conflict relation over a set of changes."""

    adjacency: Mapping[ChangeId, frozenset[ChangeId]] = field(default_factory=dict)

    def neighbors(self, c: ChangeId) -> frozenset[ChangeId]:
        """The changes c conflicts with; KeyError if c is not in the graph."""
        return self.adjacency[c]


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
