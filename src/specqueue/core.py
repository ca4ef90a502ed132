"""Change ids, the conflict graph built from changes' targets, and engine
configuration."""

from __future__ import annotations

from dataclasses import dataclass
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
        self = int.__new__(cls, seq)
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


def require_ints(
    record: object, names: tuple[str, ...], error: type[ValueError] = ValueError
) -> None:
    """Raise `error` naming the first of the record's fields `names` whose
    value is not an int. A float or a bool is not one: the file format
    would write it in a form that its parser rejects."""
    for name in names:
        value = getattr(record, name)
        if type(value) is not int:
            raise error(f"{name} must be an int, got {value!r}")


class BuildOutcome(Enum):
    PASS = "pass"
    FAIL = "fail"


@dataclass(frozen=True)
class ConflictGraph:
    """Symmetric, irreflexive conflict relation over a set of changes: two
    conflict when they touch a common target. ``targets[c]`` is c's targets
    as given, and ``changes[t]`` the changes touching t, each once, in order.
    """

    targets: Mapping[ChangeId, Collection[str]]
    changes: Mapping[str, list[ChangeId]]

    @property
    def adjacency(self) -> dict[ChangeId, frozenset[ChangeId]]:
        """Every change's neighbours, derived on each read."""
        changes = self.changes
        return {
            c: frozenset([o for t in touched for o in changes[t] if o != c])
            for c, touched in self.targets.items()
        }


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
        change, at most 16; node count per change is two to this power.
    """

    speculation_threshold: float = 0.3
    bypass_eligibility_threshold: float = 0.5
    bypass_product_floor: float = 0.05
    executor_capacity: int = 8
    depth_cap: int = 6

    def __post_init__(self) -> None:
        require_ints(self, ("executor_capacity", "depth_cap"))
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
        if self.depth_cap > 16:
            raise ValueError("depth_cap must be <= 16")


def build_conflict_graph(
    targets: Mapping[ChangeId, Collection[str]],
) -> ConflictGraph:
    """Conflict graph over the given changes, from each one's build targets:
    one pass files each change under each target it touches, and pairs none."""
    changes: dict[str, list[ChangeId]] = {}
    for cid, touched in targets.items():
        for target in touched:
            users = changes.setdefault(target, [])
            # a target listed twice by one change is filed once
            if not users or users[-1] != cid:
                users.append(cid)
    return ConflictGraph(dict(targets), changes)
