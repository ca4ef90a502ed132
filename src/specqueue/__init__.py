"""Speculative merge-queue scheduling engine and simulator."""

from specqueue.core import (
    BuildOutcome,
    Change,
    ChangeId,
    ConflictGraph,
    EngineConfig,
    build_conflict_graph,
    conflicts,
)

__all__ = [
    "BuildOutcome",
    "Change",
    "ChangeId",
    "ConflictGraph",
    "EngineConfig",
    "build_conflict_graph",
    "conflicts",
]
