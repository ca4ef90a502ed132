"""Speculative merge-queue scheduling engine and simulator."""

from specqueue.core import (
    BuildOutcome,
    ChangeId,
    ConflictGraph,
    EngineConfig,
    build_conflict_graph,
)

__all__ = [
    "BuildOutcome",
    "ChangeId",
    "ConflictGraph",
    "EngineConfig",
    "build_conflict_graph",
]
