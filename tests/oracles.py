"""Reference implementations that tests compare the package against."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from specqueue.core import ChangeId, ConflictGraph, EngineConfig
from specqueue.forest import BuildNode, SpeculationForest
from specqueue.prioritize import BypassPartition, SuccessFn, rank_builds
from specqueue.selection import rank_key


def rank_all(
    forest: SpeculationForest,
    partitions: Mapping[ChangeId, BypassPartition],
    success: SuccessFn,
) -> list[tuple[tuple, BuildNode]]:
    """Every queued change's builds scored from scratch, as sorted
    `(rank_key, node)` entries."""
    return sorted(
        (rank_key(node, p), node)
        for c in forest.queue
        for node, p in rank_builds(forest.nodes_for_change(c), partitions[c], success)
    )


def chosen_nodes(
    entries: Iterable[tuple[tuple, BuildNode]], cfg: EngineConfig
) -> set[BuildNode]:
    """The nodes a rank order's sorted `(rank_key, node)` entries choose:
    taken in order until capacity is full or a score falls below the
    speculation threshold."""
    capacity, threshold = cfg.executor_capacity, cfg.speculation_threshold
    chosen: set[BuildNode] = set()
    for key, node in entries:
        if len(chosen) == capacity or -key[0] < threshold:
            break
        chosen.add(node)
    return chosen


def connected_components(
    g: ConflictGraph, changes: Sequence[ChangeId]
) -> list[list[ChangeId]]:
    """Partition the changes into conflict-connected components.

    Components are listed in order of their earliest member; within a
    component the original arrival order is preserved. A component's
    first member is its head, the change the trace labels mandatory.
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
