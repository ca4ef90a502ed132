"""Reference implementations that tests compare the package against."""

from __future__ import annotations

from typing import Mapping, Sequence

from specqueue.core import ChangeId, ConflictGraph
from specqueue.forest import SpeculationForest
from specqueue.prioritize import BypassPartition, RankedBuild, SuccessFn, rank_builds


def rank_all(
    forest: SpeculationForest,
    partitions: Mapping[ChangeId, BypassPartition],
    success: SuccessFn,
) -> list[RankedBuild]:
    """Every queued change's builds scored from scratch, in rank order."""
    ranked = [
        r
        for c in forest.queue
        for r in rank_builds(forest.nodes_for_change(c), partitions[c], success)
    ]
    return sorted(ranked, key=lambda r: r.rank_key)


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
