"""Score every speculative build by the probability its result is needed.

For each pending change the conflicting predecessors split into two
groups: those the change may finish before (bypassable, weighted by the
finish-order probability) and those it must wait out (weighted by the
predecessor's pass/fail odds along the node's assumed path). The product
of the group terms is the node's needed-probability, which drives build
scheduling order. A build below its strategy's floor, the speculation
threshold, never runs, so scoring stops early and drops it. A change's
partition and scores read only its own builds, its window and its window
members' builds, so a caller can keep them until one of those moves. No
score reads the queued conflicting predecessors the window's cap left
out, which the forest files as ``outside[c]``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from specqueue.completion import p_finishes_before
from specqueue.core import ChangeId, EngineConfig
from specqueue.forest import BaseKey, BuildNode, SpeculationForest
from specqueue.prediction import DurationEstimate

# Success-probability source for a predecessor build: takes the
# predecessor and the path context, the scored node's base members ahead
# of it, assumed landed. The engine cuts the context to the members in
# the predecessor's own window, which names one of its builds, and reads
# that build's observed outcome once it finished; tests can pass plain
# priors.
SuccessFn = Callable[[ChangeId, BaseKey], float]


@dataclass(frozen=True)
class BypassPartition:
    """How one change's conflicting predecessors are treated for scoring."""

    change: ChangeId
    non_bypassable: BaseKey
    bypassable: BaseKey
    bypass_product: float
    fallback_active: bool
    # every predecessor of either kind, set once from the two above
    predecessors: frozenset[ChangeId] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        waited = frozenset(self.non_bypassable)
        if not waited.isdisjoint(self.bypassable):
            raise ValueError("a predecessor cannot be both bypassable and not")
        if not 0.0 <= self.bypass_product <= 1.0:
            raise ValueError("bypass_product must be in [0, 1]")
        object.__setattr__(self, "predecessors", waited.union(self.bypassable))


def finish_time_model(c: ChangeId, forest: SpeculationForest) -> DurationEstimate:
    """Pool the change's builds into one finish-time normal, averaging
    their means and their variances.

    A finished build has no remaining time, so it adds nothing but counts
    in the average; a pending node with no estimate raises. Both sums
    run left to right over the nodes in the forest's order, so the
    pooled floats are the same on every Python: the builtin `sum` rounds
    floats with compensation from 3.12 on.
    """
    nodes = forest.nodes_for_change(c)
    mean = variance = 0.0
    for node in nodes:
        if node.outcome is None:
            estimate = node.estimate
            if estimate is None:
                raise ValueError(f"node {node.key} has no duration estimate")
            mean += estimate.mean
            variance += estimate.variance
    return DurationEstimate(mean / len(nodes), variance / len(nodes))


def outcome_partition(
    c: ChangeId, forest: SpeculationForest, fallback_active: bool = False
) -> BypassPartition:
    """The partition that waits out every predecessor in c's window, so
    each build scores by pass/fail terms alone."""
    return BypassPartition(c, forest.windows[c], (), 1.0, fallback_active)


def profile_change(
    c: ChangeId,
    forest: SpeculationForest,
    arrivals: Mapping[ChangeId, float] | Sequence[float],
    cfg: EngineConfig,
) -> BypassPartition:
    """Partition c's window predecessors by finish-order probability.

    A predecessor is bypassable when c is likely enough to finish first
    (threshold tau). When the joint probability of finishing before all
    bypassable predecessors drops below the floor (epsilon), speculation
    on finish order is pointless and scoring falls back to the
    `outcome_partition`, flagged as a fallback. `arrivals[c]` is change
    c's arrival time: a map by id, or a sequence indexed by id. A
    change with an empty window has nothing to partition, so it gets
    the `outcome_partition`, with product 1 and no fallback; pooling its
    estimate still checks that its pending node has one. The engine
    ranks such a change by rule and never profiles it.
    """
    window = forest.windows[c]
    at_c, est_c = arrivals[c], finish_time_model(c, forest)
    non_bypassable: list[ChangeId] = []
    bypassable: list[ChangeId] = []
    product = 1.0
    for pred in window:
        est_pred = finish_time_model(pred, forest)
        p_first = p_finishes_before(at_c, est_c, arrivals[pred], est_pred)
        if p_first >= cfg.bypass_eligibility_threshold:
            bypassable.append(pred)
            product *= p_first
        else:
            non_bypassable.append(pred)
    if product < cfg.bypass_product_floor:
        return outcome_partition(c, forest, fallback_active=True)
    return BypassPartition(
        c, tuple(non_bypassable), tuple(bypassable), product, fallback_active=False
    )


def needed_probability(
    node: BuildNode, part: BypassPartition, success_fn: SuccessFn, floor: float = 0.0
) -> float:
    """Probability this node's result decides its change.

    Each non-bypassable predecessor contributes its pass probability if
    the node assumes it landed, else its fail probability; bypassable
    predecessors contribute the joint finish-first probability once,
    so sibling nodes differing only in bypassable membership score
    equally. Every term is in [0, 1], so the product only falls; once
    below ``floor`` it stops, and is then only known to be below it.
    """
    if node.change != part.change:
        raise ValueError(f"node {node.key} does not belong to change {part.change}")
    assumed = set(node.base)
    if not assumed <= part.predecessors:
        raise ValueError(f"node base {node.base} outside partition predecessors")
    p = part.bypass_product
    base = node.base
    for pred in part.non_bypassable:
        if p < floor:
            break
        # a base is in queue order, so the members before pred lead it
        p_pass = success_fn(pred, base[: bisect_left(base, pred)])
        p *= p_pass if pred in assumed else 1.0 - p_pass
    return p


def rank_builds(
    nodes: Iterable[BuildNode],
    partition: BypassPartition,
    success_fn: SuccessFn,
    floor: float = 0.0,
) -> list[tuple[BuildNode, float]]:
    """Score one change's builds that can run, under its partition.

    Finished nodes are excluded; every other node is scored, running or
    not, and kept if it scores at or above ``floor``. The `(node, p)`
    pairs come back in input order; selection ranks them against every
    other change's. A score outside [0, 1] raises.
    """
    scored = []
    for node in nodes:
        if node.outcome is None:
            p = needed_probability(node, partition, success_fn, floor)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"node {node.key} scores {p}, outside [0, 1]")
            if p >= floor:
                scored.append((node, p))
    return scored
