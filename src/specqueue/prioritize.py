"""Score every speculative build by the probability its result is needed.

For each pending change the conflicting predecessors split into two
groups: those the change may finish before (bypassable, weighted by the
finish-order probability) and those it must wait out (weighted by the
predecessor's pass/fail odds along the node's assumed path). The product
of the group terms is the node's needed-probability, which drives build
scheduling order. A change's partition and scores read only its own
builds, its window and its window members' builds, so a caller can keep
them until one of those moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from specqueue.completion import (
    FinishTimeModel,
    combine_estimates,
    p_finishes_before,
)
from specqueue.core import ChangeId, EngineConfig
from specqueue.forest import BaseKey, BuildNode, SpeculationForest
from specqueue.prediction import DurationEstimate

# Success-probability source for a predecessor build: takes the
# predecessor and the path context (assumed-landed members of its own
# window), so callers can substitute observed outcomes for finished
# builds while tests can pass plain priors.
SuccessFn = Callable[[ChangeId, BaseKey], float]

_ZERO_REMAINING = DurationEstimate(0.0, 0.0)


@dataclass(frozen=True)
class BypassPartition:
    """How one change's conflicting predecessors are treated for scoring."""

    change: ChangeId
    non_bypassable: BaseKey
    bypassable: BaseKey
    bypass_product: float
    fallback_active: bool

    def __post_init__(self) -> None:
        if set(self.non_bypassable) & set(self.bypassable):
            raise ValueError("a predecessor cannot be both bypassable and not")
        if not 0.0 <= self.bypass_product <= 1.0:
            raise ValueError("bypass_product must be in [0, 1]")

    @property
    def predecessors(self) -> frozenset[ChangeId]:
        return frozenset(self.non_bypassable) | frozenset(self.bypassable)


@dataclass(frozen=True)
class RankedBuild:
    node: BuildNode
    p_needed: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_needed <= 1.0:
            raise ValueError("p_needed must be in [0, 1]")

    @property
    def rank_key(self) -> tuple:
        """Rank order: higher score first, then earlier change, then
        deeper base, then base members."""
        node = self.node
        return (-self.p_needed, node.change, -len(node.base), node.base)


def finish_time_model(
    c: ChangeId, forest: SpeculationForest, arrival: float
) -> FinishTimeModel:
    """Pool the change's builds into one finish-time normal.

    Finished builds have no remaining time; every other node
    contributes its predicted duration.
    """
    estimates = []
    for node in forest.nodes_for_change(c):
        if node.outcome is not None:
            estimates.append(_ZERO_REMAINING)
        else:
            if node.estimate is None:
                raise ValueError(f"node {node.key} has no duration estimate")
            estimates.append(node.estimate)
    return FinishTimeModel(arrival, combine_estimates(estimates))


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
    on finish order is pointless and scoring falls back to pass/fail
    terms for every predecessor. `arrivals[c]` is change c's arrival
    time: a map by id, or a sequence indexed by id.
    """
    model_c = finish_time_model(c, forest, arrivals[c])
    non_bypassable: list[ChangeId] = []
    bypassable: list[ChangeId] = []
    product = 1.0
    for pred in forest.windows[c]:
        model_pred = finish_time_model(pred, forest, arrivals[pred])
        p_first = p_finishes_before(model_c, model_pred)
        if p_first >= cfg.bypass_eligibility_threshold:
            bypassable.append(pred)
            product *= p_first
        else:
            non_bypassable.append(pred)
    return BypassPartition(
        change=c,
        non_bypassable=tuple(non_bypassable),
        bypassable=tuple(bypassable),
        bypass_product=product,
        fallback_active=product < cfg.bypass_product_floor,
    )


def needed_probability(
    node: BuildNode, part: BypassPartition, success_fn: SuccessFn
) -> float:
    """Probability this node's result decides its change.

    Each non-bypassable predecessor contributes its pass probability if
    the node assumes it landed, else its fail probability; bypassable
    predecessors contribute the joint finish-first probability once,
    so sibling nodes differing only in bypassable membership score
    equally. Under fallback every predecessor contributes a pass/fail
    term and the finish-first factor is dropped.
    """
    if node.change != part.change:
        raise ValueError(f"node {node.key} does not belong to change {part.change}")
    if not set(node.base) <= part.predecessors:
        raise ValueError(f"node base {node.base} outside partition predecessors")
    if part.fallback_active:
        outcome_preds = tuple(sorted(part.predecessors))
        p = 1.0
    else:
        outcome_preds = part.non_bypassable
        p = part.bypass_product
    assumed = set(node.base)
    for pred in outcome_preds:
        context = tuple(b for b in node.base if b < pred)
        p_pass = success_fn(pred, context)
        p *= p_pass if pred in assumed else 1.0 - p_pass
    return p


def rank_builds(
    nodes: Iterable[BuildNode],
    partition: BypassPartition,
    success_fn: SuccessFn,
) -> list[RankedBuild]:
    """Score one change's builds that could still run, under its partition.

    Finished nodes are excluded; every other node is scored, running or
    not. The builds come back in input order; `RankedBuild.rank_key`
    orders them against every other change's.
    """
    return [
        RankedBuild(node=node, p_needed=needed_probability(node, partition, success_fn))
        for node in nodes
        if node.outcome is None
    ]
