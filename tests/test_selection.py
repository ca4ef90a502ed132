"""Tests for build selection and land/reject/wait decisions."""

from __future__ import annotations

import pytest

from specqueue.core import (
    BuildOutcome,
    ChangeId,
    EngineConfig,
    build_conflict_graph,
)
from specqueue.forest import (
    SpeculationForest,
    enumerate_forest,
    resolve_change,
)
from specqueue.prioritize import BypassPartition, RankedBuild, rank_builds
from specqueue.selection import (
    Decision,
    DecisionKind,
    ScheduleAction,
    WaitReason,
    decide_change,
    select_builds,
)

C1, C2, C3 = ChangeId(1, "C1"), ChangeId(2, "C2"), ChangeId(3, "C3")


def triangle(n: int = 3, depth_cap: int = 6) -> SpeculationForest:
    targets = {ChangeId(i, f"C{i}"): {"t"} for i in range(1, n + 1)}
    g = build_conflict_graph(targets)
    return enumerate_forest(list(targets), g, depth_cap)


def ranked_fixture(forest, scores: dict) -> list[RankedBuild]:
    out = []
    for (change, base), p in scores.items():
        node = forest.node(change, base)
        out.append(RankedBuild(node=node, p_needed=p))
    out.sort(key=lambda r: r.rank_key)
    return out


def finish(forest, change, base, outcome, at=10.0):
    forest.update_node(forest.node(change, base).completed(outcome, at))


CFG = EngineConfig(speculation_threshold=0.3, executor_capacity=3)


class TestSelectBuilds:
    def test_threshold_filters_unlikely_path(self):
        forest = triangle(n=2)
        ranked = ranked_fixture(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1}
        )
        action = select_builds(ranked, running=[], cfg=CFG)
        assert [r.node.key for r in action.to_start] == [(C1, ()), (C2, (C1,))]
        assert action.to_abort == ()

    def test_equal_scores_all_start(self):
        forest = triangle(n=2)
        ranked = ranked_fixture(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.9}
        )
        action = select_builds(ranked, running=[], cfg=CFG)
        assert len(action.to_start) == 3

    def test_running_build_out_of_the_cut_aborts(self):
        forest = triangle(n=2)
        ranked = ranked_fixture(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1}
        )
        action = select_builds(ranked, running={(C2, ())}, cfg=CFG)
        assert action.to_abort == ((C2, ()),)

    def test_running_build_in_the_cut_is_kept_not_restarted(self):
        forest = triangle(n=2)
        ranked = ranked_fixture(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1}
        )
        action = select_builds(ranked, running={(C1, ())}, cfg=CFG)
        assert action.to_abort == ()
        assert [r.node.key for r in action.to_start] == [(C2, (C1,))]

    def test_capacity_limits_starts_plus_keeps(self):
        forest = triangle(n=3)
        scores = {(C1, ()): 1.0}
        for node in forest.nodes_for_change(C2):
            scores[node.key] = 0.8
        for node in forest.nodes_for_change(C3):
            scores[node.key] = 0.7
        ranked = ranked_fixture(forest, scores)
        action = select_builds(ranked, running=[], cfg=EngineConfig(executor_capacity=4))
        assert len(action.to_start) == 4
        # Rank order: the head, both C2 builds, then C3's deepest.
        assert {r.node.change for r in action.to_start} == {C1, C2, C3}

    def test_mandatory_head_survives_high_threshold(self):
        # A head has no predecessor to wait on, so its one build scores
        # exactly 1 and clears even delta = 1 on its score alone.
        forest = triangle(n=1)
        head = BypassPartition(
            change=C1,
            non_bypassable=(),
            bypassable=(),
            bypass_product=1.0,
            fallback_active=False,
        )
        ranked = rank_builds(forest.nodes_for_change(C1), head, lambda p, ctx: 0.0)
        assert [r.p_needed for r in ranked] == [1.0]
        cfg = EngineConfig(speculation_threshold=1.0, executor_capacity=1)
        action = select_builds(ranked, running=[], cfg=cfg)
        assert [r.node.key for r in action.to_start] == [(C1, ())]

    def test_lists_are_disjoint(self):
        forest = triangle(n=2)
        ranked = ranked_fixture(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1}
        )
        action = select_builds(ranked, running={(C1, ()), (C2, ())}, cfg=CFG)
        keys = [r.node.key for r in action.to_start] + list(action.to_abort)
        assert len(keys) == len(set(keys))


class TestDecideChange:
    def test_consistent_passes_land_early(self):
        forest = triangle(n=2)
        finish(forest, C2, (C1,), BuildOutcome.PASS)
        finish(forest, C2, (), BuildOutcome.PASS)
        d = decide_change(C2, forest)
        assert d.kind is DecisionKind.LAND
        assert d.via_bypass

    def test_consistent_failures_reject_early(self):
        forest = triangle(n=2)
        finish(forest, C2, (C1,), BuildOutcome.FAIL)
        finish(forest, C2, (), BuildOutcome.FAIL)
        d = decide_change(C2, forest)
        assert d.kind is DecisionKind.REJECT
        assert d.via_bypass

    def test_mixed_outcomes_wait(self):
        forest = triangle(n=2)
        finish(forest, C2, (C1,), BuildOutcome.PASS)
        finish(forest, C2, (), BuildOutcome.FAIL)
        d = decide_change(C2, forest)
        assert d.kind is DecisionKind.WAIT
        assert d.reason is WaitReason.OUTCOMES_INCONSISTENT

    def test_outstanding_builds_wait(self):
        forest = triangle(n=2)
        finish(forest, C2, (C1,), BuildOutcome.PASS)
        d = decide_change(C2, forest)
        assert d.kind is DecisionKind.WAIT
        assert d.reason is WaitReason.BUILDS_OUTSTANDING

    def test_head_pass_lands_without_bypass(self):
        forest = triangle(n=1)
        finish(forest, C1, (), BuildOutcome.PASS)
        d = decide_change(C1, forest)
        assert d.kind is DecisionKind.LAND
        assert not d.via_bypass

    def test_head_failure_rejects(self):
        forest = triangle(n=1)
        finish(forest, C1, (), BuildOutcome.FAIL)
        d = decide_change(C1, forest)
        assert d.kind is DecisionKind.REJECT
        assert not d.via_bypass

    def test_head_waits_while_building(self):
        forest = triangle(n=1)
        d = decide_change(C1, forest)
        assert d.kind is DecisionKind.WAIT
        assert d.reason is WaitReason.BUILDS_OUTSTANDING

    def test_bypass_disabled_waits_on_predecessor(self):
        forest = triangle(n=2)
        finish(forest, C2, (C1,), BuildOutcome.PASS)
        finish(forest, C2, (), BuildOutcome.PASS)
        d = decide_change(C2, forest, allow_bypass=False)
        assert d.kind is DecisionKind.WAIT
        assert d.reason is WaitReason.BLOCKED_BY_PREDECESSOR

    def test_conflicting_predecessor_outside_window_blocks_bypass(self):
        # depth_cap 1 leaves C1 out of C3's window, so consistent
        # outcomes across the window do not cover C1's combinations.
        forest = triangle(n=3, depth_cap=1)
        finish(forest, C3, (C2,), BuildOutcome.PASS)
        finish(forest, C3, (), BuildOutcome.PASS)
        d = decide_change(C3, forest)
        assert d.kind is DecisionKind.WAIT
        assert d.reason is WaitReason.BLOCKED_BY_PREDECESSOR

    def test_unknown_change_rejected(self):
        forest = triangle(n=1)
        with pytest.raises(KeyError):
            decide_change(ChangeId(9, "C9"), forest)


class TestCommit:
    def test_reject_prunes_assuming_nodes(self):
        forest = triangle(n=2)
        finish(forest, C1, (), BuildOutcome.FAIL)
        d = decide_change(C1, forest)
        assert d.kind is DecisionKind.REJECT
        forest = resolve_change(forest, d.change, landed=False)
        assert forest.queue == (C2,)
        assert [n.base for n in forest.nodes_for_change(C2)] == [()]


class TestDecisionValidation:
    def test_wait_needs_reason(self):
        with pytest.raises(ValueError):
            Decision(DecisionKind.WAIT, C1)
