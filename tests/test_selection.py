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


def ranked_fixture(forest, scores: dict) -> list[tuple]:
    """Rank-order entries, (rank_key, RankedBuild), for node scores."""
    out = []
    for (change, base), p in scores.items():
        r = RankedBuild(node=forest.node(change, base), p_needed=p)
        out.append((r.rank_key, r))
    return sorted(out)


def first_call(ranking, running, cfg):
    """A selection with no previous cut, where every entry is fresh."""
    return select_builds(ranking, ranking, None, running, cfg)


def finish(forest, change, base, outcome, at=10.0):
    forest.node(change, base).complete(outcome, at)


CFG = EngineConfig(speculation_threshold=0.3, executor_capacity=3)


class TestSelectBuilds:
    def test_threshold_filters_unlikely_path(self):
        forest = triangle(n=2)
        ranked = ranked_fixture(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1}
        )
        action = first_call(ranked, running=[], cfg=CFG)
        assert [r.node.key for r in action.to_start] == [(C1, ()), (C2, (C1,))]
        assert action.to_abort == ()
        assert action.cut == ranked[1][0]

    def test_equal_scores_all_start(self):
        forest = triangle(n=2)
        ranked = ranked_fixture(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.9}
        )
        action = first_call(ranked, running=[], cfg=CFG)
        assert len(action.to_start) == 3

    def test_running_build_out_of_the_cut_aborts(self):
        forest = triangle(n=2)
        ranked = ranked_fixture(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1}
        )
        action = first_call(ranked, running={forest.node(C2, ())}, cfg=CFG)
        assert action.to_abort == (forest.node(C2, ()),)

    def test_running_build_in_the_cut_is_kept_not_restarted(self):
        forest = triangle(n=2)
        ranked = ranked_fixture(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1}
        )
        action = first_call(ranked, running={forest.node(C1, ())}, cfg=CFG)
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
        action = first_call(ranked, running=[], cfg=EngineConfig(executor_capacity=4))
        assert len(action.to_start) == 4
        # Rank order: the head, both C2 builds, then C3's deepest.
        assert {r.node.change for r in action.to_start} == {C1, C2, C3}
        assert action.cut == ranked[3][0]

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
        action = first_call([(r.rank_key, r) for r in ranked], running=[], cfg=cfg)
        assert [r.node.key for r in action.to_start] == [(C1, ())]

    def test_lists_are_disjoint(self):
        forest = triangle(n=2)
        ranked = ranked_fixture(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1}
        )
        running = {forest.node(C1, ()), forest.node(C2, ())}
        action = first_call(ranked, running=running, cfg=CFG)
        nodes = [r.node for r in action.to_start] + list(action.to_abort)
        assert len(nodes) == len(set(nodes))


class TestSelectBuildsAfterACut:
    """Second selections: ``cut`` and ``running`` are the previous
    choice, and only the listed entries were re-ranked since."""

    A, B, C = (C1, ()), (C2, (C1,)), (C3, (C1, C2))

    def setup_method(self):
        self.forest = triangle(n=3)

    def entry(self, key, p):
        r = RankedBuild(node=self.forest.node(*key), p_needed=p)
        return (r.rank_key, r)

    def nodes(self, *keys):
        return tuple(self.forest.node(*key) for key in keys)

    def test_cut_moves_down_past_a_fresh_entry_that_aborts(self):
        # B is re-ranked below C: C now fills the capacity B held
        a, b = self.entry(self.A, 1.0), self.entry(self.B, 0.9)
        c = self.entry(self.C, 0.8)
        moved_b = self.entry(self.B, 0.5)
        cfg = EngineConfig(speculation_threshold=0.3, executor_capacity=2)
        running = self.nodes(self.A, self.B)
        action = select_builds([a, c, moved_b], [moved_b], b[0], running, cfg)
        assert [r.node.key for r in action.to_start] == [self.C]
        assert action.to_abort == self.nodes(self.B)
        assert action.cut == c[0]

    def test_finished_build_leaves_and_the_next_unchanged_entry_starts(self):
        b, c = self.entry(self.B, 0.9), self.entry(self.C, 0.8)
        cfg = EngineConfig(speculation_threshold=0.3, executor_capacity=2)
        # A finished: its entry left the rank order and its run the executor
        action = select_builds([b, c], [], b[0], self.nodes(self.B), cfg)
        assert [r.node.key for r in action.to_start] == [self.C]
        assert action.to_abort == ()
        assert action.cut == c[0]

    def test_fresh_entry_above_the_cut_displaces_the_last_chosen(self):
        a, b = self.entry(self.A, 1.0), self.entry(self.B, 0.9)
        c = self.entry(self.C, 0.5)
        moved_c = self.entry(self.C, 0.95)
        cfg = EngineConfig(speculation_threshold=0.3, executor_capacity=2)
        running = self.nodes(self.A, self.B)
        action = select_builds([a, moved_c, b], [moved_c], b[0], running, cfg)
        assert [r.node.key for r in action.to_start] == [self.C]
        assert action.to_abort == self.nodes(self.B)
        assert action.cut == moved_c[0]

    def test_threshold_cuts_before_capacity(self):
        b, c = self.entry(self.B, 0.9), self.entry(self.C, 0.2)
        cfg = EngineConfig(speculation_threshold=0.3, executor_capacity=2)
        # A finished and frees a slot, but C is below the threshold
        action = select_builds([b, c], [], b[0], self.nodes(self.B), cfg)
        assert action.to_start == ()
        assert action.to_abort == ()
        assert action.cut == b[0]

    def test_nothing_chosen_leaves_no_cut(self):
        a, b = self.entry(self.A, 1.0), self.entry(self.B, 0.2)
        moved_a = self.entry(self.A, 0.1)
        cfg = EngineConfig(speculation_threshold=0.3, executor_capacity=2)
        running = self.nodes(self.A)
        action = select_builds(sorted([moved_a, b]), [moved_a], a[0], running, cfg)
        assert action.to_start == ()
        assert action.to_abort == self.nodes(self.A)
        assert action.cut is None

    def test_running_build_whose_fresh_entry_is_still_chosen_is_kept(self):
        a, b = self.entry(self.A, 1.0), self.entry(self.B, 0.9)
        moved_b = self.entry(self.B, 0.95)
        cfg = EngineConfig(speculation_threshold=0.3, executor_capacity=2)
        running = self.nodes(self.A, self.B)
        action = select_builds([a, moved_b], [moved_b], b[0], running, cfg)
        assert action.to_start == ()
        assert action.to_abort == ()
        assert action.cut == moved_b[0]


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

    # a head has an empty window, so turning bypass off must not block it
    def test_head_pass_lands_without_bypass(self):
        forest = triangle(n=1)
        finish(forest, C1, (), BuildOutcome.PASS)
        for allow_bypass in (True, False):
            d = decide_change(C1, forest, allow_bypass=allow_bypass)
            assert d.kind is DecisionKind.LAND
            assert not d.via_bypass

    def test_head_failure_rejects(self):
        forest = triangle(n=1)
        finish(forest, C1, (), BuildOutcome.FAIL)
        for allow_bypass in (True, False):
            d = decide_change(C1, forest, allow_bypass=allow_bypass)
            assert d.kind is DecisionKind.REJECT
            assert not d.via_bypass

    def test_head_waits_while_building(self):
        forest = triangle(n=1)
        for allow_bypass in (True, False):
            d = decide_change(C1, forest, allow_bypass=allow_bypass)
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
