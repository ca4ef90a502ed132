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
    carry_map,
    enumerate_forest,
    resolve_change,
)
from specqueue.prioritize import RankedBuild, outcome_partition, rank_builds
from specqueue.selection import (
    DecisionKind,
    RankOrder,
    decide_change,
    select_builds,
)

C1, C2, C3 = ChangeId(1, "C1"), ChangeId(2, "C2"), ChangeId(3, "C3")


def triangle(n: int = 3, depth_cap: int = 6) -> SpeculationForest:
    targets = {ChangeId(i, f"C{i}"): {"t"} for i in range(1, n + 1)}
    g = build_conflict_graph(targets)
    return enumerate_forest(list(targets), g, depth_cap)


def first_call(forest, scores: dict, running, cfg):
    """A first selection: each change's builds, scored by node key, put
    into an empty rank order. Returns the order, the builds to start and
    the nodes to abort."""
    builds: dict[ChangeId, list[RankedBuild]] = {}
    for (change, base), p in scores.items():
        builds.setdefault(change, []).append(
            RankedBuild(node=forest.node(change, base), p_needed=p)
        )
    order = RankOrder()
    for change, ranked in builds.items():
        order.put(change, ranked)
    return (order, *select_builds(order, running, cfg))


def finish(forest, change, base, outcome, at=10.0):
    forest.node(change, base).complete(outcome, at)


CFG = EngineConfig(speculation_threshold=0.3, executor_capacity=3)


class TestSelectBuilds:
    def test_threshold_filters_unlikely_path(self):
        forest = triangle(n=2)
        order, to_start, to_abort = first_call(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1}, [], CFG
        )
        assert [r.node.key for r in to_start] == [(C1, ()), (C2, (C1,))]
        assert to_abort == ()
        assert order.cut == order.entries[1][0]

    def test_equal_scores_all_start(self):
        forest = triangle(n=2)
        _, to_start, _ = first_call(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.9}, [], CFG
        )
        assert len(to_start) == 3

    def test_running_build_out_of_the_cut_aborts(self):
        forest = triangle(n=2)
        _, _, to_abort = first_call(
            forest,
            {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1},
            {forest.node(C2, ())},
            CFG,
        )
        assert to_abort == (forest.node(C2, ()),)

    def test_running_build_in_the_cut_is_kept_not_restarted(self):
        forest = triangle(n=2)
        _, to_start, to_abort = first_call(
            forest,
            {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1},
            {forest.node(C1, ())},
            CFG,
        )
        assert to_abort == ()
        assert [r.node.key for r in to_start] == [(C2, (C1,))]

    def test_capacity_limits_starts_plus_keeps(self):
        forest = triangle(n=3)
        scores = {(C1, ()): 1.0}
        for node in forest.nodes_for_change(C2):
            scores[node.key] = 0.8
        for node in forest.nodes_for_change(C3):
            scores[node.key] = 0.7
        order, to_start, _ = first_call(
            forest, scores, [], EngineConfig(executor_capacity=4)
        )
        assert len(to_start) == 4
        # Rank order: the head, both C2 builds, then C3's deepest.
        assert {r.node.change for r in to_start} == {C1, C2, C3}
        assert order.cut == order.entries[3][0]

    def test_mandatory_head_survives_high_threshold(self):
        # A head has no predecessor to wait on, so its one build scores
        # exactly 1 and clears even delta = 1 on its score alone.
        forest = triangle(n=1)
        head = outcome_partition(C1, forest)
        ranked = rank_builds(forest.nodes_for_change(C1), head, lambda p, ctx: 0.0)
        assert [r.p_needed for r in ranked] == [1.0]
        cfg = EngineConfig(speculation_threshold=1.0, executor_capacity=1)
        order = RankOrder()
        order.put(C1, ranked)
        to_start, _ = select_builds(order, [], cfg)
        assert [r.node.key for r in to_start] == [(C1, ())]

    def test_lists_are_disjoint(self):
        forest = triangle(n=2)
        running = {forest.node(C1, ()), forest.node(C2, ())}
        _, to_start, to_abort = first_call(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1}, running, CFG
        )
        nodes = [r.node for r in to_start] + list(to_abort)
        assert len(nodes) == len(set(nodes))


class TestSelectBuildsAfterACut:
    """Second selections: a first one chose builds, which started, and
    then only the changes put or dropped since changed."""

    A, B, C = (C1, ()), (C2, (C1,)), (C3, (C1, C2))
    CFG = EngineConfig(speculation_threshold=0.3, executor_capacity=2)

    def setup_method(self):
        self.forest = triangle(n=3)
        self.order = RankOrder()
        self.running: set = set()

    def put(self, key, p):
        """Put key's change with its one build at score p; its rank key."""
        build = RankedBuild(node=self.forest.node(*key), p_needed=p)
        self.order.put(key[0], [build])
        return build.rank_key

    def finish(self, key):
        """The build finished: its run leaves, and its change has no build
        left that could run."""
        self.running.discard(self.forest.node(*key))
        self.order.put(key[0], [])

    def select(self):
        """Select, then start and abort as told; the keys of both."""
        to_start, to_abort = select_builds(self.order, self.running, self.CFG)
        self.running.difference_update(to_abort)
        self.running.update(r.node for r in to_start)
        return [r.node.key for r in to_start], [n.key for n in to_abort]

    def test_cut_moves_down_past_a_fresh_entry_that_aborts(self):
        # B is re-ranked below C: C now fills the capacity B held
        self.put(self.A, 1.0)
        self.put(self.B, 0.9)
        c = self.put(self.C, 0.8)
        assert self.select() == ([self.A, self.B], [])
        self.put(self.B, 0.5)
        assert self.select() == ([self.C], [self.B])
        assert self.order.cut == c

    def test_finished_build_leaves_and_the_next_unchanged_entry_starts(self):
        self.put(self.A, 1.0)
        self.put(self.B, 0.9)
        c = self.put(self.C, 0.8)
        assert self.select() == ([self.A, self.B], [])
        self.finish(self.A)
        assert self.select() == ([self.C], [])
        assert self.order.cut == c

    def test_fresh_entry_above_the_cut_displaces_the_last_chosen(self):
        self.put(self.A, 1.0)
        self.put(self.B, 0.9)
        self.put(self.C, 0.5)
        assert self.select() == ([self.A, self.B], [])
        moved_c = self.put(self.C, 0.95)
        assert self.select() == ([self.C], [self.B])
        assert self.order.cut == moved_c

    def test_threshold_cuts_before_capacity(self):
        self.put(self.A, 1.0)
        self.put(self.C, 0.2)
        b = self.put(self.B, 0.9)
        assert self.select() == ([self.A, self.B], [])
        # A finished and frees a slot, but C is below the threshold
        self.finish(self.A)
        assert self.select() == ([], [])
        assert self.order.cut == b

    def test_nothing_chosen_leaves_no_cut(self):
        self.put(self.A, 1.0)
        self.put(self.B, 0.2)
        assert self.select() == ([self.A], [])
        self.put(self.A, 0.1)
        assert self.select() == ([], [self.A])
        assert self.order.cut is None

    def test_running_build_whose_fresh_entry_is_still_chosen_is_kept(self):
        self.put(self.A, 1.0)
        self.put(self.B, 0.9)
        assert self.select() == ([self.A, self.B], [])
        moved_b = self.put(self.B, 0.95)
        assert self.select() == ([], [])
        assert self.order.cut == moved_b

    def test_change_dropped_before_a_selection_never_starts(self):
        a = self.put(self.A, 1.0)
        self.put(self.B, 0.9)
        self.order.drop(self.B[0])
        assert self.select() == ([self.A], [])
        self.put(self.C, 0.95)
        self.order.drop(self.C[0])
        assert self.select() == ([], [])
        assert self.order.cut == a
        assert [r.node.key for _, r in self.order.entries] == [self.A]


class TestDecideChange:
    def test_consistent_passes_land_early(self):
        forest = triangle(n=2)
        finish(forest, C2, (C1,), BuildOutcome.PASS)
        finish(forest, C2, (), BuildOutcome.PASS)
        d = decide_change(C2, forest)
        assert d.kind is DecisionKind.LAND

    def test_consistent_failures_reject_early(self):
        forest = triangle(n=2)
        finish(forest, C2, (C1,), BuildOutcome.FAIL)
        finish(forest, C2, (), BuildOutcome.FAIL)
        d = decide_change(C2, forest)
        assert d.kind is DecisionKind.REJECT

    def test_mixed_outcomes_wait(self):
        forest = triangle(n=2)
        finish(forest, C2, (C1,), BuildOutcome.PASS)
        finish(forest, C2, (), BuildOutcome.FAIL)
        d = decide_change(C2, forest)
        assert d.kind is DecisionKind.WAIT

    def test_outstanding_builds_wait(self):
        forest = triangle(n=2)
        finish(forest, C2, (C1,), BuildOutcome.PASS)
        d = decide_change(C2, forest)
        assert d.kind is DecisionKind.WAIT

    # a head has an empty window, so turning bypass off must not block it
    def test_head_pass_lands_without_bypass(self):
        forest = triangle(n=1)
        finish(forest, C1, (), BuildOutcome.PASS)
        for allow_bypass in (True, False):
            d = decide_change(C1, forest, allow_bypass=allow_bypass)
            assert d.kind is DecisionKind.LAND

    def test_head_failure_rejects(self):
        forest = triangle(n=1)
        finish(forest, C1, (), BuildOutcome.FAIL)
        for allow_bypass in (True, False):
            d = decide_change(C1, forest, allow_bypass=allow_bypass)
            assert d.kind is DecisionKind.REJECT

    def test_head_waits_while_building(self):
        forest = triangle(n=1)
        for allow_bypass in (True, False):
            d = decide_change(C1, forest, allow_bypass=allow_bypass)
            assert d.kind is DecisionKind.WAIT

    def test_bypass_disabled_waits_on_predecessor(self):
        forest = triangle(n=2)
        finish(forest, C2, (C1,), BuildOutcome.PASS)
        finish(forest, C2, (), BuildOutcome.PASS)
        d = decide_change(C2, forest, allow_bypass=False)
        assert d.kind is DecisionKind.WAIT

    def test_conflicting_predecessor_outside_window_blocks_bypass(self):
        # depth_cap 1 leaves C1 out of C3's window, so consistent
        # outcomes across the window do not cover C1's combinations.
        forest = triangle(n=3, depth_cap=1)
        finish(forest, C3, (C2,), BuildOutcome.PASS)
        finish(forest, C3, (), BuildOutcome.PASS)
        d = decide_change(C3, forest)
        assert d.kind is DecisionKind.WAIT

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
        forest = resolve_change(forest, d.change, carry_map(forest, d.change, False))
        assert forest.queue == (C2,)
        assert [n.base for n in forest.nodes_for_change(C2)] == [()]
