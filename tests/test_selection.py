"""Tests for build selection and land/reject/wait decisions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specqueue.core import BuildOutcome, ChangeId
from specqueue.forest import BuildNode, carry_map, resolve_change
from specqueue.prioritize import BypassPartition, outcome_partition, rank_builds
from specqueue.selection import (
    DecisionKind,
    RankOrder,
    decide_change,
    key_order,
    rank_key,
    select_builds,
)

from oracles import chosen_nodes, reference_decide_change, triangle

C1, C2, C3 = ChangeId(1, "C1"), ChangeId(2, "C2"), ChangeId(3, "C3")


DELTA = 0.3  # the speculation threshold, the floor builds are kept at


def at_floor(
    scored: list[tuple[BuildNode, float]], floor: float
) -> list[tuple[BuildNode, float]]:
    """The ``(node, p)`` pairs that `rank_builds` keeps at ``floor``, as
    the engine puts a change: each node is scored exactly p by a
    partition that bypasses its whole base with joint probability p."""
    return [
        kept
        for node, p in scored
        for kept in rank_builds(
            [node],
            BypassPartition(node.change, (), node.base, p, False),
            lambda pred, context: 1.0,
            floor,
        )
    ]


def first_call(forest, scores: dict, running, capacity):
    """A first selection: each change's builds, scored by node key and
    kept at DELTA, put into an empty rank order. Returns the order,
    the builds to start and the nodes to abort."""
    builds: dict[ChangeId, list[tuple[BuildNode, float]]] = {}
    for (change, base), p in scores.items():
        builds.setdefault(change, []).append((forest.by_change[change][base], p))
    order = RankOrder()
    for change, scored in builds.items():
        order.put(change, at_floor(scored, DELTA))
    return (order, *select_builds(order, running, capacity))


def finish(forest, change, base, outcome, at=10.0):
    forest.by_change[change][base].complete(outcome, at)


class TestSelectBuilds:
    def test_threshold_filters_unlikely_path(self):
        forest = triangle(n=2)
        order, to_start, to_abort = first_call(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1}, [], 3
        )
        assert to_start == (
            (forest.by_change[C1][()], 1.0),
            (forest.by_change[C2][(C1,)], 0.9),
        )
        assert to_abort == ()

    def test_equal_scores_all_start(self):
        forest = triangle(n=2)
        _, to_start, _ = first_call(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.9}, [], 3
        )
        assert len(to_start) == 3

    def test_running_build_out_of_the_cut_aborts(self):
        forest = triangle(n=2)
        _, _, to_abort = first_call(
            forest,
            {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1},
            {forest.by_change[C2][()]},
            3,
        )
        assert to_abort == (forest.by_change[C2][()],)

    def test_running_build_in_the_cut_is_kept_not_restarted(self):
        forest = triangle(n=2)
        _, to_start, to_abort = first_call(
            forest,
            {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1},
            {forest.by_change[C1][()]},
            3,
        )
        assert to_abort == ()
        assert [node.key for node, _ in to_start] == [(C2, (C1,))]

    def test_capacity_limits_starts_plus_keeps(self):
        forest = triangle(n=3)
        scores = {(C1, ()): 1.0}
        for node in forest.nodes_for_change(C2):
            scores[node.key] = 0.8
        for node in forest.nodes_for_change(C3):
            scores[node.key] = 0.7
        order, to_start, _ = first_call(forest, scores, [], 4)
        assert len(to_start) == 4
        # Rank order: the head, both C2 builds, then C3's deepest.
        assert {node.change for node, _ in to_start} == {C1, C2, C3}

    def test_mandatory_head_survives_high_threshold(self):
        # A head has no predecessor to wait on, so its one build scores
        # exactly 1 and clears even delta = 1 on its score alone.
        forest = triangle(n=1)
        head = outcome_partition(C1, forest)
        scored = rank_builds(
            forest.nodes_for_change(C1), head, lambda p, ctx: 0.0, floor=1.0
        )
        assert [p for _, p in scored] == [1.0]
        order = RankOrder()
        order.put(C1, scored)
        to_start, _ = select_builds(order, [], 1)
        assert [node.key for node, _ in to_start] == [(C1, ())]

    def test_lists_are_disjoint(self):
        forest = triangle(n=2)
        running = {forest.by_change[C1][()], forest.by_change[C2][()]}
        _, to_start, to_abort = first_call(
            forest, {(C1, ()): 1.0, (C2, (C1,)): 0.9, (C2, ()): 0.1}, running, 3
        )
        nodes = [node for node, _ in to_start] + list(to_abort)
        assert len(nodes) == len(set(nodes))


class TestSelectBuildsAfterACut:
    """Second selections: a first one chose builds, which started, and
    then only the changes put or dropped since changed."""

    A, B, C = (C1, ()), (C2, (C1,)), (C3, (C1, C2))
    CAPACITY = 2

    def setup_method(self):
        self.forest = triangle(n=3)
        self.order = RankOrder()
        self.running: set = set()

    def node(self, key):
        c, base = key
        return self.forest.by_change[c][base]

    def put(self, key, p):
        """Put key's change with its one build scored p, kept at DELTA."""
        self.order.put(key[0], at_floor([(self.node(key), p)], DELTA))

    def finish(self, key):
        """The build finished: its run leaves, and its change has no build
        left that could run."""
        self.running.discard(self.node(key))
        self.order.put(key[0], [])

    def select(self):
        """Select, then start and abort as told; the keys of both."""
        to_start, to_abort = select_builds(self.order, self.running, self.CAPACITY)
        self.running.difference_update(to_abort)
        self.running.update(node for node, _ in to_start)
        return [node.key for node, _ in to_start], [n.key for n in to_abort]

    def test_cut_moves_down_past_a_fresh_entry_that_aborts(self):
        # B is re-ranked below C: C now fills the capacity B held
        self.put(self.A, 1.0)
        self.put(self.B, 0.9)
        self.put(self.C, 0.8)
        assert self.select() == ([self.A, self.B], [])
        self.put(self.B, 0.5)
        assert self.select() == ([self.C], [self.B])

    def test_finished_build_leaves_and_the_next_unchanged_entry_starts(self):
        self.put(self.A, 1.0)
        self.put(self.B, 0.9)
        self.put(self.C, 0.8)
        assert self.select() == ([self.A, self.B], [])
        self.finish(self.A)
        assert self.select() == ([self.C], [])

    def test_fresh_entry_above_the_cut_displaces_the_last_chosen(self):
        self.put(self.A, 1.0)
        self.put(self.B, 0.9)
        self.put(self.C, 0.5)
        assert self.select() == ([self.A, self.B], [])
        self.put(self.C, 0.95)
        assert self.select() == ([self.C], [self.B])

    def test_threshold_cuts_before_capacity(self):
        self.put(self.A, 1.0)
        self.put(self.C, 0.2)
        self.put(self.B, 0.9)
        assert self.select() == ([self.A, self.B], [])
        # A finished and frees a slot, but C is below the threshold
        self.finish(self.A)
        assert self.select() == ([], [])

    def test_nothing_chosen_leaves_no_cut(self):
        self.put(self.A, 1.0)
        self.put(self.B, 0.2)
        assert self.select() == ([self.A], [])
        self.put(self.A, 0.1)
        assert self.select() == ([], [self.A])

    def test_running_build_whose_fresh_entry_is_still_chosen_is_kept(self):
        self.put(self.A, 1.0)
        self.put(self.B, 0.9)
        assert self.select() == ([self.A, self.B], [])
        self.put(self.B, 0.95)
        assert self.select() == ([], [])

    def test_change_dropped_before_a_selection_never_starts(self):
        self.put(self.A, 1.0)
        self.put(self.B, 0.9)
        self.order.drop(self.B[0])
        assert self.select() == ([self.A], [])
        self.put(self.C, 0.95)
        self.order.drop(self.C[0])
        assert self.select() == ([], [])
        assert [node.key for _, node in self.order.entries] == [self.A]

    def test_run_that_left_without_a_put_restarts(self):
        # a selection reads only the order and the running builds, so a
        # chosen build whose run left is started again even though its
        # change was not put since
        self.put(self.A, 1.0)
        self.put(self.B, 0.9)
        assert self.select() == ([self.A, self.B], [])
        self.running.discard(self.node(self.B))
        assert self.select() == ([self.B], [])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_selection_matches_the_prefix_walk(data):
    """Whatever was put at the floor, dropped or left running, the rank
    order holds the builds at or above it, and a selection starts the
    builds the threshold walk of every put build chooses that are not
    running, in rank order, and aborts the running builds not chosen, in
    abort order."""
    forest = triangle(data.draw(st.integers(1, 4), label="queue length"))
    scores = st.sampled_from([0.0, 0.2, 0.3, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)
    delta = data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="delta")
    order = RankOrder()
    put: dict[ChangeId, list[tuple[BuildNode, float]]] = {}
    for c in data.draw(st.lists(st.sampled_from(forest.queue)), label="puts"):
        if data.draw(st.booleans(), label="drop"):
            order.drop(c)
            put.pop(c, None)
            continue
        put[c] = [(node, data.draw(scores)) for node in forest.nodes_for_change(c)]
        order.put(c, at_floor(put[c], delta))
    fresh = sorted(
        (rank_key(node, p), node) for scored in put.values() for node, p in scored
    )
    assert order.entries == [(k, node) for k, node in fresh if -k[0] >= delta]
    capacity = data.draw(st.integers(1, 5), label="capacity")
    # nodes of changes never put, or dropped, are running outside the order
    nodes = sorted(forest.nodes.values(), key=key_order)
    running = set(data.draw(st.lists(st.sampled_from(nodes)), label="running"))
    chosen = chosen_nodes(fresh, capacity, delta)
    to_start, to_abort = select_builds(order, running, capacity)
    assert to_start == tuple(
        (node, -key[0]) for key, node in fresh if node in chosen and node not in running
    )
    assert to_abort == tuple(sorted(running - chosen, key=key_order))


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

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_set_based_rule(self, data):
        # every change touches one target, so a depth cap below a
        # change's position leaves conflicting predecessors out of its
        # window
        n = data.draw(st.integers(1, 6), label="queue length")
        forest = triangle(n, depth_cap=data.draw(st.integers(1, 4)))
        c = data.draw(st.sampled_from(forest.queue), label="change")
        nodes = forest.nodes_for_change(c)
        choices = st.sampled_from([None, BuildOutcome.PASS, BuildOutcome.FAIL])
        outcomes = data.draw(
            st.one_of(
                choices.map(lambda o: [o] * len(nodes)),
                st.lists(choices, min_size=len(nodes), max_size=len(nodes)),
            ),
            label="outcomes",
        )
        for node, outcome in zip(nodes, outcomes):
            if outcome is not None:
                node.complete(outcome, 1.0)
        for allow_bypass in (True, False):
            assert decide_change(
                c, forest, allow_bypass=allow_bypass
            ) == reference_decide_change(c, forest, allow_bypass=allow_bypass)


class TestCommit:
    def test_reject_prunes_assuming_nodes(self):
        forest = triangle(n=2)
        finish(forest, C1, (), BuildOutcome.FAIL)
        d = decide_change(C1, forest)
        assert d.kind is DecisionKind.REJECT
        forest = resolve_change(forest, d.change, carry_map(forest, d.change, False))
        assert forest.queue == (C2,)
        assert [n.base for n in forest.nodes_for_change(C2)] == [()]
