"""Tests for speculation forest enumeration and maintenance."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specqueue.core import (
    BuildOutcome,
    Change,
    ChangeId,
    build_conflict_graph,
    connected_components,
)
from specqueue.forest import (
    BuildNode,
    BuildStatus,
    carry_map,
    enumerate_forest,
    resolve_change,
)

C1, C2, C3 = ChangeId(1, "C1"), ChangeId(2, "C2"), ChangeId(3, "C3")


def changes_from_targets(targets_by_label: dict[str, set[str]]) -> list[Change]:
    out = []
    for i, (label, targets) in enumerate(targets_by_label.items(), start=1):
        out.append(
            Change(
                id=ChangeId(i, label),
                arrival_time=float(i),
                targets_changed=frozenset(targets),
            )
        )
    return out


def triangle_forest(depth_cap: int = 6):
    """Three mutually conflicting changes."""
    changes = changes_from_targets({"C1": {"t"}, "C2": {"t"}, "C3": {"t"}})
    g = build_conflict_graph(changes)
    return enumerate_forest([c.id for c in changes], g, depth_cap)


def base_keys(forest, c: ChangeId) -> set[tuple[str, ...]]:
    return {tuple(b.label for b in n.base) for n in forest.nodes_for_change(c)}


class TestEnumerate:
    def test_three_way_conflict_gives_seven_nodes(self):
        forest = triangle_forest()
        assert len(forest.nodes) == 7
        assert base_keys(forest, C1) == {()}
        assert base_keys(forest, C2) == {(), ("C1",)}
        assert base_keys(forest, C3) == {(), ("C1",), ("C2",), ("C1", "C2")}

    def test_independent_changes_get_single_nodes(self):
        changes = changes_from_targets({"C1": {"a"}, "C2": {"b"}})
        g = build_conflict_graph(changes)
        forest = enumerate_forest([c.id for c in changes], g, 6)
        assert len(forest.nodes) == 2
        assert base_keys(forest, C1) == {()}
        assert base_keys(forest, C2) == {()}
        assert forest.components == [[C1], [C2]]

    def test_independent_middle_change_never_enters_bases(self):
        # C3 conflicts with C1 only; C2 shares nothing with C3.
        changes = changes_from_targets({"C1": {"a"}, "C2": {"b"}, "C3": {"a"}})
        g = build_conflict_graph(changes)
        forest = enumerate_forest([c.id for c in changes], g, 6)
        assert base_keys(forest, C3) == {(), ("C1",)}

    def test_depth_cap_keeps_nearest_predecessors(self):
        labels = {f"C{i}": {"t"} for i in range(1, 6)}
        changes = changes_from_targets(labels)
        g = build_conflict_graph(changes)
        forest = enumerate_forest([c.id for c in changes], g, 2)
        last = changes[-1].id
        assert forest.window(last) == (changes[2].id, changes[3].id)
        assert len(forest.nodes_for_change(last)) == 4

    def test_node_order_is_deepest_then_lexicographic(self):
        forest = triangle_forest()
        ordered = [tuple(b.label for b in n.base) for n in forest.nodes_for_change(C3)]
        assert ordered == [("C1", "C2"), ("C1",), ("C2",), ()]

    def test_unknown_change_rejected(self):
        forest = triangle_forest()
        with pytest.raises(KeyError):
            forest.nodes_for_change(ChangeId(9, "C9"))

    def test_deterministic_rebuild(self):
        a = triangle_forest()
        b = triangle_forest()
        assert [n.key for n in a.all_nodes()] == [n.key for n in b.all_nodes()]


class TestNodeCountLaw:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.frozensets(st.sampled_from("abcd"), min_size=0, max_size=2),
            min_size=1,
            max_size=7,
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_two_to_the_window(self, target_sets, depth_cap):
        changes = [
            Change(
                id=ChangeId(i, f"C{i}"),
                arrival_time=float(i),
                targets_changed=targets,
            )
            for i, targets in enumerate(target_sets, start=1)
        ]
        g = build_conflict_graph(changes)
        queue = [c.id for c in changes]
        forest = enumerate_forest(queue, g, depth_cap)
        for i, c in enumerate(changes):
            conflicting_ahead = [
                p.id for p in changes[:i] if p.id in g.neighbors(c.id)
            ]
            k = min(depth_cap, len(conflicting_ahead))
            assert len(forest.nodes_for_change(c.id)) == 2**k
            # Independent oracle: bases are exactly the subsets of the
            # nearest-k conflicting predecessors.
            window = conflicting_ahead[len(conflicting_ahead) - k :]
            expected = set()
            for size in range(k + 1):
                expected.update(combinations(window, size))
            assert {n.base for n in forest.nodes_for_change(c.id)} == expected


class TestResolve:
    def test_land_head_filters_and_relabels(self):
        forest = triangle_forest()
        after = resolve_change(forest, C1, landed=True)
        assert after.queue == (C2, C3)
        assert base_keys(after, C2) == {()}
        assert base_keys(after, C3) == {(), ("C2",)}
        assert len(after.nodes) == 3

    def test_reject_head_filters_without_relabel(self):
        forest = triangle_forest()
        after = resolve_change(forest, C1, landed=False)
        assert base_keys(after, C2) == {()}
        assert base_keys(after, C3) == {(), ("C2",)}

    def test_land_carries_node_state_by_assumed_base(self):
        forest = triangle_forest()
        speculative = forest.node(C2, (C1,)).started(0.0).completed(BuildOutcome.PASS, 9.0)
        forest.update_node(speculative)
        mainline_only = forest.node(C2, ()).started(0.0)
        forest.update_node(mainline_only)
        after = resolve_change(forest, C1, landed=True)
        survivor = after.node(C2, ())
        assert survivor.status is BuildStatus.COMPLETED
        assert survivor.outcome is BuildOutcome.PASS
        assert survivor.finished_at == 9.0

    def test_reject_carries_the_mainline_node(self):
        forest = triangle_forest()
        forest.update_node(forest.node(C2, ()).started(1.5))
        after = resolve_change(forest, C1, landed=False)
        survivor = after.node(C2, ())
        assert survivor.status is BuildStatus.RUNNING
        assert survivor.started_at == 1.5

    def test_resolving_independent_change_leaves_others_untouched(self):
        changes = changes_from_targets({"C1": {"a"}, "C2": {"b"}, "C3": {"b"}})
        g = build_conflict_graph(changes)
        forest = enumerate_forest([c.id for c in changes], g, 6)
        forest.update_node(forest.node(C3, (C2,)).started(2.0))
        after = resolve_change(forest, C1, landed=True)
        assert base_keys(after, C3) == {(), ("C2",)}
        assert after.node(C3, (C2,)).status is BuildStatus.RUNNING

    def test_landed_beyond_window_predecessor_invalidates_builds(self):
        # depth_cap 1: C3's window holds only C2, yet C1 conflicts too.
        changes = changes_from_targets({"C1": {"t"}, "C2": {"t"}, "C3": {"t"}})
        g = build_conflict_graph(changes)
        forest = enumerate_forest([c.id for c in changes], g, 1)
        assert forest.window(C3) == (C2,)
        forest.update_node(
            forest.node(C3, (C2,)).started(0.0).completed(BuildOutcome.PASS, 5.0)
        )
        after = resolve_change(forest, C1, landed=True)
        # Mainline gained C1, which none of C3's builds included: all fresh.
        assert all(n.status is BuildStatus.PENDING for n in after.nodes_for_change(C3))

    def test_rejected_beyond_window_predecessor_preserves_builds(self):
        changes = changes_from_targets({"C1": {"t"}, "C2": {"t"}, "C3": {"t"}})
        g = build_conflict_graph(changes)
        forest = enumerate_forest([c.id for c in changes], g, 1)
        forest.update_node(
            forest.node(C3, (C2,)).started(0.0).completed(BuildOutcome.FAIL, 5.0)
        )
        after = resolve_change(forest, C1, landed=False)
        assert after.node(C3, (C2,)).outcome is BuildOutcome.FAIL

    def test_window_expands_after_resolution(self):
        changes = changes_from_targets({f"C{i}": {"t"} for i in range(1, 5)})
        g = build_conflict_graph(changes)
        forest = enumerate_forest([c.id for c in changes], g, 2)
        c4 = changes[3].id
        assert forest.window(c4) == (C2, C3)
        after = resolve_change(forest, C2, landed=False)
        assert after.window(c4) == (C1, C3)

    def test_total_node_count_never_increases(self):
        forest = triangle_forest()
        total = len(forest.nodes)
        for resolved, landed in [(C1, True), (C2, False)]:
            forest = resolve_change(forest, resolved, landed)
            assert len(forest.nodes) <= total
            total = len(forest.nodes)

    def test_bypass_land_keeps_predecessor_builds(self):
        # C2 lands past its still-building predecessor C1.
        forest = triangle_forest()
        forest.update_node(forest.node(C1, ()).started(0.0))
        after = resolve_change(forest, C2, landed=True)
        assert after.queue == (C1, C3)
        assert after.node(C1, ()).status is BuildStatus.RUNNING
        # C3 keeps the variants that assumed C2 landed, relabelled.
        assert base_keys(after, C3) == {(), ("C1",)}

    def test_unknown_change_rejected(self):
        forest = triangle_forest()
        with pytest.raises(KeyError):
            resolve_change(forest, ChangeId(99, "C99"), landed=True)

    def test_double_decision_rejected(self):
        after = resolve_change(triangle_forest(), C1, landed=True)
        with pytest.raises(KeyError):
            resolve_change(after, C1, landed=True)


def structure(forest) -> tuple:
    """Everything but node status: windows, node keys, order, components."""
    return (
        forest.queue,
        dict(forest.windows),
        sorted(forest.nodes, key=lambda k: (k[0].seq, [b.seq for b in k[1]])),
        {c: [n.key for n in forest.nodes_for_change(c)] for c in forest.queue},
        [list(members) for members in forest.components],
    )


def assert_matches_fresh(forest) -> None:
    """The incrementally kept forest equals a fresh enumeration of its queue."""
    fresh = enumerate_forest(forest.queue, forest.graph, forest.depth_cap)
    assert structure(forest) == structure(fresh)
    for i, c in enumerate(forest.queue):
        ahead = [p for p in forest.queue[:i] if p in forest.graph.neighbors(c)]
        assert forest.window(c) == tuple(ahead[max(0, len(ahead) - forest.depth_cap) :])
        keys = [n.key for n in forest.nodes_for_change(c)]
        assert keys == sorted(keys, key=lambda k: (-len(k[1]), [b.seq for b in k[1]]))
    assert forest.components == connected_components(forest.graph, forest.queue)


def chain_graph(n: int):
    changes = changes_from_targets({f"C{i}": {"t"} for i in range(1, n + 1)})
    return [c.id for c in changes], build_conflict_graph(changes)


class TestIncrementalForest:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_arrivals_and_resolutions_match_fresh(self, data):
        target_sets = data.draw(
            st.lists(
                st.frozensets(st.sampled_from("abcd"), max_size=2),
                min_size=1,
                max_size=9,
            )
        )
        depth_cap = data.draw(st.integers(min_value=1, max_value=3))
        changes = [
            Change(id=ChangeId(i, f"C{i}"), arrival_time=float(i), targets_changed=t)
            for i, t in enumerate(target_sets, start=1)
        ]
        g = build_conflict_graph(changes)
        arrivals = [c.id for c in changes]
        forest = enumerate_forest([], g, depth_cap)
        while arrivals or forest.queue:
            if arrivals and (not forest.queue or data.draw(st.booleans())):
                forest.add_change(arrivals.pop(0))
            else:
                # run one node so resolutions carry non-pending state too
                node = data.draw(st.sampled_from(forest.all_nodes()))
                if node.status is BuildStatus.PENDING:
                    forest.update_node(node.started(0.0))
                resolved = data.draw(st.sampled_from(forest.queue))
                landed = data.draw(st.booleans())
                before = structure(forest)
                mapping = carry_map(forest, resolved, landed)
                after = resolve_change(forest, resolved, landed, mapping)
                assert structure(forest) == before
                assert structure(after) == structure(
                    resolve_change(forest, resolved, landed)
                )
                for old_key, new_key in mapping.items():
                    carried = after.nodes[new_key]
                    assert carried.status is forest.nodes[old_key].status
                forest = after
            assert_matches_fresh(forest)

    def test_empty_queue(self):
        queue, g = chain_graph(2)
        forest = enumerate_forest([], g, 2)
        assert_matches_fresh(forest)
        assert forest.components == [] and not forest.nodes
        forest.add_change(queue[0])
        assert_matches_fresh(forest)
        forest = resolve_change(forest, queue[0], landed=True)
        assert forest.queue == () and not forest.nodes and not forest.windows
        assert_matches_fresh(forest)

    def test_depth_cap_one_resolving_the_head(self):
        queue, g = chain_graph(4)
        forest = enumerate_forest([], g, 1)
        for c in queue:
            forest.add_change(c)
            assert_matches_fresh(forest)
        assert forest.window(queue[3]) == (queue[2],)
        for landed in (True, False, True, False):
            forest = resolve_change(forest, forest.queue[0], landed)
            assert_matches_fresh(forest)

    def test_resolving_the_head_rewindows_only_conflicting_successors(self):
        changes = changes_from_targets({"C1": {"a"}, "C2": {"b"}, "C3": {"a", "b"}})
        g = build_conflict_graph(changes)
        forest = enumerate_forest([c.id for c in changes], g, 6)
        running = forest.node(C2, ()).started(1.0)
        forest.update_node(running)
        after = resolve_change(forest, C1, landed=True)
        assert_matches_fresh(after)
        assert after.node(C2, ()) is running
        assert after.window(C3) == (C2,)

    def test_arrival_keeps_earlier_nodes(self):
        queue, g = chain_graph(3)
        forest = enumerate_forest(queue[:2], g, 6)
        done = forest.node(queue[1], (queue[0],)).started(0.0).completed(
            BuildOutcome.PASS, 3.0
        )
        forest.update_node(done)
        forest.add_change(queue[2])
        assert forest.node(queue[1], (queue[0],)) is done
        assert_matches_fresh(forest)

    def test_arrival_of_queued_change_rejected(self):
        queue, g = chain_graph(2)
        forest = enumerate_forest(queue, g, 6)
        with pytest.raises(ValueError):
            forest.add_change(queue[1])


class TestBuildNodeTransitions:
    def test_lifecycle(self):
        node = BuildNode(change=C2, base=(C1,))
        running = node.started(1.0)
        assert running.status is BuildStatus.RUNNING
        done = running.completed(BuildOutcome.PASS, 4.0)
        assert done.status is BuildStatus.COMPLETED
        assert done.outcome is BuildOutcome.PASS

    def test_abort_and_restart(self):
        node = BuildNode(change=C2, base=()).started(1.0).aborted(2.0)
        assert node.status is BuildStatus.ABORTED
        again = node.started(3.0)
        assert again.status is BuildStatus.RUNNING
        assert again.started_at == 3.0

    def test_completed_outcome_is_final(self):
        node = BuildNode(change=C2, base=()).started(0.0).completed(BuildOutcome.PASS, 1.0)
        with pytest.raises(ValueError):
            node.started(2.0)

    def test_base_must_precede_change(self):
        with pytest.raises(ValueError):
            BuildNode(change=C1, base=(C2,))

    def test_base_must_be_sorted(self):
        with pytest.raises(ValueError):
            BuildNode(change=C3, base=(C2, C1))
