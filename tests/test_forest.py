"""Tests for speculation forest enumeration and maintenance."""

from __future__ import annotations

import copy
from dataclasses import asdict
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specqueue.core import BuildOutcome, ChangeId
import specqueue.forest as forest_module
from specqueue.forest import (
    BuildNode,
    carry_map,
    enumerate_forest,
    resolve_change,
)
from specqueue.prediction import DurationEstimate

from oracles import (
    connected_components,
    reference_adjacency,
    reference_ordered_bases,
    reference_queued_conflicts,
    reference_windows,
    target_maps,
    triangle,
)

C1, C2, C3 = ChangeId(1, "C1"), ChangeId(2, "C2"), ChangeId(3, "C3")


def targets_from_labels(
    targets_by_label: dict[str, set[str]],
) -> dict[ChangeId, frozenset[str]]:
    """Each change's targets by id, with sequence numbers from 1 in order."""
    return {
        ChangeId(i, label): frozenset(targets)
        for i, (label, targets) in enumerate(targets_by_label.items(), start=1)
    }


def base_keys(forest, c: ChangeId) -> set[tuple[str, ...]]:
    return {tuple(b.label for b in n.base) for n in forest.nodes_for_change(c)}


class TestEnumerate:
    def test_three_way_conflict_gives_seven_nodes(self):
        forest = triangle()
        assert len(forest.nodes) == 7
        assert base_keys(forest, C1) == {()}
        assert base_keys(forest, C2) == {(), ("C1",)}
        assert base_keys(forest, C3) == {(), ("C1",), ("C2",), ("C1", "C2")}

    def test_independent_changes_get_single_nodes(self):
        targets = targets_from_labels({"C1": {"a"}, "C2": {"b"}})
        forest = enumerate_forest(list(targets), targets, 6)
        assert len(forest.nodes) == 2
        assert base_keys(forest, C1) == {()}
        assert base_keys(forest, C2) == {()}
        assert forest.windows == {C1: (), C2: ()}

    def test_independent_middle_change_never_enters_bases(self):
        # C3 conflicts with C1 only; C2 shares nothing with C3.
        targets = targets_from_labels({"C1": {"a"}, "C2": {"b"}, "C3": {"a"}})
        forest = enumerate_forest(list(targets), targets, 6)
        assert base_keys(forest, C3) == {(), ("C1",)}

    def test_depth_cap_keeps_nearest_predecessors(self):
        labels = {f"C{i}": {"t"} for i in range(1, 6)}
        targets = targets_from_labels(labels)
        queue = list(targets)
        forest = enumerate_forest(queue, targets, 2)
        last = queue[-1]
        assert forest.windows[last] == (queue[2], queue[3])
        assert len(forest.nodes_for_change(last)) == 4

    def test_node_order_is_deepest_then_lexicographic(self):
        forest = triangle()
        ordered = [tuple(b.label for b in n.base) for n in forest.nodes_for_change(C3)]
        assert ordered == [("C1", "C2"), ("C1",), ("C2",), ()]

    def test_unknown_change_rejected(self):
        forest = triangle()
        with pytest.raises(KeyError):
            forest.nodes_for_change(ChangeId(9, "C9"))

    def test_deterministic_rebuild(self):
        a = triangle()
        b = triangle()
        assert list(a.nodes) == list(b.nodes)


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
        targets = {
            ChangeId(i, f"C{i}"): t for i, t in enumerate(target_sets, start=1)
        }
        queue = list(targets)
        forest = enumerate_forest(queue, targets, depth_cap)
        for c, window in reference_windows(queue, targets, depth_cap).items():
            k = len(window)
            assert len(forest.nodes_for_change(c)) == 2**k
            # Independent oracle: bases are exactly the subsets of the
            # nearest-k conflicting predecessors.
            expected = set()
            for size in range(k + 1):
                expected.update(combinations(window, size))
            assert {n.base for n in forest.nodes_for_change(c)} == expected


class TestResolve:
    def test_land_head_filters_and_relabels(self):
        forest = triangle()
        after = resolve_change(forest, C1, carry_map(forest, C1, True))
        assert after.queue == (C2, C3)
        assert base_keys(after, C2) == {()}
        assert base_keys(after, C3) == {(), ("C2",)}
        assert len(after.nodes) == 3

    def test_a_resolution_reads_only_the_resolved_change_s_targets(self):
        # C2 and C4 conflict with C1 and are re-windowed from the
        # predecessors filed when they arrived; C3 does not. The resolved
        # change's targets are read as they leave the forest
        read = []

        class Recording(dict):
            def __getitem__(self, c):
                read.append(c)
                return super().__getitem__(c)

            def pop(self, c):
                read.append(c)
                return super().pop(c)

        targets = targets_from_labels(
            {"C1": {"a"}, "C2": {"a"}, "C3": {"b"}, "C4": {"a", "b"}}
        )
        forest = enumerate_forest(list(targets), targets, 6)
        forest.targets = Recording(forest.targets)
        resolve_change(forest, C1, carry_map(forest, C1, True))
        assert read == [C1]
        assert forest.targets.keys() == forest.windows.keys()
        assert forest.windows == {C2: (), C3: (), ChangeId(4, "C4"): (C2, C3)}

    def test_reject_head_filters_without_relabel(self):
        forest = triangle()
        after = resolve_change(forest, C1, carry_map(forest, C1, False))
        assert base_keys(after, C2) == {()}
        assert base_keys(after, C3) == {(), ("C2",)}

    def test_land_carries_node_state_by_assumed_base(self):
        forest = triangle()
        speculative = forest.by_change[C2][(C1,)]
        speculative.estimate = DurationEstimate(12.0, 4.0)
        speculative.complete(BuildOutcome.PASS, 9.0)
        forest.by_change[C2][()].complete(BuildOutcome.FAIL, 8.0)
        after = resolve_change(forest, C1, carry_map(forest, C1, True))
        # the same node, its base rewritten in place
        assert after.by_change[C2][()] is speculative
        assert speculative.key == (C2, ())
        assert speculative.outcome is BuildOutcome.PASS
        assert speculative.finished_at == 9.0
        assert speculative.estimate == DurationEstimate(12.0, 4.0)

    def test_a_node_carried_across_a_rewindow_is_the_same_object(self):
        # landing C1 re-derives C3's window; its pending node on (C1, C2)
        # moves to (C2,) and keeps its estimate, and its finished node on
        # (C1,) moves to () and keeps its outcome
        forest = triangle()
        pending = forest.by_change[C3][(C1, C2)]
        pending.estimate = DurationEstimate(30.0, 9.0)
        done = forest.by_change[C3][(C1,)]
        done.estimate = DurationEstimate(20.0, 1.0)
        done.complete(BuildOutcome.FAIL, 7.0)
        resolve_change(forest, C1, carry_map(forest, C1, True))
        assert forest.windows[C3] == (C2,)
        assert forest.by_change[C3][(C2,)] is pending
        assert pending.key == (C3, (C2,))
        assert pending.estimate == DurationEstimate(30.0, 9.0)
        assert pending.outcome is None and pending.finished_at is None
        assert forest.by_change[C3][()] is done
        assert done.key == (C3, ())
        assert done.estimate == DurationEstimate(20.0, 1.0)
        assert (done.outcome, done.finished_at) == (BuildOutcome.FAIL, 7.0)

    def test_reject_carries_the_mainline_node(self):
        forest = triangle()
        mainline = forest.by_change[C2][()]
        after = resolve_change(forest, C1, carry_map(forest, C1, False))
        assert after.by_change[C2][()] is mainline

    def test_resolving_independent_change_leaves_others_untouched(self):
        targets = targets_from_labels({"C1": {"a"}, "C2": {"b"}, "C3": {"b"}})
        forest = enumerate_forest(list(targets), targets, 6)
        speculative = forest.by_change[C3][(C2,)]
        after = resolve_change(forest, C1, carry_map(forest, C1, True))
        assert base_keys(after, C3) == {(), ("C2",)}
        assert after.by_change[C3][(C2,)] is speculative

    def test_landed_beyond_window_predecessor_invalidates_builds(self):
        # depth_cap 1: C3's window holds only C2, yet C1 conflicts too.
        targets = targets_from_labels({"C1": {"t"}, "C2": {"t"}, "C3": {"t"}})
        forest = enumerate_forest(list(targets), targets, 1)
        assert forest.windows[C3] == (C2,)
        forest.by_change[C3][(C2,)].complete(BuildOutcome.PASS, 5.0)
        after = resolve_change(forest, C1, carry_map(forest, C1, True))
        # Mainline gained C1, which none of C3's builds included: all fresh.
        assert all(n.outcome is None for n in after.nodes_for_change(C3))

    def test_rejected_beyond_window_predecessor_preserves_builds(self):
        targets = targets_from_labels({"C1": {"t"}, "C2": {"t"}, "C3": {"t"}})
        forest = enumerate_forest(list(targets), targets, 1)
        forest.by_change[C3][(C2,)].complete(BuildOutcome.FAIL, 5.0)
        after = resolve_change(forest, C1, carry_map(forest, C1, False))
        assert after.by_change[C3][(C2,)].outcome is BuildOutcome.FAIL

    def test_window_expands_after_resolution(self):
        targets = targets_from_labels({f"C{i}": {"t"} for i in range(1, 5)})
        forest = enumerate_forest(list(targets), targets, 2)
        c4 = list(targets)[3]
        assert forest.windows[c4] == (C2, C3)
        after = resolve_change(forest, C2, carry_map(forest, C2, False))
        assert after.windows[c4] == (C1, C3)

    def test_total_node_count_never_increases(self):
        forest = triangle()
        total = len(forest.nodes)
        for resolved, landed in [(C1, True), (C2, False)]:
            mapping = carry_map(forest, resolved, landed)
            forest = resolve_change(forest, resolved, mapping)
            assert len(forest.nodes) <= total
            total = len(forest.nodes)

    def test_bypass_land_keeps_predecessor_builds(self):
        # C2 lands past its still-building predecessor C1.
        forest = triangle()
        predecessor = forest.by_change[C1][()]
        after = resolve_change(forest, C2, carry_map(forest, C2, True))
        assert after.queue == (C1, C3)
        assert after.by_change[C1][()] is predecessor
        # C3 keeps the variants that assumed C2 landed, relabelled.
        assert base_keys(after, C3) == {(), ("C1",)}

    def test_unknown_change_rejected(self):
        forest = triangle()
        with pytest.raises(KeyError):
            c99 = ChangeId(99, "C99")
            resolve_change(forest, c99, carry_map(forest, c99, True))

    def test_double_decision_rejected(self):
        forest = triangle()
        after = resolve_change(forest, C1, carry_map(forest, C1, True))
        with pytest.raises(KeyError):
            resolve_change(after, C1, carry_map(after, C1, True))

    def test_updates_the_given_forest(self):
        forest = triangle()
        assert resolve_change(forest, C1, carry_map(forest, C1, True)) is forest
        assert forest.queue == (C2, C3)

    @pytest.mark.parametrize("landed", [True, False])
    def test_a_carried_base_gets_no_fresh_node(self, landed, monkeypatch):
        # every node of C2 and C3 survives C1's decision, so none is built;
        # an arrival still builds one node per base of its window
        queue, targets = chain(4)
        forest = enumerate_forest(queue[:3], targets, 6)
        built = []

        def build(**fields):
            built.append(BuildNode(**fields))
            return built[-1]

        monkeypatch.setattr(forest_module, "BuildNode", build)
        resolve_change(forest, C1, carry_map(forest, C1, landed))
        assert built == []
        forest.add_change(queue[3], targets[queue[3]])
        assert forest.windows[queue[3]] == (queue[1], queue[2])
        assert len(built) == 2**2
        assert built == list(forest.nodes_for_change(queue[3]))
        monkeypatch.undo()
        assert_matches_fresh(forest)

    def test_a_node_carried_outside_its_new_window_raises(self):
        # a rejection's map that keeps C3's node on (C1,) under C1
        forest = triangle()
        mapping = carry_map(forest, C1, False)
        mapping[forest.by_change[C3][(C1,)]] = (C1,)
        with pytest.raises(AssertionError) as raised:
            resolve_change(forest, C1, mapping)
        assert str(raised.value) == f"carried node {(C3, (C1,))} maps outside the forest"

    def test_failed_resolution_leaves_the_forest_unchanged(self):
        forest = triangle()
        forest.by_change[C3][(C1,)].complete(BuildOutcome.PASS, 2.0)
        resolve_change(forest, C2, carry_map(forest, C2, False))
        before, queue = asdict(forest), forest.queue
        for resolved in (C2, ChangeId(9, "C9")):
            with pytest.raises(KeyError):
                resolve_change(forest, resolved, {})
            assert asdict(forest) == before and forest.queue == queue


class TestCarryMap:
    def test_lists_only_the_resolved_change_and_its_conflicting_successors(self):
        # C2 conflicts with nothing; C3 conflicts with C1 only.
        targets = targets_from_labels({"C1": {"a"}, "C2": {"b"}, "C3": {"a"}})
        forest = enumerate_forest(list(targets), targets, 6)
        c1 = forest.by_change[C1][()]
        c3_on_c1, c3 = forest.by_change[C3][(C1,)], forest.by_change[C3][()]
        assert carry_map(forest, C1, landed=True) == {
            c1: None,
            c3_on_c1: (),
            c3: None,
        }
        assert carry_map(forest, C1, landed=False) == {
            c1: None,
            c3_on_c1: None,
            c3: (),
        }

    def test_earlier_changes_are_not_listed(self):
        forest = triangle()
        mapping = carry_map(forest, C2, landed=True)
        assert {node.change for node in mapping} == {C2, C3}
        assert all(new is None for node, new in mapping.items() if node.change == C2)

    def test_unknown_change_rejected(self):
        with pytest.raises(KeyError):
            carry_map(triangle(), ChangeId(9, "C9"), landed=True)


class TestQueueOrder:
    def test_out_of_order_arrival_rejected(self):
        queue, targets = chain(3)
        forest = enumerate_forest([queue[0], queue[2]], targets, 6)
        before, order = asdict(forest), forest.queue
        with pytest.raises(ValueError):
            forest.add_change(queue[1], targets[queue[1]])
        assert asdict(forest) == before and forest.queue == order
        with pytest.raises(ValueError):
            enumerate_forest([queue[1], queue[0]], targets, 6)

    def test_a_change_is_neither_ahead_of_nor_after_itself(self):
        # every change is filed under its own targets, C2 under one of
        # them twice, and C1 and C2 share two: a change must still never
        # enter its own window, and a neighbour is listed once
        targets = {C1: ("s", "t"), C2: ("s", "t", "t"), C3: ("t",)}
        forest = enumerate_forest(list(targets), targets, 6)
        assert forest.windows[C1] == ()
        assert forest.after[C1] == [C2, C3]
        assert forest.windows[C2] == (C1,)
        assert forest.after[C2] == [C3]
        assert forest.windows[C3] == (C1, C2)
        assert forest.after[C3] == []
        resolve_change(forest, C1, carry_map(forest, C1, True))
        assert forest.windows[C2] == () and forest.windows[C3] == (C2,)
        assert forest.after == {C2: [C3], C3: []}

    def test_queue_reads_the_windows_in_order(self):
        queue, targets = chain(4)
        forest = enumerate_forest(queue, targets, 2)
        resolve_change(forest, queue[1], carry_map(forest, queue[1], False))
        assert forest.queue == (queue[0], queue[2], queue[3])
        assert tuple(forest.by_change) == forest.queue


def structure(forest) -> tuple:
    """Everything but node state: queue, windows, each target's queued
    changes, node keys and their order."""
    return (
        forest.queue,
        dict(forest.windows),
        dict(forest.queued),
        sorted(forest.nodes, key=lambda k: (k[0].seq, [b.seq for b in k[1]])),
        {c: [n.key for n in forest.nodes_for_change(c)] for c in forest.queue},
    )


def assert_matches_fresh(forest) -> None:
    """The incrementally kept forest equals a fresh enumeration of its
    queue, and files each change's queued conflicting predecessors,
    successors and whether it heads its component as the pairwise
    reference finds them."""
    fresh = enumerate_forest(forest.queue, forest.targets, forest.depth_cap)
    assert structure(forest) == structure(fresh)
    assert list(forest.queue) == sorted(forest.queue, key=lambda c: c.seq)
    targets = forest.targets
    assert forest.queued == {
        t: [c for c in forest.queue if t in targets[c]]
        for t in {t for c in forest.queue for t in targets[c]}
    }
    assert forest.windows == reference_windows(forest.queue, targets, forest.depth_cap)
    adjacency = reference_adjacency(targets)
    heads = {members[0] for members in connected_components(adjacency, forest.queue)}
    for c in forest.queue:
        ahead, behind = reference_queued_conflicts(adjacency, targets, c)
        assert forest.outside[c] + forest.windows[c] == ahead, c
        assert forest.after[c] == behind, c
        assert forest.heads_component(c) == (c in heads), c
        keys = [n.key for n in forest.nodes_for_change(c)]
        assert keys == sorted(keys, key=lambda k: (-len(k[1]), [b.seq for b in k[1]]))


def chain(n: int):
    targets = targets_from_labels({f"C{i}": {"t"} for i in range(1, n + 1)})
    return list(targets), targets


# up to 9 changes from C1, each on at most two of four targets
SMALL_TARGET_MAPS = st.lists(
    st.frozensets(st.sampled_from("abcd"), max_size=2), min_size=1, max_size=9
).map(lambda sets: {ChangeId(i, f"C{i}"): t for i, t in enumerate(sets, start=1)})


class TestIncrementalForest:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(SMALL_TARGET_MAPS, target_maps()), st.data())
    def test_random_arrivals_and_resolutions_match_fresh(self, targets, data):
        depth_cap = data.draw(st.integers(min_value=1, max_value=3))
        adjacency = reference_adjacency(targets)
        arrivals = list(targets)
        forest = enumerate_forest([], targets, depth_cap)
        while arrivals or forest.queue:
            if arrivals and (not forest.queue or data.draw(st.booleans())):
                c = arrivals.pop(0)
                forest.add_change(c, targets[c])
            else:
                # finish one node so resolutions carry outcomes too
                node = data.draw(st.sampled_from(list(forest.nodes.values())))
                if node.outcome is None:
                    node.complete(BuildOutcome.PASS, 1.0)
                resolved = data.draw(st.sampled_from(forest.queue))
                landed = data.draw(st.booleans())
                _, successors = reference_queued_conflicts(
                    adjacency, forest.queue, resolved
                )
                before = {
                    key: (node, node.outcome, node.finished_at)
                    for key, node in forest.nodes.items()
                }
                twin = copy.deepcopy(forest)
                mapping = carry_map(forest, resolved, landed)
                # exactly the nodes of the resolved change and its successors
                moved = {
                    n
                    for c in (resolved, *successors)
                    for n in forest.nodes_for_change(c)
                }
                assert set(mapping) == moved
                new_keys = {
                    n.key: None if base is None else (n.change, base)
                    for n, base in mapping.items()
                }
                resolve_change(forest, resolved, mapping)
                twin_mapping = carry_map(twin, resolved, landed)
                resolve_change(twin, resolved, twin_mapping)
                assert structure(forest) == structure(twin)
                assert asdict(forest)["by_change"] == asdict(twin)["by_change"]
                assert all(node.key == k for k, node in forest.nodes.items())
                destinations = set(new_keys.values())
                for key, (node, outcome, finished_at) in before.items():
                    new_key = new_keys.get(key, key)
                    if new_key is not None:
                        # carried in place: the same node, under its new key
                        assert forest.nodes[new_key] is node
                        assert node.key == new_key
                        assert (node.outcome, node.finished_at) == (outcome, finished_at)
                    elif key in forest.nodes and key not in destinations:
                        # a vanished node's key may only come back fresh
                        assert forest.nodes[key] is not node
                        assert asdict(forest.nodes[key]) == asdict(
                            BuildNode(change=key[0], base=key[1])
                        )
            assert_matches_fresh(forest)
            # each change's map files its window's bases in read order, each
            # under its own key, and the derived index is their union
            assert list(forest.by_change) == list(forest.queue)
            union = {}
            for c, filed in forest.by_change.items():
                assert list(filed) == list(reference_ordered_bases(forest.windows[c]))
                for base, node in filed.items():
                    assert node.key == (c, base)
                    union[(c, base)] = node
                assert list(forest.nodes_for_change(c)) == list(filed.values())
            # nodes compare by identity, so this is the same nodes, not copies
            assert forest.nodes == union

    def test_empty_queue(self):
        queue, targets = chain(2)
        forest = enumerate_forest([], targets, 2)
        assert_matches_fresh(forest)
        assert forest.queue == () and not forest.nodes
        forest.add_change(queue[0], targets[queue[0]])
        assert_matches_fresh(forest)
        mapping = carry_map(forest, queue[0], True)
        forest = resolve_change(forest, queue[0], mapping)
        assert forest.queue == () and not forest.nodes and not forest.windows
        assert_matches_fresh(forest)

    def test_depth_cap_one_resolving_the_head(self):
        queue, targets = chain(4)
        forest = enumerate_forest([], targets, 1)
        for c in queue:
            forest.add_change(c, targets[c])
            assert_matches_fresh(forest)
        assert forest.windows[queue[3]] == (queue[2],)
        for landed in (True, False, True, False):
            head = forest.queue[0]
            mapping = carry_map(forest, head, landed)
            forest = resolve_change(forest, head, mapping)
            assert_matches_fresh(forest)

    def test_resolving_the_head_rewindows_only_conflicting_successors(self):
        targets = targets_from_labels({"C1": {"a"}, "C2": {"b"}, "C3": {"a", "b"}})
        forest = enumerate_forest(list(targets), targets, 6)
        independent = forest.by_change[C2][()]
        after = resolve_change(forest, C1, carry_map(forest, C1, True))
        assert_matches_fresh(after)
        assert after.by_change[C2][()] is independent
        assert after.windows[C3] == (C2,)

    def test_arrival_keeps_earlier_nodes(self):
        queue, targets = chain(3)
        forest = enumerate_forest(queue[:2], targets, 6)
        done = forest.by_change[queue[1]][(queue[0],)]
        done.complete(BuildOutcome.PASS, 3.0)
        forest.add_change(queue[2], targets[queue[2]])
        assert forest.by_change[queue[1]][(queue[0],)] is done
        assert_matches_fresh(forest)

    def test_arrival_of_queued_change_rejected(self):
        queue, targets = chain(2)
        forest = enumerate_forest(queue, targets, 6)
        with pytest.raises(ValueError):
            forest.add_change(queue[1], targets[queue[1]])


class TestBuildNodeTransitions:
    def test_lifecycle(self):
        node = BuildNode(change=C2, base=(C1,))
        assert node.outcome is None and node.finished_at is None
        node.complete(BuildOutcome.PASS, 4.0)
        assert node.outcome is BuildOutcome.PASS
        assert node.finished_at == 4.0

    def test_completed_outcome_is_final(self):
        node = BuildNode(change=C2, base=())
        node.complete(BuildOutcome.PASS, 1.0)
        with pytest.raises(ValueError):
            node.complete(BuildOutcome.FAIL, 2.0)
        assert node.outcome is BuildOutcome.PASS
        assert node.finished_at == 1.0

    def test_outcome_and_finish_time_come_together(self):
        with pytest.raises(ValueError):
            BuildNode(change=C2, base=(), outcome=BuildOutcome.PASS)
        with pytest.raises(ValueError):
            BuildNode(change=C2, base=(), finished_at=1.0)

    def test_base_must_precede_change(self):
        with pytest.raises(ValueError):
            BuildNode(change=C1, base=(C2,))

    def test_base_must_be_sorted(self):
        with pytest.raises(ValueError):
            BuildNode(change=C3, base=(C2, C1))

    @pytest.mark.parametrize(
        "change, base, message",
        [
            (C3, (C2, C1), "base must be sorted in queue order"),
            (C3, (C1, C3), "base members must precede the change in queue order"),
            (C2, (C1, C3), "base members must precede the change in queue order"),
            # both wrong: the order is checked first
            (C1, (C3, C2), "base must be sorted in queue order"),
            (C2, (C3, C1), "base must be sorted in queue order"),
            # a repeated member is out of order
            (C2, (C1, C1), "base must be sorted in queue order"),
        ],
    )
    def test_invalid_base_messages(self, change, base, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BuildNode(change=change, base=base)


class TestOrderedBases:
    @given(st.lists(st.integers(0, 40), unique=True, max_size=6))
    def test_equals_the_generator_form(self, seqs):
        window = tuple(ChangeId(s, f"C{s}") for s in sorted(seqs))
        assert forest_module._ordered_bases(window) == reference_ordered_bases(window)
