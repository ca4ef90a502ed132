"""Tests for domain types and conflict analysis."""

from __future__ import annotations

import copy
import pickle
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specqueue.core import ChangeId, EngineConfig, build_conflict_graph
from specqueue.forest import carry_map, enumerate_forest, resolve_change
from specqueue.simulator import (
    ChangeSpec,
    GeneratorParams,
    WorkloadSpec,
    format_workload,
    generate_workload,
    parse_workload,
    static_conflict_rate,
)

from oracles import benchmark_stream, connected_components, reference_adjacency


C0, C1 = ChangeId(0, "C0"), ChangeId(1, "C1")


def targets_by_id(*target_sets: set[str]) -> dict[ChangeId, frozenset[str]]:
    """Change C<i> touches target_sets[i]."""
    return {ChangeId(i, f"C{i}"): frozenset(t) for i, t in enumerate(target_sets)}


class TestChangeId:
    def test_orders_by_sequence_not_label(self):
        # Lexicographically "C10" < "C2"; the queue order must win.
        early = ChangeId(2, "C2")
        late = ChangeId(10, "C10")
        assert early < late
        assert sorted([late, early]) == [early, late]

    def test_hash_is_the_sequence_and_agrees_with_equality(self):
        assert hash(ChangeId(5, "x")) == 5
        assert ChangeId(5, "x") == ChangeId(5, "x")
        assert hash(ChangeId(5, "x")) == hash(ChangeId(5, "x"))
        assert {ChangeId(5, "x"): 1}[ChangeId(5, "x")] == 1

    @given(st.lists(st.integers(0, 10_000), unique=True))
    def test_order_is_sequence_order(self, seqs):
        ids = [ChangeId(seq, f"C{seq}") for seq in seqs]
        assert [c.seq for c in sorted(ids)] == sorted(seqs)
        for a in ids:
            for b in ids:
                assert (a < b) == (a.seq < b.seq)
                assert (a == b) == (a.seq == b.seq)

    @given(st.lists(st.integers(0, 10_000), unique=True))
    def test_a_set_iterates_as_a_set_of_the_sequences(self, seqs):
        ids = {ChangeId(seq, f"C{seq}") for seq in seqs}
        assert [c.seq for c in ids] == list(set(seqs))

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_sequence_and_label(self, round_trip):
        c = ChangeId(7, "change-7")
        copied = round_trip(c)
        assert type(copied) is type(c)
        assert (copied.seq, copied.label) == (7, "change-7")
        assert copied == c and hash(copied) == hash(c)

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_the_shared_form(self, round_trip):
        c = ChangeId(7, "C7")
        copied = round_trip(c)
        assert type(copied) is type(c) and not hasattr(copied, "__dict__")
        assert copied.seq == 7 and copied.label is c.label

    def test_a_generated_label_is_shared_and_the_id_holds_no_dict(self):
        c = ChangeId(7, "C7")
        assert not hasattr(c, "__dict__")
        assert ChangeId(7, "".join(["C", "7"])).label is c.label

    def test_a_hand_label_is_kept(self):
        ChangeId(8, "C8")
        c = ChangeId(8, "lib-fix")
        assert hasattr(c, "__dict__")
        assert (c.seq, c.label, str(c)) == (8, "lib-fix", "lib-fix")
        assert repr(c) == "ChangeId(seq=8, label='lib-fix')"
        assert ChangeId(8, "C8").label == "C8"

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_both_forms_compare_hash_and_sort_alike(self, a, b):
        shared, named = ChangeId(a, f"C{a}"), ChangeId(a, f"n{a}")
        other = ChangeId(b, f"n{b}")
        assert type(shared) is not type(named)
        assert shared == named and hash(shared) == hash(named) == a
        assert {shared: 1}[named] == 1
        for c in (shared, named):
            assert (c < other, c == other, c > other) == (a < b, a == b, a > b)
            assert [x.seq for x in sorted([other, c])] == sorted([a, b])

    @pytest.mark.parametrize(
        "seq, label, value, has_dict",
        [(True, "C1", 1, False), (2.5, "C2", 2, False), (-1, "C-1", -1, True)],
        ids=["bool", "float", "negative"],
    )
    def test_a_bool_float_or_negative_seq(self, seq, label, value, has_dict):
        c = ChangeId(seq, label)
        assert type(c.seq) is int and c.seq == value
        assert (c.label, str(c)) == (label, label)
        assert repr(c) == f"ChangeId(seq={value}, label={label!r})"
        assert c == value and hash(c) == hash(value)
        assert hasattr(c, "__dict__") == has_dict
        copied = pickle.loads(pickle.dumps(c))
        assert (type(copied), copied.seq, copied.label) == (type(c), value, label)

    def test_two_parses_of_one_text_share_each_label(self):
        text = format_workload(generate_workload(GeneratorParams(n_changes=40)))
        first, second = parse_workload(text), parse_workload(text)
        for a, b in zip(first.changes, second.changes, strict=True):
            assert a.id.label is b.id.label

    def test_is_immutable(self):
        c = ChangeId(3, "C3")
        for name, value in (("label", "other"), ("seq", 4), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(c, name, value)
        with pytest.raises(AttributeError):
            del c.label
        assert (c.seq, c.label) == (3, "C3")

    def test_str_is_the_label_and_repr_names_both(self):
        c = ChangeId(12, "C12")
        assert str(c) == "C12"
        assert f"{c}" == "C12"
        assert repr(c) == "ChangeId(seq=12, label='C12')"
        assert type(c.seq) is int


class TestConflicts:
    def test_shared_target_conflicts(self):
        g = build_conflict_graph(targets_by_id({"lib/auth", "lib/net"}, {"lib/net"}))
        assert g.adjacency[C0] == {C1}

    def test_disjoint_targets_do_not_conflict(self):
        g = build_conflict_graph(targets_by_id({"lib/auth"}, {"lib/net"}))
        assert g.adjacency == {C0: frozenset(), C1: frozenset()}

    @given(
        st.frozensets(st.sampled_from("abcdef"), max_size=4),
        st.frozensets(st.sampled_from("abcdef"), max_size=4),
    )
    def test_symmetric(self, ta, tb):
        adjacency = build_conflict_graph(targets_by_id(ta, tb)).adjacency
        assert (C1 in adjacency[C0]) == (C0 in adjacency[C1])


class TestConflictGraph:
    def test_graph_is_symmetric_and_irreflexive(self):
        targets = targets_by_id({"x"}, {"x", "y"}, {"y"}, {"z"})
        adjacency = build_conflict_graph(targets).adjacency
        for c in targets:
            assert c not in adjacency[c]
            for nbr in adjacency[c]:
                assert c in adjacency[nbr]
        ids = list(targets)
        assert ids[1] in adjacency[ids[0]]
        assert ids[2] not in adjacency[ids[0]]

    @given(
        st.lists(st.frozensets(st.sampled_from("abcdefg"), max_size=4), max_size=12)
    )
    def test_equals_pairwise_conflicts(self, target_sets):
        targets = targets_by_id(*target_sets)
        adjacency = build_conflict_graph(targets).adjacency
        assert set(adjacency) == set(targets)
        for a in targets:
            expected = {b for b in targets if b != a and bool(targets[a] & targets[b])}
            assert adjacency[a] == expected


@st.composite
def target_maps(draw) -> dict[ChangeId, tuple[str, ...]]:
    """Up to 12 changes' target lists over a few targets, with one hot
    target, two changes that share two or three targets of their own, and
    one change that lists a target twice."""
    n = draw(st.integers(min_value=2, max_value=12))
    lists = [draw(st.lists(st.sampled_from("abcde"), max_size=3)) for _ in range(n)]
    for touched in lists:
        if draw(st.booleans()):
            touched.append("hot")
    first = draw(st.integers(min_value=0, max_value=n - 2))
    second = draw(st.integers(min_value=first + 1, max_value=n - 1))
    shared = ["s1", "s2", "s3"][: draw(st.integers(min_value=2, max_value=3))]
    lists[first] += shared
    lists[second] += shared
    # `own` is a target no other change touches
    twice = draw(st.sampled_from(["a", "b", "hot", "own"]))
    lists[draw(st.integers(min_value=0, max_value=n - 1))] += [twice, twice]
    return {ChangeId(i, f"C{i}"): tuple(t) for i, t in enumerate(lists)}


def _held_bytes_per_record(text: str, n_changes: int) -> float:
    """Bytes a parse of `text` holds per change record, under
    `tracemalloc`."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        workload = parse_workload(text)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(workload.changes) == n_changes
    return (held - before) / n_changes


class TestMemberships:
    @settings(max_examples=150, deadline=None)
    @given(target_maps(), st.integers(min_value=1, max_value=3), st.data())
    def test_answers_as_the_pairwise_reference(self, targets, depth_cap, data):
        reference = reference_adjacency(targets)
        g = build_conflict_graph(targets)
        # each target's changes, each once, in the order they were given
        assert g.changes == {
            t: [c for c, touched in targets.items() if t in touched]
            for t in set().union(*targets.values())
        }
        assert g.adjacency == reference
        specs = [ChangeSpec(c, 0.0, frozenset(targets[c]), 10.0, 4.0) for c in targets]
        workload = WorkloadSpec(tuple(specs))
        conflicted = sum(1 for c in targets if reference[c])
        assert static_conflict_rate(workload) == 100.0 * conflicted / len(targets)
        # random arrivals and land/reject resolutions, the windows read
        # from memberships checked against the pairs after each
        arrivals = list(targets)
        forest = enumerate_forest([], targets, depth_cap)
        while arrivals or forest.queue:
            if arrivals and (not forest.queue or data.draw(st.booleans())):
                c = arrivals.pop(0)
                forest.add_change(c, targets[c])
            else:
                resolved = data.draw(st.sampled_from(forest.queue))
                landed = data.draw(st.booleans())
                resolve_change(forest, resolved, carry_map(forest, resolved, landed))
            queue = forest.queue
            heads = {m[0] for m in connected_components(reference, queue)}
            for c in queue:
                queued = sorted(reference[c] & set(queue))
                ahead = tuple(p for p in queued if p < c)
                assert forest.outside[c] + forest.windows[c] == ahead
                assert forest.after[c] == [s for s in queued if s > c]
                assert forest.heads_component(c) == (c in heads)

    def test_memory_stays_linear_in_a_hot_targets_users(self):
        # 1,000 changes on one target are about 10^6 conflicting pairs, and
        # memberships hold 1,000: the pairs peaked at 63 MiB, these at 0.1
        workload = WorkloadSpec(
            tuple(
                ChangeSpec(ChangeId(i, f"C{i}"), 0.0, frozenset({"hot"}), 10.0, 4.0)
                for i in range(1000)
            )
        )
        targets = {s.id: s.targets for s in workload.changes}
        tracemalloc.start()
        try:
            build_conflict_graph(targets)
            assert static_conflict_rate(workload) == 100.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_a_parsed_steady_record_holds_at_most_680_bytes(self):
        # a benchmark run holds every parsed stream to its end, so a record's
        # bytes add to its peak memory: 783 with frozensets of targets and
        # breakers, 609 with sorted tuples, on the first `steady` stream
        params, _ = benchmark_stream("steady")
        text = format_workload(generate_workload(params))
        assert _held_bytes_per_record(text, params.n_changes) <= 680


class TestRecordMemory:
    # the first stream of the benchmark's `steady` batch
    PARAMS, _ = benchmark_stream("steady")

    def test_a_parsed_steady_record_holds_at_most_334_bytes(self):
        # parsing shares each repeated mu/var text's float and each target
        # name: 591 bytes per record before, 534 since; a `C<seq>` id reads
        # its label from one shared table, 303 since, bounded at 303 + 10%
        text = format_workload(generate_workload(self.PARAMS))
        assert _held_bytes_per_record(text, self.PARAMS.n_changes) <= 334

    def test_a_hand_labelled_steady_record_holds_at_most_588_bytes(self):
        # an id labelled other than `C<seq>` keeps its label in its own
        # dict, 543 bytes per record, bounded at the shared form's old 588
        text = format_workload(generate_workload(self.PARAMS))
        text = re.sub(r"\bC(\d+)\b", r"change-\1", text)
        assert "id=change-999 " in text
        assert _held_bytes_per_record(text, self.PARAMS.n_changes) <= 588


class TestConnectedComponents:
    def test_chain_forms_one_component(self):
        # x-y, y-z overlap links all three even though ends are disjoint.
        targets = targets_by_id({"x"}, {"x", "y"}, {"y"})
        comps = connected_components(reference_adjacency(targets), list(targets))
        assert comps == [list(targets)]

    def test_isolated_changes_are_singletons(self):
        targets = targets_by_id(*({f"t{i}"} for i in range(3)))
        comps = connected_components(reference_adjacency(targets), list(targets))
        assert comps == [[c] for c in targets]

    def test_component_order_follows_earliest_member(self):
        targets = targets_by_id({"a"}, {"b"}, {"a"}, {"b"})
        comps = connected_components(reference_adjacency(targets), list(targets))
        ids = list(targets)
        assert comps == [[ids[0], ids[2]], [ids[1], ids[3]]]


class TestEngineConfig:
    def test_defaults_valid(self):
        EngineConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"speculation_threshold": -0.1},
            {"bypass_eligibility_threshold": 1.1},
            {"bypass_product_floor": 0.0},
            {"executor_capacity": 0},
            {"depth_cap": 0},
            {"depth_cap": 17},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            EngineConfig(**kw)
