"""Tests for domain types and conflict analysis."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specqueue.core import (
    Change,
    ChangeId,
    EngineConfig,
    build_conflict_graph,
    conflicts,
    connected_components,
)


def make_change(seq: int, targets: set[str], **kw) -> Change:
    return Change(
        id=ChangeId(seq, f"C{seq}"),
        arrival_time=float(seq),
        targets_changed=frozenset(targets),
        **kw,
    )


class TestChange:
    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            Change(id=ChangeId(0, "C0"), arrival_time=-1.0)

    def test_rejects_prior_out_of_range(self):
        with pytest.raises(ValueError):
            Change(id=ChangeId(0, "C0"), arrival_time=0.0, success_prior=1.5)


class TestChangeId:
    def test_orders_by_sequence_not_label(self):
        # Lexicographically "C10" < "C2"; the queue order must win.
        early = ChangeId(2, "C2")
        late = ChangeId(10, "C10")
        assert early < late
        assert sorted([late, early]) == [early, late]


class TestConflicts:
    def test_shared_target_conflicts(self):
        a = make_change(0, {"lib/auth", "lib/net"})
        b = make_change(1, {"lib/net"})
        assert conflicts(a, b)

    def test_disjoint_targets_do_not_conflict(self):
        a = make_change(0, {"lib/auth"})
        b = make_change(1, {"lib/net"})
        assert not conflicts(a, b)

    @given(
        st.frozensets(st.sampled_from("abcdef"), max_size=4),
        st.frozensets(st.sampled_from("abcdef"), max_size=4),
    )
    def test_symmetric(self, ta, tb):
        a = Change(id=ChangeId(0, "C0"), arrival_time=0.0, targets_changed=ta)
        b = Change(id=ChangeId(1, "C1"), arrival_time=1.0, targets_changed=tb)
        assert conflicts(a, b) == conflicts(b, a)


class TestConflictGraph:
    def test_duplicate_ids_rejected(self):
        a = make_change(0, {"x"})
        dup = Change(id=ChangeId(0, "C0"), arrival_time=5.0)
        with pytest.raises(ValueError, match="duplicate"):
            build_conflict_graph([a, dup])

    def test_graph_is_symmetric_and_irreflexive(self):
        changes = [
            make_change(0, {"x"}),
            make_change(1, {"x", "y"}),
            make_change(2, {"y"}),
            make_change(3, {"z"}),
        ]
        g = build_conflict_graph(changes)
        for c in changes:
            assert c.id not in g.neighbors(c.id)
            for nbr in g.neighbors(c.id):
                assert c.id in g.neighbors(nbr)
        assert changes[1].id in g.neighbors(changes[0].id)
        assert changes[2].id not in g.neighbors(changes[0].id)

    def test_duplicate_ids_rejected_even_without_shared_targets(self):
        a = make_change(0, {"x"})
        dup = Change(
            id=ChangeId(0, "C0"), arrival_time=5.0, targets_changed=frozenset({"y"})
        )
        with pytest.raises(ValueError, match="duplicate"):
            build_conflict_graph([a, dup])

    @given(
        st.lists(st.frozensets(st.sampled_from("abcdefg"), max_size=4), max_size=12)
    )
    def test_equals_pairwise_conflicts(self, target_sets):
        changes = [
            Change(id=ChangeId(i, f"C{i}"), arrival_time=float(i), targets_changed=t)
            for i, t in enumerate(target_sets)
        ]
        g = build_conflict_graph(changes)
        assert set(g.adjacency) == {c.id for c in changes}
        for a in changes:
            expected = {b.id for b in changes if b.id != a.id and conflicts(a, b)}
            assert g.neighbors(a.id) == expected


class TestConnectedComponents:
    def test_chain_forms_one_component(self):
        # x-y, y-z overlap links all three even though ends are disjoint.
        changes = [
            make_change(0, {"x"}),
            make_change(1, {"x", "y"}),
            make_change(2, {"y"}),
        ]
        g = build_conflict_graph(changes)
        comps = connected_components(g, [c.id for c in changes])
        assert comps == [[c.id for c in changes]]

    def test_isolated_changes_are_singletons(self):
        changes = [make_change(i, {f"t{i}"}) for i in range(3)]
        g = build_conflict_graph(changes)
        comps = connected_components(g, [c.id for c in changes])
        assert comps == [[c.id] for c in changes]

    def test_component_order_follows_earliest_member(self):
        changes = [
            make_change(0, {"a"}),
            make_change(1, {"b"}),
            make_change(2, {"a"}),
            make_change(3, {"b"}),
        ]
        g = build_conflict_graph(changes)
        comps = connected_components(g, [c.id for c in changes])
        assert comps == [
            [changes[0].id, changes[2].id],
            [changes[1].id, changes[3].id],
        ]


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
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            EngineConfig(**kw)
