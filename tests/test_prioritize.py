"""Tests for bypass partitioning and needed-probability scoring."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specqueue.completion import p_finishes_before
from specqueue.core import ChangeId, EngineConfig
from specqueue.forest import BuildOutcome, SpeculationForest, enumerate_forest
from specqueue.prediction import DurationEstimate
from specqueue.prioritize import (
    BypassPartition,
    finish_time_model,
    needed_probability,
    profile_change,
    rank_builds,
)

from oracles import assert_scoring_case, partition, rank_all, triangle

C1, C2, C3 = ChangeId(1, "C1"), ChangeId(2, "C2"), ChangeId(3, "C3")


def annotate(forest: SpeculationForest, mean: float = 20.0, var: float = 9.0) -> None:
    for node in list(forest.nodes.values()):
        node.estimate = DurationEstimate(mean, var)


# probabilities, drawn often at the edges and at values a floor is set to
ODDS = st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0)


def priors_fn(priors: dict[ChangeId, float]):
    return lambda pred, context: priors[pred]


class TestBypassPartition:
    def test_a_predecessor_cannot_be_both_bypassable_and_not(self):
        with pytest.raises(ValueError, match="^a predecessor cannot be both"):
            BypassPartition(C3, (C1, C2), (C2,), 0.5, False)

    @pytest.mark.parametrize("product", [-0.25, 1.25, float("nan")])
    def test_a_bypass_product_outside_0_1_is_refused(self, product):
        with pytest.raises(ValueError, match=r"^bypass_product must be in \[0, 1\]$"):
            BypassPartition(C3, (C1,), (C2,), product, False)


class TestFiveCaseConformance:
    """The five worked scoring cases of tests/oracles.py, one test each;
    acceptance criterion 2 runs them together."""

    def test_case_one_everyone_waits(self):
        assert_scoring_case(triangle(), "one")

    def test_case_two_second_change_may_pass_first(self):
        assert_scoring_case(triangle(), "two")

    def test_case_three_third_change_may_pass_second_only(self):
        assert_scoring_case(triangle(), "three")

    def test_case_four_third_change_may_pass_both(self):
        assert_scoring_case(triangle(), "four")

    def test_case_five_mixed(self):
        assert_scoring_case(triangle(), "five")


class TestNeededProbability:
    def test_fallback_scores_every_predecessor_by_outcome(self):
        # dead heats: each predecessor is bypassable at tau = 0.5, but the
        # joint chance of finishing first, 0.25, is below epsilon
        forest = triangle()
        annotate(forest)
        cfg = EngineConfig(bypass_eligibility_threshold=0.5, bypass_product_floor=0.3)
        part = profile_change(C3, forest, {C1: 0.0, C2: 0.0, C3: 0.0}, cfg)
        assert part.fallback_active
        assert (part.non_bypassable, part.bypassable) == ((C1, C2), ())
        success = priors_fn({C1: 0.8, C2: 0.7})
        got = needed_probability(forest.node(C3, (C1,)), part, success)
        assert got == pytest.approx(0.8 * (1 - 0.7))

    def test_foreign_node_rejected(self):
        forest = triangle()
        part = partition(C2, fixed=(C1,))
        with pytest.raises(ValueError):
            needed_probability(forest.node(C3, ()), part, priors_fn({C1: 0.5}))

    def test_base_outside_partition_rejected(self):
        forest = triangle()
        part = partition(C3, fixed=(C1,))  # C2 missing entirely
        with pytest.raises(ValueError):
            needed_probability(forest.node(C3, (C2,)), part, priors_fn({C1: 0.5}))

    def test_observed_outcomes_flow_through_context(self):
        # The success source sees which predecessors the node assumes
        # landed before each term, so it can substitute known results.
        forest = triangle()
        seen = []

        def recording(pred, context):
            seen.append((pred, context))
            return 0.5

        part = partition(C3, fixed=(C1, C2))
        needed_probability(forest.node(C3, (C1, C2)), part, recording)
        assert seen == [(C1, ()), (C2, (C1,))]

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.5, max_value=1.0),
        st.booleans(),
    )
    def test_equal_priority_law(self, prior, p_order, include):
        # Toggling a bypassable predecessor in the base never moves the
        # score: that is what lets sibling builds run at equal priority.
        forest = triangle()
        part = partition(C3, fixed=(C1,), bypassed=(C2,), product=p_order)
        success = priors_fn({C1: prior, C2: prior})
        with_c2 = needed_probability(forest.node(C3, (C1, C2)), part, success)
        without_c2 = needed_probability(forest.node(C3, (C1,)), part, success)
        assert with_c2 == without_c2

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    def test_scores_stay_probabilities(self, prior1, prior2):
        forest = triangle()
        part = partition(C3, fixed=(C1, C2))
        success = priors_fn({C1: prior1, C2: prior2})
        for node in forest.nodes_for_change(C3):
            assert 0.0 <= needed_probability(node, part, success) <= 1.0

    def test_stops_once_below_the_floor(self):
        # every term is in [0, 1], so a product below the floor stays there
        forest = triangle()
        seen = []

        def recording(pred, context):
            seen.append(pred)
            return 0.2

        part = partition(C3, fixed=(C1, C2), product=0.9)
        got = needed_probability(forest.node(C3, (C1, C2)), part, recording, 0.5)
        assert got == pytest.approx(0.9 * 0.2)
        assert seen == [C1]
        low = partition(C3, fixed=(C1, C2), product=0.4)
        assert needed_probability(forest.node(C3, ()), low, recording, 0.5) == 0.4
        assert seen == [C1]

    @given(ODDS, st.floats(0.0, 1.0), st.floats(0.0, 1.0), ODDS)
    def test_floor_keeps_every_score_at_or_above_it(self, product, p1, p2, floor):
        # at or above the floor the score is the full product, exactly;
        # below it, it is only known to be below
        forest = triangle()
        part = partition(C3, fixed=(C1, C2), product=product)
        success = priors_fn({C1: p1, C2: p2})
        for node in forest.nodes_for_change(C3):
            full = needed_probability(node, part, success)
            got = needed_probability(node, part, success, floor)
            if full >= floor:
                assert got == full
            else:
                assert got < floor


class TestFinishTimeModel:
    def test_pools_all_nodes(self):
        forest = triangle(n=2)
        annotate(forest, mean=15.0, var=9.0)
        assert finish_time_model(C2, forest) == DurationEstimate(15.0, 9.0)

    def test_completed_nodes_contribute_zero(self):
        forest = triangle(n=2)
        annotate(forest, mean=15.0, var=9.0)
        forest.node(C2, (C1,)).complete(BuildOutcome.PASS, 5.0)
        assert finish_time_model(C2, forest) == DurationEstimate(7.5, 4.5)

    def test_missing_estimate_rejected(self):
        forest = triangle(n=1)
        with pytest.raises(ValueError):
            finish_time_model(C1, forest)

    def test_empty_window_profile_still_checks_estimates(self):
        # C1 has no predecessor, so profiling pools nothing for it, but
        # its pending node without an estimate still raises
        forest = triangle(n=1)
        with pytest.raises(ValueError, match="has no duration estimate"):
            profile_change(C1, forest, {C1: 0.0}, EngineConfig())


class TestProfileChange:
    CFG = EngineConfig(bypass_eligibility_threshold=0.5, bypass_product_floor=0.05)

    def build(self, pred_est, succ_est, pred_arrival=0.0, succ_arrival=1.0):
        forest = triangle(n=2)
        for node in forest.nodes_for_change(C1):
            node.estimate = pred_est
        for node in forest.nodes_for_change(C2):
            node.estimate = succ_est
        arrivals = {C1: pred_arrival, C2: succ_arrival}
        return forest, arrivals

    def test_fast_follower_is_bypassable(self):
        # Follower one minute later, expected done twenty minutes sooner.
        forest, arrivals = self.build(
            DurationEstimate(35, 36), DurationEstimate(15, 9)
        )
        part = profile_change(C2, forest, arrivals, self.CFG)
        assert part.bypassable == (C1,)
        assert part.non_bypassable == ()
        assert part.bypass_product == pytest.approx(0.9977, abs=5e-4)
        assert not part.fallback_active

    def test_slow_late_follower_is_not(self):
        forest, arrivals = self.build(
            DurationEstimate(20, 16), DurationEstimate(5, 4), succ_arrival=480.0
        )
        part = profile_change(C2, forest, arrivals, self.CFG)
        assert part.bypassable == ()
        assert part.non_bypassable == (C1,)
        assert part.bypass_product == 1.0
        assert not part.fallback_active

    def test_below_threshold_predecessors_never_enter_product(self):
        # Both predecessors likely finish first; each chance below tau
        # goes to the waiting side and the product stays at one.
        forest = triangle(n=3)
        annotate(forest)
        for node in forest.nodes_for_change(C3):
            node.estimate = DurationEstimate(60.0, 9.0)
        arrivals = {C1: 0.0, C2: 0.0, C3: 0.0}
        part = profile_change(C3, forest, arrivals, self.CFG)
        assert part.non_bypassable == (C1, C2)
        assert part.bypassable == ()
        assert part.bypass_product == 1.0
        assert not part.fallback_active

    def test_product_multiplies_only_bypassable(self):
        forest = triangle(n=3)
        annotate(forest, mean=40.0, var=16.0)
        for node in forest.nodes_for_change(C3):
            node.estimate = DurationEstimate(10.0, 4.0)
        arrivals = {C1: 0.0, C2: 0.5, C3: 1.0}
        part = profile_change(C3, forest, arrivals, self.CFG)
        assert part.bypassable == (C1, C2)
        est3 = finish_time_model(C3, forest)
        expected = p_finishes_before(1.0, est3, 0.0, finish_time_model(C1, forest))
        expected *= p_finishes_before(1.0, est3, 0.5, finish_time_model(C2, forest))
        assert part.bypass_product == pytest.approx(expected)

    def test_unknown_change_rejected(self):
        forest, arrivals = self.build(DurationEstimate(10, 1), DurationEstimate(10, 1))
        with pytest.raises(KeyError):
            profile_change(ChangeId(9, "C9"), forest, arrivals, self.CFG)


class TestRankBuilds:
    def test_waiting_pair_orders_by_likely_path(self):
        forest = triangle(n=2)
        partitions = {C1: partition(C1), C2: partition(C2, fixed=(C1,))}
        ranked = rank_all(forest, partitions, priors_fn({C1: 0.9}))
        got = [(node.change, node.base, -key[0]) for key, node in ranked]
        assert got == [
            (C1, (), 1.0),
            (C2, (C1,), pytest.approx(0.9)),
            (C2, (), pytest.approx(0.1)),
        ]

    def test_bypass_pair_ties_break_deeper_first(self):
        forest = triangle(n=2)
        partitions = {
            C1: partition(C1),
            C2: partition(C2, bypassed=(C1,), product=0.9),
        }
        ranked = rank_all(forest, partitions, priors_fn({C1: 0.9}))
        got = [(node.change, node.base) for _, node in ranked]
        assert got == [(C1, ()), (C2, (C1,)), (C2, ())]
        assert -ranked[1][0][0] == -ranked[2][0][0] == pytest.approx(0.9)

    def test_independent_heads_order_by_arrival(self):
        forest = enumerate_forest([C1, C2], {C1: {"a"}, C2: {"b"}}, 6)
        partitions = {C1: partition(C1), C2: partition(C2)}
        ranked = rank_all(forest, partitions, priors_fn({}))
        got = [(node.change, -key[0]) for key, node in ranked]
        assert got == [(C1, 1.0), (C2, 1.0)]

    def test_completed_nodes_drop_out(self):
        forest = triangle(n=2)
        forest.node(C1, ()).complete(BuildOutcome.PASS, 3.0)
        partitions = {C1: partition(C1), C2: partition(C2, fixed=(C1,))}
        ranked = rank_all(forest, partitions, priors_fn({C1: 0.9}))
        assert all(node.change == C2 for _, node in ranked)

    def test_partition_of_another_change_rejected(self):
        forest = triangle(n=2)
        with pytest.raises(ValueError):
            rank_builds(forest.nodes_for_change(C2), partition(C1), priors_fn({}))

    def test_build_at_the_floor_is_kept(self):
        forest = triangle(n=2)
        part = partition(C2, bypassed=(C1,), product=0.3)
        scored = rank_builds(forest.nodes_for_change(C2), part, priors_fn({}), 0.3)
        assert [p for _, p in scored] == [0.3, 0.3]

    def test_build_below_the_floor_is_dropped(self):
        # the path where C1 fails scores 0.1, below delta = 0.3
        forest = triangle(n=2)
        part = partition(C2, fixed=(C1,))
        scored = rank_builds(
            forest.nodes_for_change(C2), part, priors_fn({C1: 0.9}), 0.3
        )
        assert scored == [(forest.node(C2, (C1,)), pytest.approx(0.9))]

    def test_head_clears_a_floor_of_one(self):
        # a head has no predecessor to wait on, so its one build scores
        # exactly 1 whatever the success odds
        forest = triangle(n=1)
        nodes = forest.nodes_for_change(C1)
        scored = rank_builds(nodes, partition(C1), priors_fn({}), 1.0)
        assert scored == [(forest.node(C1, ()), 1.0)]

    def test_floor_zero_keeps_a_zero_score(self):
        # C1 surely passes, so the path where it fails scores exactly 0
        forest = triangle(n=2)
        part = partition(C2, fixed=(C1,))
        scored = rank_builds(forest.nodes_for_change(C2), part, priors_fn({C1: 1.0}))
        assert dict(scored) == {forest.node(C2, (C1,)): 1.0, forest.node(C2, ()): 0.0}

    def test_builds_come_back_in_input_order_with_their_scores(self):
        forest = triangle(n=2)
        nodes = forest.nodes_for_change(C2)
        scored = rank_builds(nodes, partition(C2, fixed=(C1,)), priors_fn({C1: 0.9}))
        assert [node for node, _ in scored] == list(nodes)
        assert dict(scored) == {
            forest.node(C2, (C1,)): pytest.approx(0.9),
            forest.node(C2, ()): pytest.approx(0.1),
        }

    def test_score_must_be_probability(self):
        # a success function outside [0, 1] scores the landed path 1.5
        forest = triangle(n=2)
        with pytest.raises(ValueError, match="outside"):
            rank_builds(
                [forest.node(C2, (C1,))],
                partition(C2, fixed=(C1,)),
                priors_fn({C1: 1.5}),
            )
