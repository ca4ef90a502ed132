"""End-to-end simulator tests built on hand-derived scenarios.

Every change here uses zero true variance so build durations equal the
stated means exactly and event times can be checked to the minute.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specqueue.cli import main
from specqueue.core import BuildOutcome, ChangeId, EngineConfig
from specqueue.prediction import ConstantPredictor, OracleWithNoise
from specqueue.simulator import (
    CSV_HEADER,
    GeneratorParams,
    MetricsReport,
    WorkloadSpec,
    format_workload,
    generate_workload,
    nearest_rank,
    reports_to_csv,
    run,
)
from specqueue.selection import Decision, DecisionKind
from specqueue.simulator import engine
from specqueue.simulator.engine import GroundTruth, Scheduler, _Simulation
from specqueue.simulator.workload import STRATEGIES, ChangeSpec, WorkloadError

from mutants import (
    check_a_head_keeps_its_build_at_1,
    check_a_head_without_an_estimate_raises,
    check_an_arrival_comes_before_a_finish_at_its_minute,
)
from oracles import (
    GENERATORS,
    CheckedSimulation,
    benchmark_stream,
    load_tool,
    reference_duration,
)

trajectory = load_tool("trajectory")


def spec(seq, label, at, targets, mu, passes=True, prior=0.9):
    return ChangeSpec(
        id=ChangeId(seq, label),
        arrival_time=at,
        targets=frozenset(targets),
        true_mean=mu,
        true_variance=0.0,
        passes_alone=passes,
        success_prior=prior,
    )


def workload(changes, **kw):
    return WorkloadSpec(changes=changes, predictor=OracleWithNoise(), **kw)


class TestSingleChange:
    def test_lands_after_one_build(self):
        w = workload((spec(0, "C0", 0.0, {"a"}, 10.0),))
        report, trace = run(w)
        assert report.builds_started == 1
        assert report.changes_decided == 1
        assert report.abort_count == 0
        assert report.bypass_count == 0
        assert report.executor_minutes == 10.0
        assert report.builds_to_changes_ratio == 1.0
        (rec,) = report.waits
        assert (rec.change, rec.wait, rec.landed, rec.via_bypass) == (
            "C0",
            10.0,
            True,
            False,
        )
        assert any("land C0" in line for line in trace)


class TestShortBehindLongConflict:
    """A 5 minute change arrives just after a conflicting 60 minute one."""

    def build(self):
        return workload(
            (spec(0, "C0", 0.0, {"a"}, 60.0), spec(1, "C1", 1.0, {"a"}, 5.0))
        )

    def test_enhanced_lands_the_short_change_early(self):
        report, trace = run(self.build())
        waits = {r.change: r for r in report.waits}
        # both of C1's branches pass by t=6, so it overtakes C0
        assert waits["C1"].wait == 5.0
        assert waits["C1"].via_bypass is True
        assert report.bypass_count == 1
        assert any("land C1 via_bypass=yes bypassed=C0" in line for line in trace)

    def test_overtaken_change_is_not_invalidated(self):
        report, _ = run(self.build())
        waits = {r.change: r for r in report.waits}
        assert waits["C0"].wait == 60.0
        assert waits["C0"].landed is True
        assert report.abort_count == 0

    def test_baseline_holds_the_short_change_behind_the_head(self):
        report, _ = run(self.build(), "baseline")
        waits = {r.change: r for r in report.waits}
        assert waits["C1"].wait == 59.0
        assert waits["C1"].via_bypass is False
        assert report.bypass_count == 0

    def test_both_strategies_build_the_full_fork(self):
        # one build for C0 plus C1 with and without C0 in the base
        for report in (run(self.build())[0], run(self.build(), "baseline")[0]):
            assert report.builds_started == 3


class TestFailingPredecessor:
    def test_assumed_land_branch_aborts_and_clean_branch_carries(self):
        w = workload(
            (
                spec(0, "C0", 0.0, {"a"}, 10.0, passes=False, prior=0.5),
                spec(1, "C1", 1.0, {"a"}, 10.0, prior=0.5),
            )
        )
        report, trace = run(w)
        waits = {r.change: r for r in report.waits}
        assert waits["C0"].landed is False
        assert waits["C0"].wait == 10.0
        # the branch that assumed C0 landed dies with the rejection
        assert report.abort_count == 1
        assert any("abort C1 base=C0" in line for line in trace)
        # the clean branch finishes at t=11 and decides C1
        assert waits["C1"].landed is True
        assert waits["C1"].wait == 10.0

    def test_finished_and_aborted_runs_are_not_kept(self):
        w = workload(
            (
                spec(0, "C0", 0.0, {"a"}, 10.0, passes=False, prior=0.5),
                spec(1, "C1", 1.0, {"a"}, 10.0, prior=0.5),
            )
        )
        sim = _Simulation(w, "enhanced")
        report, _ = sim.execute()
        assert report.abort_count == 1
        assert sim.running == {} and sim.heap == []


class TestConcurrency:
    def test_independent_changes_run_in_parallel(self):
        w = workload(
            (spec(0, "C0", 0.0, {"a"}, 10.0), spec(1, "C1", 0.0, {"b"}, 10.0))
        )
        report, _ = run(w)
        assert report.builds_started == 2
        assert {r.wait for r in report.waits} == {10.0}
        assert report.executor_minutes == 20.0

    def test_capacity_one_serializes(self):
        w = workload(
            (spec(0, "C0", 0.0, {"a"}, 10.0), spec(1, "C1", 0.0, {"b"}, 10.0)),
            config=EngineConfig(executor_capacity=1),
        )
        report, _ = run(w)
        waits = {r.change: r.wait for r in report.waits}
        assert waits == {"C0": 10.0, "C1": 20.0}

    def test_deselected_build_starts_again_under_its_key(self):
        # C2's speculative build loses its executor slot to higher-ranked
        # builds, then wins it back while C1 is still queued.
        w = generate_workload(
            GeneratorParams(
                n_changes=10, arrival_rate=1.5, conflict_density=0.8, seed=2
            ),
            config=EngineConfig(executor_capacity=3),
        )
        _, trace = run(w)
        events = [line.split()[1:4] for line in trace]
        aborted = events.index(["abort", "C2", "base=C1"])
        assert ["start", "C2", "base=C1"] in events[aborted + 1 :]

    def test_a_decision_aborts_its_runs_in_start_order(self):
        # C3's build on C1 starts when C3 arrives and displaces C2's; C2's
        # build on C1 starts only once C0 lands. C1's rejection aborts
        # both, C3's first, though key_order puts C2's first.
        w = generate_workload(
            GeneratorParams(
                n_changes=5, arrival_rate=1.5, conflict_density=0.8, seed=259
            ),
            config=EngineConfig(executor_capacity=3),
        )
        _, trace = run(w)
        events = [line.split()[1:4] for line in trace]
        rejected = next(i for i, e in enumerate(events) if e[:2] == ["reject", "C1"])
        assert events[rejected - 3 : rejected] == [
            ["finish", "C1", "base="],
            ["abort", "C3", "base=C1"],
            ["abort", "C2", "base=C1"],
        ]
        started = [e for e in events[:rejected] if e[0] == "start"]
        assert started.index(["start", "C3", "base=C1"]) < started.index(
            ["start", "C2", "base=C1"]
        )


class TestCarriedRuns:
    """C1 conflicts with C0 and runs longer, so C0's landing at t=10
    carries C1's build on base=C0 to the mainline while it runs."""

    def c1_builds(self, delta):
        w = workload(
            (spec(0, "C0", 0.0, {"a"}, 10.0), spec(1, "C1", 0.0, {"a"}, 20.0)),
            config=EngineConfig(speculation_threshold=delta),
        )
        report, trace = run(w)
        return report, [line for line in trace if " C1 base=" in line]

    def test_a_carried_run_finishes_under_its_new_base(self):
        report, c1 = self.c1_builds(0.3)
        assert c1 == [
            "t=0.00 start C1 base=C0 p=0.9000 mandatory=no eta=20.00",
            "t=20.00 finish C1 base= outcome=pass elapsed=20.00",
        ]
        assert (report.builds_started, report.abort_count) == (2, 0)

    def test_a_carried_run_takes_the_key_of_a_run_it_outlives(self):
        # Both C1 builds run. C0's landing aborts the one on the mainline,
        # and the carried run, now under that same key, finishes at t=20.
        report, c1 = self.c1_builds(0.0)
        assert c1 == [
            "t=0.00 start C1 base=C0 p=0.9000 mandatory=no eta=20.00",
            "t=0.00 start C1 base= p=0.1000 mandatory=no eta=20.00",
            "t=10.00 abort C1 base= elapsed=10.00",
            "t=20.00 finish C1 base= outcome=pass elapsed=20.00",
        ]
        assert report.abort_count == 1
        assert report.executor_minutes == 40.0


class TestDeterminism:
    def test_same_workload_gives_identical_trace_and_report(self):
        w = generate_workload(GeneratorParams(n_changes=100, seed=21))
        first = run(w)
        second = run(w)
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert reports_to_csv([first[0]]) == reports_to_csv([second[0]])

    def test_targets_given_with_repeats_and_out_of_order_run_alike(self):
        # a change's target count feeds the predictor's features, so the
        # noisy oracle's draws would move if a repeat were counted
        w = replace(
            generate_workload(GeneratorParams(n_changes=60, seed=21)),
            predictor=OracleWithNoise(relative_spread=0.5, seed=4),
        )
        for given in (frozenset, lambda t: [*reversed(t), *t]):
            twin = replace(
                w, changes=tuple(replace(s, targets=given(s.targets)) for s in w.changes)
            )
            assert twin == w
            assert run(twin) == run(w)


# a change label the file format writes back as one list item, often not ASCII
LABELS = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"),
                  blacklist_characters=","),
    min_size=1,
    max_size=6,
).filter(lambda t: t.split() == [t])


@st.composite
def truths_and_draws(draw):
    """A workload of up to 7 changes and a sequence of (change, base) draws
    on it, repeats and interleavings included; a base holds 0-6 of the
    other changes."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=7, unique=True))
    changes = tuple(
        ChangeSpec(
            id=ChangeId(i, label),
            arrival_time=0.0,
            targets=frozenset({f"t{i}"}),
            true_mean=draw(st.floats(1e-3, 1e4)),
            true_variance=draw(st.one_of(st.just(0.0), st.floats(0.0, 1e4))),
        )
        for i, label in enumerate(labels)
    )
    w = WorkloadSpec(changes=changes, seed=draw(st.integers(-(2**70), 2**70)))
    ids = [s.id for s in changes]
    picks = st.tuples(st.sampled_from(ids), st.sets(st.sampled_from(ids))).map(
        lambda pick: (pick[0], tuple(sorted(pick[1] - {pick[0]})))
    )
    draws = draw(st.lists(picks, min_size=1, max_size=8))
    return w, draws + draw(st.permutations(draws))


class TestGroundTruthDraws:
    @settings(max_examples=200, deadline=None)
    @given(truths_and_draws())
    def test_draws_equal_a_fresh_generator_per_draw(self, case):
        w, draws = case
        truth = GroundTruth(w)
        for change, base in draws:
            assert truth.duration(change, base) == reference_duration(
                w.seed, w.changes[change], base
            )


class TestAccounting:
    def test_every_change_decided_once_and_trace_matches_counters(self):
        w = generate_workload(
            GeneratorParams(n_changes=150, conflict_density=0.4, seed=22)
        )
        for report, trace in (run(w), run(w, "baseline")):
            assert report.changes_decided == 150
            assert len(report.waits) == 150
            assert len({r.change for r in report.waits}) == 150
            assert sum(1 for s in trace if " start " in s) == report.builds_started
            assert sum(1 for s in trace if " abort " in s) == report.abort_count
            by_label = {s.id.label: s for s in w.changes}
            for rec in report.waits:
                assert rec.decided_at >= by_label[rec.change].arrival_time


DELTA_TAU_CORNERS = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


# by (strategy, knob set to 1), in DELTA_TAU_CORNERS order
EDGE_DIGESTS = {
    ("baseline", "executor_capacity"): ["5b5929aa8ec1ad7b84b64499c8118e1f"] * 4,
    ("baseline", "depth_cap"): ["cabbd6016fcf5fc349c5cf0d63e7554f"] * 4,
    ("enhanced", "executor_capacity"): ["1b94cba47491e5094556ec8314fb1721"] * 4,
    ("enhanced", "depth_cap"): [
        "551272f8361004841555ca0a3c6d8a65",
        "0aa4b0fdc34f9cd010d2fc2f96c328e6",
        "7231cace5f5aa9434504bc911beace57",
        "7231cace5f5aa9434504bc911beace57",
    ],
}


def edge(knob, delta, tau):
    """Capacity 1 or depth_cap 1, with delta and tau at the given corner."""
    return EngineConfig(
        speculation_threshold=delta, bypass_eligibility_threshold=tau, **{knob: 1}
    )


def wide_params(seed):
    """The criterion-5 stream at 60 changes, at its own seeds; run on
    capacity 72."""
    return replace(GENERATORS["criterion-5"], n_changes=60, seed=seed)


@st.composite
def dense_runs(draw):
    """A small dense workload at an edge-heavy configuration, and a
    strategy. In half of them each linked long change takes a second
    link, which can bridge conflict groups as in BRIDGED."""
    cfg = EngineConfig(
        speculation_threshold=draw(st.sampled_from((0.0, 0.3, 1.0))),
        bypass_eligibility_threshold=draw(st.sampled_from((0.0, 0.5, 1.0))),
        executor_capacity=draw(st.sampled_from((1, 3, 8))),
        depth_cap=draw(st.sampled_from((1, 2, 6))),
    )
    # a bridge shows in a start's label only once a few changes queue, so
    # bridged workloads draw 12-14 changes
    long_second_link = draw(st.sampled_from((0.0, 1.0)))
    params = GeneratorParams(
        n_changes=draw(st.integers(12 if long_second_link else 2, 14)),
        arrival_rate=1.5,
        conflict_density=0.8,
        long_second_link=long_second_link,
        seed=draw(st.integers(0, 10_000)),
    )
    return generate_workload(params, config=cfg), draw(st.sampled_from(STRATEGIES))


WIDE = EngineConfig(executor_capacity=72)
# Long changes that touch a second target bridge conflict groups, so a
# change with no conflicting predecessor queued can still have its
# component's head ahead of it.
BRIDGED = replace(
    GENERATORS["bridged"], n_changes=120, arrival_rate=1.5, conflict_density=0.8
)


def drawn(recipe, *args, predictor=None):
    """The workload `recipe(*args)` draws, whatever the strategy, under
    `predictor` if one is given."""

    def build(strategy):
        w = recipe(*args)
        return w if predictor is None else replace(w, predictor=predictor)

    return build


def noisy(seed):
    """An oracle off by 10% on average, with a 50% relative spread."""
    return OracleWithNoise(relative_bias=0.1, relative_spread=0.5, seed=seed)


def sized(recipe, seed, **n_changes):
    """`recipe`'s stream at `seed` with `n_changes[strategy]` changes."""
    return lambda strategy: recipe(seed, n_changes[strategy])


# Point-mass builds whose finishes fall on arrival minutes: at 5, 10, 20
# and 30 an arrival ties a finish, at 0, 10 and 20 arrivals tie each
# other, and C2 fails alone and C1 breaks C4, so both strategies abort
# builds, some at the minute they would have finished.
TIES = workload(
    (
        spec(0, "C0", 0.0, {"a"}, 10.0, prior=0.5),
        spec(1, "C1", 0.0, {"a", "b"}, 10.0),
        spec(2, "C2", 0.0, {"b"}, 5.0, passes=False, prior=0.5),
        spec(3, "C3", 5.0, {"b"}, 5.0),
        replace(
            spec(4, "C4", 10.0, {"a"}, 10.0, prior=0.5), breakers=(ChangeId(1, "C1"),)
        ),
        spec(5, "C5", 10.0, {"c"}, 10.0),
        spec(6, "C6", 15.0, {"a", "c"}, 5.0),
        spec(7, "C7", 20.0, {"a"}, 10.0, prior=0.5),
        spec(8, "C8", 20.0, {"b"}, 10.0),
        spec(9, "C9", 30.0, {"a", "b"}, 10.0),
    ),
    config=EngineConfig(executor_capacity=6),
)


# Each builds its workload for a strategy. dense_runs draws at most 14
# changes and capacities of at most 8, and no generated stream caps a window.
CHECKED_STREAMS = {
    # criterion-5 streams on 72 executors have long chosen prefixes, where
    # one event can start or abort many builds
    **{f"wide-{s}": drawn(generate_workload, wide_params(s), WIDE) for s in range(5)},
    # the first stream of the contended benchmark's batch, where decisions
    # cascade and carry many builds
    "contended-1000": drawn(generate_workload, *benchmark_stream("contended")),
    **{
        f"bridged-{s}": drawn(
            generate_workload, replace(BRIDGED, seed=s), EngineConfig()
        )
        for s in range(3)
    },
    # tools/trajectory.py's `dense` stream, where most scored builds fall
    # below the speculation threshold
    "dense-3": drawn(trajectory.dense, 3, 70),
    # every build's estimate its own inexact float, so pooling sums them
    "dense-3-noisy": drawn(trajectory.dense, 3, 70, predictor=noisy(3)),
    # every estimate a point mass, so completion compares finish times
    "dense-3-point-mass": drawn(
        trajectory.dense, 3, 70, predictor=ConstantPredictor(25.0, 0.0)
    ),
    # tools/trajectory.py's `hot` streams, where windows are capped, so
    # carry maps drop a successor's nodes when a change outside its window
    # lands: hot-1 caps 34 enhanced starts and 161 baseline ones, and only
    # hot-9's enhanced run blocks a bypass (one decision) because
    # predecessors fell outside a window
    "hot-1": sized(trajectory.hot, 1, enhanced=100, baseline=60),
    "hot-6": sized(trajectory.hot, 6, enhanced=60, baseline=50),
    "hot-9": sized(trajectory.hot, 9, enhanced=80, baseline=50),
    # arrivals and finishes at the same minute, taken arrivals first
    "ties": lambda strategy: TIES,
}


def uncapped_decide_change(c, forest, *, allow_bypass=True):
    """`decide_change` without its capped-window block, so it bypasses
    conflicting predecessors that fell outside c's window."""
    window = forest.windows[c]
    nodes = iter(forest.nodes_for_change(c))
    outcome = next(nodes).outcome
    if outcome is None or (window and not allow_bypass):
        return Decision(DecisionKind.WAIT, c)
    for node in nodes:
        if node.outcome is not outcome:
            return Decision(DecisionKind.WAIT, c)
    if outcome is BuildOutcome.PASS:
        return Decision(DecisionKind.LAND, c)
    return Decision(DecisionKind.REJECT, c)


def checked_run(w, strategy):
    """A run that checks the engine's kept state after every event; it
    must equal the plain run."""
    sim = CheckedSimulation(w, strategy)
    assert sim.execute() == run(w, strategy)
    return sim


def run_digest(w, strategy):
    report, trace = run(w, strategy)
    text = reports_to_csv([report]) + "\n".join(trace) + "\n"
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


class TestEventDecisions:
    @settings(max_examples=100, deadline=None)
    @given(dense_runs())
    def test_kept_ranking_equals_a_fresh_one(self, case):
        checked_run(*case)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("stream", CHECKED_STREAMS)
    def test_kept_state_holds_on_a_stream(self, stream, strategy):
        sim = checked_run(CHECKED_STREAMS[stream](strategy), strategy)
        if stream.startswith("bridged"):
            assert sim.labels == {"yes", "no"}
        if stream.startswith("hot"):
            assert sim.capped > 0

    # capacity 1 runs only the queue head's mainline build, and depth_cap 1
    # caps a window at one predecessor; each at the four (delta, tau) corners
    @pytest.mark.parametrize("delta, tau", DELTA_TAU_CORNERS)
    @pytest.mark.parametrize("knob", ["executor_capacity", "depth_cap"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("stream", ["dense-3", "hot-6"])
    def test_kept_state_holds_at_an_edge_configuration(
        self, stream, strategy, knob, delta, tau
    ):
        w = CHECKED_STREAMS[stream](strategy)
        sim = checked_run(replace(w, config=edge(knob, delta, tau)), strategy)
        if knob == "depth_cap":
            assert sim.capped > 0

    def test_a_decision_past_a_capped_window_is_caught(self, monkeypatch):
        # hot-9's enhanced run is the checked one where a window's cap
        # blocks a bypass, so an engine that ignores the cap decides a
        # change the reference rule leaves waiting
        monkeypatch.setattr(engine, "decide_change", uncapped_decide_change)
        sim = CheckedSimulation(CHECKED_STREAMS["hot-9"]("enhanced"), "enhanced")
        with pytest.raises(AssertionError) as raised:
            sim.execute()
        assert raised.traceback[-1].name == "_apply"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_the_scheduler_learns_each_change_as_it_arrives(self, strategy):
        # as a change arrives the scheduler holds one entry per earlier
        # change, and its forest the targets of the queued ones alone
        w = CHECKED_STREAMS["hot-1"](strategy)
        sim = _Simulation(w, strategy)
        scheduler = sim.scheduler
        arrive = scheduler.arrive

        def checked(c, *known):
            held = scheduler.arrivals, scheduler.priors, scheduler.durations
            assert [len(entries) for entries in held] == [c] * 3, c
            assert scheduler.forest.targets.keys() == scheduler.forest.windows.keys()
            return arrive(c, *known)

        scheduler.arrive = checked
        sim.execute()
        assert scheduler.arrivals == [s.arrival_time for s in w.changes]
        assert scheduler.priors == [s.success_prior for s in w.changes]
        assert scheduler.durations == list(sim.truth.durations)
        assert scheduler.forest.targets == {}

    # The first three were recorded with the fixed-point sweep that the
    # event rule replaced, the edge configurations with the forest that
    # copied itself on every decision: any change in the order decisions
    # are taken, or in which builds a decision carries, moves a digest.
    @pytest.mark.parametrize(
        "strategy, config, expected",
        [
            ("baseline", EngineConfig(), "6bce4a4d4d981a8ba9b87665aa08c3c2"),
            ("enhanced", EngineConfig(), "0807879965eecb8f7b1f06e626893780"),
            ("enhanced", EngineConfig(depth_cap=1), "5827267651b4546b9d5ae90dc178af59"),
            *(
                (strategy, edge(knob, delta, tau), expected)
                for (strategy, knob), digests in EDGE_DIGESTS.items()
                for (delta, tau), expected in zip(DELTA_TAU_CORNERS, digests)
            ),
        ],
    )
    def test_golden_digest_pins_decision_order(self, strategy, config, expected):
        params = GeneratorParams(
            n_changes=20, arrival_rate=1.5, conflict_density=0.8, seed=0
        )
        w = generate_workload(params, config=config)
        assert run_digest(w, strategy) == expected

    # Recorded before build nodes were updated in place: on 72 executors
    # decisions carry many running builds to rewritten bases, and enhanced
    # runs bypass, so a carried node that drifted from its key moves these.
    @pytest.mark.parametrize(
        "strategy, seed, expected",
        [
            ("baseline", 0, "f63f74639d8c579556b69779c112f992"),
            ("enhanced", 0, "c1dfe4e6867810455f1113b83d8d1872"),
            ("baseline", 1, "e00dad5a0a72cdf84cefb41b5a99b15c"),
            ("enhanced", 1, "fc69345306e8f7a7750aefc83cad7380"),
        ],
    )
    def test_golden_digest_pins_a_wide_stream(self, strategy, seed, expected):
        w = generate_workload(wide_params(seed), config=WIDE)
        assert run_digest(w, strategy) == expected

    # Recorded before a change's builds were pooled in one left-to-right
    # pass: a noisy predictor gives each build its own estimate, so the
    # pooled means and variances are sums of inexact floats, which the
    # builtin `sum` may round otherwise from Python 3.12 on.
    @pytest.mark.parametrize(
        "strategy, seed, expected",
        [
            ("baseline", 0, "1914b8b0db87b267ae3f12b243927752"),
            ("enhanced", 0, "81fb9256f40477643c9a552a78ea498b"),
            ("baseline", 1, "2157ccf882803e9698c795747f533090"),
            ("enhanced", 1, "76be27a5e8db96d45e7f0c40db951fe2"),
        ],
    )
    def test_golden_digest_pins_a_wide_stream_under_a_noisy_predictor(
        self, strategy, seed, expected
    ):
        w = generate_workload(wide_params(seed), config=WIDE)
        w = replace(w, predictor=noisy(seed))
        assert run_digest(w, strategy) == expected

    # Recorded before the forest took each change's targets in place of a
    # conflict graph. Each node is estimated at the first reschedule after
    # it is filed, from that moment's window length and base height; with
    # noise, estimating a node when a decision re-windows its change
    # instead moves four of these six.
    @pytest.mark.parametrize(
        "strategy, seed, expected",
        [
            ("baseline", 1, "1ef16be0a1a16d6911ac183e0203eda4"),
            ("enhanced", 1, "60e1005dca4984c3f891742a84841cce"),
            ("baseline", 6, "77e192ac7d840abe9b2f46e632c33dce"),
            ("enhanced", 6, "1fdae87312426a4601c8e60d55e457a3"),
            ("baseline", 9, "b1e69f8a52deac20c07a8fa6484bd60a"),
            ("enhanced", 9, "7529c26cac167faaf3fdf8c8755d51a8"),
        ],
    )
    def test_golden_digest_pins_a_hot_stream_under_a_noisy_predictor(
        self, strategy, seed, expected
    ):
        w = CHECKED_STREAMS[f"hot-{seed}"](strategy)
        assert run_digest(replace(w, predictor=noisy(seed)), strategy) == expected

    # Recorded before the speculation threshold was applied where builds
    # are scored: 87% of this stream's enhanced scores fall below it.
    @pytest.mark.parametrize(
        "strategy, expected",
        [
            ("enhanced", "c79c8f84612c90bfe157b2f0734aaeca"),
            ("baseline", "ece6983ea3d7b65b19af5af3e237bd3e"),
        ],
    )
    def test_golden_digest_pins_a_dense_stream(self, strategy, expected):
        w = trajectory.dense(3, 300)
        assert run_digest(w, strategy) == expected

    # Recorded while arrivals still went through the event heap, ahead of
    # completions at their minute by a kind tag.
    @pytest.mark.parametrize(
        "strategy, expected",
        [
            ("enhanced", "0afb90eebd7bc03586da06e71ddf8ced"),
            ("baseline", "448d214927c571ff7b457173485dcf16"),
        ],
    )
    def test_golden_digest_pins_the_tied_stream(self, strategy, expected):
        assert run_digest(TIES, strategy) == expected


class TestHeadRule:
    """A change with an empty window waits on nobody, so the engine ranks
    its one build at exactly 1 under either strategy, without profiling or
    scoring it, and a reschedule after an event that moved nothing
    rescores nothing."""

    @pytest.mark.parametrize("delta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_head_keeps_its_one_build_at_1(self, strategy, delta):
        check_a_head_keeps_its_build_at_1(strategy, delta)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_head_without_an_estimate_raises_from_a_reschedule(self, strategy):
        check_a_head_without_an_estimate_raises(strategy)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_changes_that_share_no_target_are_never_scored(self, strategy, monkeypatch):
        # every change is a head, and a finish lands its change, moving
        # nothing: only arrivals estimate, and nothing is profiled or scored
        w = generate_workload(
            GeneratorParams(n_changes=40, conflict_density=0.0, seed=1)
        )
        calls = Counter()

        def counted(name, function):
            def call(*args):
                calls[name] += 1
                return function(*args)

            return call

        for name in ("profile_change", "outcome_partition", "rank_builds"):
            monkeypatch.setattr(engine, name, counted(name, getattr(engine, name)))
        sim = _Simulation(w, strategy)
        sim.scheduler._annotate = counted("annotate", sim.scheduler._annotate)
        assert sim.execute() == run(w, strategy)
        assert calls == {"annotate": len(w.changes)}


# Four changes on one target at depth_cap 1, so each window is its
# change's one nearest predecessor. C0 breaks C1, so C1's build on C0
# fails at 6 while its empty-base build passes: C1 waits on C0 until 60.
# From 6 to 60, C1 is queued with its empty-base build finished, and C1
# is outside C3's window (C2,). A score that reads predecessors outside
# its window must be redone for C3 at 6.
OUTSIDE_FINISH = WorkloadSpec(
    changes=(
        spec(0, "C0", 0.0, {"a"}, 60.0, prior=0.5),
        replace(spec(1, "C1", 1.0, {"a"}, 5.0), breakers=(ChangeId(0, "C0"),)),
        spec(2, "C2", 2.0, {"a"}, 30.0),
        spec(3, "C3", 3.0, {"a"}, 30.0),
    ),
    predictor=OracleWithNoise(),
    config=EngineConfig(depth_cap=1),
)


class TestOutsideWindowFinish:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_an_outside_predecessor_finishes_its_empty_base_build_while_queued(
        self, strategy
    ):
        sim = checked_run(OUTSIDE_FINISH, strategy)
        assert sim.capped > 0
        _, trace = run(OUTSIDE_FINISH, strategy)
        events = [line.split()[:4] for line in trace]
        finished = events.index(["t=6.00", "finish", "C1", "base="])
        assert events.index(["t=60.00", "reject", "C1", "via_bypass=no"]) > finished
        assert ["t=3.00", "arrive", "C3", "pending_conflicts=3"] in events[:finished]
        assert events.index(["t=90.00", "land", "C2", "via_bypass=no"]) > finished

    @pytest.mark.parametrize(
        "strategy, expected",
        [
            ("enhanced", "ffa145d07372e4942a8490753e8ad92f"),
            ("baseline", "de1bc6ac43f0822c398d8fede1b6d6cd"),
        ],
    )
    def test_golden_digest_pins_it(self, strategy, expected):
        assert run_digest(OUTSIDE_FINISH, strategy) == expected


# C2's build on C0 starts at 1 and its mainline build at 5, once C1 frees
# an executor; C0 lands at 10 and aborts the mainline build, and C2 lands
# at 21, so the aborted build's completion at 25 is the run's last event.
LATE_STALE = workload(
    (
        spec(0, "C0", 0.0, {"a"}, 10.0, prior=0.6),
        spec(1, "C1", 0.0, {"b"}, 5.0),
        spec(2, "C2", 1.0, {"a"}, 20.0),
    ),
    config=EngineConfig(executor_capacity=3),
)


class TestEventOrder:
    def test_an_arrival_comes_before_a_finish_at_its_minute(self):
        check_an_arrival_comes_before_a_finish_at_its_minute()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("w", [LATE_STALE, TIES], ids=["late-stale", "ties"])
    def test_a_stale_completion_does_nothing(self, w, strategy):
        sim = _Simulation(w, strategy)
        reschedules = []
        reschedule = sim._reschedule
        sim._reschedule = lambda: reschedules.append(reschedule())
        report, trace = sim.execute()
        assert report.abort_count > 0
        events = [line for line in trace if line.split()[1] in ("arrive", "finish")]
        assert len(reschedules) == len(events)
        assert sim.now == float(trace[-1].split()[0].removeprefix("t="))


class TestCompare:
    def test_threshold_zero_starts_at_least_as_many_builds(self):
        w = generate_workload(
            GeneratorParams(n_changes=200, conflict_density=0.4, seed=14)
        )
        rows = [
            run(replace(w, config=EngineConfig(speculation_threshold=delta)))[0]
            for delta in (0.0, 0.3, 0.7)
        ]
        assert rows[0].builds_started >= rows[1].builds_started >= rows[2].builds_started


class TestUnknownStrategy:
    def test_run_refuses_an_unknown_strategy(self):
        w = WorkloadSpec(changes=(spec(0, "C0", 0.0, {"a"}, 10.0),))
        with pytest.raises(ValueError, match="^unknown strategy 'greedy'$"):
            run(w, "greedy")


class UndecidingScheduler(Scheduler):
    """A scheduler that completes each finished build and applies no
    decision, so every change stays queued."""

    def finish(self, node, outcome, now):
        node.complete(outcome, now)
        self.moved.add(node.change)
        return []


class TestDrainCheck:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_run_that_drains_with_changes_undecided_raises(self, strategy):
        w = generate_workload(GeneratorParams(seed=3, n_changes=5))
        sim = _Simulation(w, strategy)
        sim.scheduler = UndecidingScheduler(strategy, w.config, w.predictor)
        with pytest.raises(
            RuntimeError, match="^simulation drained with 5 undecided changes$"
        ):
            sim.execute()


def overflowing(second_arrival):
    """Two changes on separate targets, each with a true mean of 1e308."""
    return workload(
        tuple(
            replace(spec(seq, f"C{seq}", at, {t}, 1e308), true_variance=1.0)
            for seq, at, t in ((0, 0.0, "a"), (1, second_arrival, "b"))
        )
    )


class TestOverflowingTimes:
    # each build ends at a finite time, but the two together run 2e308
    # executor minutes; a build that starts at 1e308 ends past the largest
    # float, where its wait would read inf and its post-build wait nan
    @pytest.mark.parametrize(
        "second_arrival, message",
        [
            (0.0, "^the run's executor minutes overflow"),
            (1e308, "^C1's build started at 1e\\+308 takes .* past the largest float$"),
        ],
        ids=["executor-minutes", "finish-time"],
    )
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_run_raises_and_the_cli_exits_2(
        self, second_arrival, message, strategy, tmp_path, capsys
    ):
        w = overflowing(second_arrival)
        with pytest.raises(WorkloadError, match=message):
            run(w, strategy)
        path = tmp_path / "w.txt"
        path.write_text(format_workload(w), encoding="utf-8")
        assert main(["simulate", "--workload", str(path), "--strategy", strategy]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    # at 9.3e289, an arrival plus a build's 4 minutes rounds back to the
    # arrival, so the build would finish as it starts and its wait read 0;
    # the generator refuses such a stream, so the file is written by hand
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_duration_lost_to_rounding_raises_and_the_cli_exits_2(
        self, strategy, tmp_path, capsys
    ):
        path = tmp_path / "w.txt"
        w = workload(
            (
                spec(0, "C0", 0.0, {"a"}, 5.0),
                spec(1, "C1", 9.261391653744257e289, {"b"}, 4.17),
            )
        )
        path.write_text(format_workload(w), encoding="utf-8")
        message = (
            "^C1's build started at 9.261391653744257e\\+289 takes 4.17 minutes, "
            "which a finish time that late cannot resolve$"
        )
        with pytest.raises(WorkloadError, match=message):
            run(w, strategy)
        capsys.readouterr()
        assert main(["simulate", "--workload", str(path), "--strategy", strategy]) == 2
        assert capsys.readouterr().err.startswith("error: C1's build started at ")


class TestNearestRank:
    def test_hand_cases(self):
        assert nearest_rank([4.0, 1.0, 3.0, 2.0], 50) == 2.0
        assert nearest_rank([4.0, 1.0, 3.0, 2.0], 95) == 4.0
        assert nearest_rank([7.0], 95) == 7.0
        assert nearest_rank([1.0, 2.0], 100) == 2.0

    def test_rejects_empty_and_bad_percentile(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0)


class TestCsvExport:
    def test_shape(self):
        w = generate_workload(GeneratorParams(n_changes=50, seed=2))
        text = reports_to_csv([run(w)[0], run(w, "baseline")[0]])
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert text.endswith("\n")
        for line in lines[1:]:
            assert len(line.split(",")) == len(CSV_HEADER.split(","))

    def test_ratio_guard_without_decisions(self):
        empty = MetricsReport(
            strategy="enhanced",
            builds_started=0,
            changes_decided=0,
            executor_minutes=0.0,
            bypass_count=0,
            abort_count=0,
            waited_on_conflicts=0,
            conflict_rate=0.0,
            waits=(),
        )
        assert empty.builds_to_changes_ratio == 0.0
        assert empty.bypass_trigger_rate == 0.0
