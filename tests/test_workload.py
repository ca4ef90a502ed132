"""Tests for workload specs, the generator, and the file format."""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specqueue.simulator.workload as workload
from specqueue.core import ChangeId, EngineConfig
from specqueue.prediction import ConstantPredictor, OracleWithNoise
from specqueue.simulator import run
from specqueue.simulator.workload import (
    STRATEGIES,
    ChangeSpec,
    GeneratorParams,
    WorkloadError,
    WorkloadSpec,
    _calibrated_rows,
    _generate_changes,
    format_workload,
    generate_workload,
    parse_workload,
    static_conflict_rate,
)

from oracles import (
    benchmark_stream,
    reference_adjacency,
    reference_calibrated_rows,
    reference_generate_changes,
    reference_is_list_item,
    reference_link_probability,
)


C0, C2, C3 = ChangeId(0, "C0"), ChangeId(2, "C2"), ChangeId(3, "C3")


def spec(seq, label, at, targets, **kw):
    return ChangeSpec(
        id=ChangeId(seq, label),
        arrival_time=at,
        targets=frozenset(targets),
        true_mean=kw.pop("mu", 10.0),
        true_variance=kw.pop("var", 4.0),
        **kw,
    )


# str.split()'s whitespace beyond the space, then a zero-width space, which
# it keeps, and a comma
EXOTIC = (
    "\t\n\v\f\r\x1c\x1d\x1e\x1f\x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000\u200b,"
)


def assert_list_item_rule_matches_reference(text):
    """ChangeSpec takes text as a label, and as a target, exactly when the
    old rule does, and what it takes reads back from the file format."""
    for label, targets in ((text, {"a"}), ("C0", {"a", text})):
        try:
            s = spec(0, label, 0.0, targets)
        except WorkloadError:
            assert not reference_is_list_item(text)
            continue
        assert reference_is_list_item(text)
        (back,) = parse_workload(format_workload(WorkloadSpec((s,)))).changes
        assert (back.id.label, back) == (label, s)


class TestChangeSpec:
    def test_rejects_negative_arrival(self):
        with pytest.raises(WorkloadError):
            spec(0, "C0", -1.0, {"a"})

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(WorkloadError):
            spec(0, "C0", 0.0, {"a"}, mu=0.0)

    def test_rejects_negative_variance(self):
        with pytest.raises(WorkloadError):
            spec(0, "C0", 0.0, {"a"}, var=-1.0)

    def test_rejects_prior_outside_unit_interval(self):
        with pytest.raises(WorkloadError):
            spec(0, "C0", 0.0, {"a"}, success_prior=1.5)

    @pytest.mark.parametrize(
        "at, kw",
        [
            (math.nan, {}),
            (math.inf, {}),
            (0.0, {"mu": math.nan}),
            (0.0, {"mu": math.inf}),
            (0.0, {"var": math.nan}),
            (0.0, {"var": math.inf}),
        ],
    )
    def test_rejects_non_finite_numbers(self, at, kw):
        with pytest.raises(WorkloadError, match="must be finite"):
            spec(0, "C0", at, {"a"}, **kw)

    @pytest.mark.parametrize("label", ["", "a,b", "a b", "a\tb"])
    def test_rejects_labels_the_file_format_splits(self, label):
        with pytest.raises(WorkloadError, match="no comma or whitespace"):
            spec(0, label, 0.0, {"a"})

    @pytest.mark.parametrize("target", ["", "lib,net", "a b"])
    def test_rejects_targets_the_file_format_splits(self, target):
        with pytest.raises(WorkloadError, match="C0: target .* no comma or whitespace"):
            spec(0, "C0", 0.0, {"a", target})

    @pytest.mark.parametrize("ch", list(EXOTIC))
    def test_list_item_rule_matches_the_old_one_on(self, ch):
        assert_list_item_rule_matches_reference(f"a{ch}b")

    @given(st.text())
    def test_list_item_rule_matches_the_old_one(self, text):
        assert_list_item_rule_matches_reference(text)

    def test_init_takes_the_fields_in_order_with_their_defaults(self):
        # the parser and the generator pass fields by position, so __init__
        # must take every field, in order, with its default
        params = list(inspect.signature(ChangeSpec.__init__).parameters.values())
        assert params[0].name == "self"
        # a default's repr tells True from 1 and 1.0 from 1
        assert [(p.name, p.kind, repr(p.default)) for p in params[1:]] == [
            (
                f.name,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                repr(
                    inspect.Parameter.empty
                    if f.default is dataclasses.MISSING
                    else f.default
                ),
            )
            for f in dataclasses.fields(ChangeSpec)
        ]
        default = {f.name: f.default for f in dataclasses.fields(ChangeSpec)}
        assert spec(0, "C0", 0.0, {"a"}).breakers is default["breakers"]

    @pytest.mark.parametrize(
        "targets, breakers",
        [
            (frozenset({"b", "a"}), frozenset({C2, C0})),
            ({"b", "a"}, {C2, C0}),
            (["b", "a", "b"], [C2, C0, C2]),
            (("b", "a"), (C2, C0)),
            (("a", "b"), (C0, C2)),
        ],
        ids=["frozenset", "set", "list", "unsorted-tuple", "sorted-tuple"],
    )
    def test_targets_and_breakers_are_sorted_distinct_tuples(self, targets, breakers):
        s = ChangeSpec(C3, 0.0, targets, 10.0, 4.0, breakers=breakers)
        assert (s.targets, s.breakers) == (("a", "b"), (C0, C2))
        assert type(s.targets) is type(s.breakers) is tuple
        # a distinct count, as a frozenset's was: PredictionFeatures reads it
        assert len(s.targets) == 2
        other = ChangeSpec(C3, 0.0, ("c",), 10.0, 4.0)
        assert dataclasses.replace(other, targets=targets, breakers=breakers) == s

    @pytest.mark.parametrize(
        "field, value", [("targets", "t12"), ("targets", b"a"), ("breakers", "C0")]
    )
    def test_rejects_a_text_for_a_collection(self, field, value):
        # a text iterates as its characters, which would read as one
        # target or breaker each
        with pytest.raises(WorkloadError, match=f"^C0: {field} must not be a text: "):
            change_with(**{field: value})

    def test_a_sorted_tuple_is_kept_as_given(self):
        targets, breakers = ("a", "b"), (C0, C2)
        s = ChangeSpec(C3, 0.0, targets, 10.0, 4.0, breakers=breakers)
        assert s.targets is targets and s.breakers is breakers

    def test_stays_frozen_and_replace_checks_the_new_record(self):
        s = spec(0, "C0", 0.0, {"a"})
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.arrival_time = 1.0
        moved = dataclasses.replace(s, arrival_time=2.5, success_prior=0.5)
        assert (moved.arrival_time, moved.success_prior) == (2.5, 0.5)
        assert moved == spec(0, "C0", 2.5, {"a"}, success_prior=0.5)
        with pytest.raises(WorkloadError) as info:
            dataclasses.replace(s, true_mean=0.0)
        assert str(info.value) == "C0: true_mean must be finite and > 0"


class TestWorkloadSpec:
    def test_rejects_empty(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(changes=())

    def test_rejects_unknown_strategy(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(changes=(spec(0, "C0", 0.0, {"a"}),), strategy="greedy")

    def test_rejects_sequence_gap(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(changes=(spec(1, "C1", 0.0, {"a"}),))

    def test_rejects_decreasing_arrivals(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(
                changes=(spec(0, "C0", 5.0, {"a"}), spec(1, "C1", 4.0, {"b"}))
            )

    def test_rejects_breaker_referencing_later_change(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(
                changes=(
                    spec(0, "C0", 0.0, {"a"}, breakers=frozenset({ChangeId(1, "C1")})),
                    spec(1, "C1", 1.0, {"a"}),
                )
            )

    def test_rejects_duplicate_labels(self):
        # ids compare by seq, so two C0s at seqs 0 and 1 are distinct ids
        with pytest.raises(WorkloadError, match="duplicate change id C0"):
            WorkloadSpec(
                changes=(spec(0, "C0", 0.0, {"a"}), spec(1, "C0", 1.0, {"a"}))
            )

    @pytest.mark.parametrize("breaker", [ChangeId(0, "X"), ChangeId(-1, "C1")])
    def test_rejects_breaker_that_is_not_an_earlier_change(self, breaker):
        with pytest.raises(WorkloadError, match="breakers must be earlier changes"):
            WorkloadSpec(
                changes=(
                    spec(0, "C0", 0.0, {"a"}),
                    spec(1, "C1", 1.0, {"a"}, breakers=frozenset({breaker})),
                )
            )


    def test_rejects_breaker_that_shares_no_target(self):
        # the engine never orders C0 before C1, so C1 could land first
        with pytest.raises(WorkloadError, match="C1: breaker 'C0' shares no target"):
            WorkloadSpec(
                changes=(
                    spec(0, "C0", 0.0, {"a"}),
                    spec(1, "C1", 0.0, {"b"}, breakers=frozenset({ChangeId(0, "C0")})),
                )
            )


class TestGeneratorParams:
    @pytest.mark.parametrize(
        "kw",
        [
            {"n_changes": 0},
            {"arrival_rate": 0.0},
            {"conflict_density": 1.5},
            {"short_fraction": -0.1},
            {"fail_rate": 2.0},
            {"breaker_rate": -1.0},
            {"long_target_bias": 1.2},
            {"long_second_link": -0.2},
            {"conflict_density": -0.1},
            {"short_fraction": 1.5},
            {"fail_rate": -0.5},
            {"long_target_bias": -0.1},
            {"long_second_link": 1.1},
        ],
    )
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(WorkloadError):
            GeneratorParams(**kw)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_rejects_non_finite_arrival_rate(self, rate):
        with pytest.raises(WorkloadError, match="arrival_rate must be finite"):
            GeneratorParams(arrival_rate=rate)


class TestGenerator:
    def test_a_stream_that_arrives_too_late_to_simulate_raises(self):
        # past 2**46 minutes half an ulp of a time exceeds the 0.005 minute
        # a run keeps a duration to, so no stream may arrive past 2**45
        params = GeneratorParams(seed=3, n_changes=30, arrival_rate=1.0)
        at_one = generate_workload(params).changes[-1].arrival_time
        # the rate only divides the arrival draws, so it scales the stream
        fits = dataclasses.replace(params, arrival_rate=at_one / 2**45 * 1.001)
        assert 2**44 < generate_workload(fits).changes[-1].arrival_time < 2**45
        for rate in (at_one / 2**45 * 0.999, 1e-290):
            late = dataclasses.replace(params, arrival_rate=rate)
            message = f"^arrival_rate {rate!r} draws arrivals past 2\\*\\*45 minutes$"
            with pytest.raises(WorkloadError, match=message):
                generate_workload(late)
        # the bound is on the drawn stream: a lone change arrives at 0
        alone = dataclasses.replace(params, n_changes=1, arrival_rate=1e-290)
        assert generate_workload(alone).changes[0].arrival_time == 0.0

    def test_golden_digest_pins_rng_draw_order(self):
        # Recorded before the generator indexed its conflicting
        # predecessors; any change in the order of RNG draws moves it.
        text = format_workload(generate_workload(GeneratorParams(n_changes=300, seed=7)))
        digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()
        assert digest == "690c17aecaa3f8576ec60280f6674634"

    def test_golden_digest_pins_the_long_chain_path(self):
        # The criterion-5 stream: chain-forming links to long changes and
        # second links, which the default parameters never reach.
        params = GeneratorParams(
            n_changes=500,
            arrival_rate=0.45,
            conflict_density=0.3,
            short_fraction=0.25,
            fail_rate=0.1,
            breaker_rate=0.0,
            long_target_bias=1.0,
            long_second_link=1.0,
            seed=3,
        )
        w = generate_workload(params, config=EngineConfig(executor_capacity=72))
        text = format_workload(w)
        digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()
        assert digest == "15f02c76ef9c067360f177d0e8402582"

    def test_deterministic_per_seed(self):
        params = GeneratorParams(n_changes=120, seed=9)
        assert generate_workload(params) == generate_workload(params)

    def test_different_seeds_differ(self):
        a = generate_workload(GeneratorParams(n_changes=120, seed=1))
        b = generate_workload(GeneratorParams(n_changes=120, seed=2))
        assert a.changes != b.changes

    def test_single_change_has_no_conflicts(self):
        w = generate_workload(GeneratorParams(n_changes=1, seed=3))
        assert len(w.changes) == 1
        assert not w.changes[0].breakers

    def test_full_density_links_every_change(self):
        w = generate_workload(GeneratorParams(n_changes=50, conflict_density=1.0))
        assert static_conflict_rate(w) == 100.0

    def test_zero_density_yields_empty_conflict_graph(self):
        w = generate_workload(GeneratorParams(n_changes=200, conflict_density=0.0))
        adjacency = reference_adjacency({s.id: s.targets for s in w.changes})
        assert all(not adjacency[s.id] for s in w.changes)
        assert static_conflict_rate(w) == 0.0

    def test_density_calibration_at_reference_point(self):
        w = generate_workload(
            GeneratorParams(n_changes=500, conflict_density=0.3, seed=42)
        )
        assert 25.0 <= static_conflict_rate(w) <= 35.0

    @pytest.mark.parametrize("density", [0.1, 0.3, 0.6])
    def test_density_within_five_points_on_large_streams(self, density):
        for seed in (1, 2):
            w = generate_workload(
                GeneratorParams(n_changes=400, conflict_density=density, seed=seed)
            )
            assert abs(static_conflict_rate(w) - 100 * density) <= 5.0

    def test_calibration_holds_with_structural_knobs(self):
        # skewed linking must not drift the realized conflict rate
        params = GeneratorParams(
            n_changes=500,
            conflict_density=0.3,
            short_fraction=0.25,
            long_target_bias=1.0,
            long_second_link=1.0,
            seed=5,
        )
        assert abs(static_conflict_rate(generate_workload(params)) - 30.0) <= 5.0

    @pytest.mark.parametrize(
        "params",
        [
            GeneratorParams(n_changes=200),
            GeneratorParams(  # criterion 5: chain-forming and second links
                n_changes=200,
                arrival_rate=0.45,
                short_fraction=0.25,
                breaker_rate=0.0,
                long_target_bias=1.0,
                long_second_link=1.0,
            ),
            GeneratorParams(n_changes=200, long_second_link=1.0),
        ],
        ids=["default", "criterion-5", "bridged"],
    )
    def test_probe_share_is_the_conflict_graphs_share(self, params):
        # the probe counts a change as conflicted from its predecessors on
        # its targets; the conflict graph of the same rows must agree
        for seed in range(6):
            for p_link in (0.0, 0.2, 0.5, 1.0):
                rows, share, _, _ = _generate_changes(
                    dataclasses.replace(params, seed=seed), p_link
                )
                adjacency = reference_adjacency(dict(enumerate(row[1] for row in rows)))
                with_neighbours = sum(1 for i in range(len(rows)) if adjacency[i])
                assert share == with_neighbours / len(rows)

    def test_arrivals_nondecreasing_and_ids_sequential(self):
        w = generate_workload(GeneratorParams(n_changes=150, seed=4))
        arrivals = [s.arrival_time for s in w.changes]
        assert arrivals == sorted(arrivals)
        assert [s.id.seq for s in w.changes] == list(range(150))

    def test_breakers_only_among_conflicting_predecessors(self):
        w = generate_workload(
            GeneratorParams(n_changes=300, conflict_density=0.5, breaker_rate=0.8, seed=6)
        )
        adjacency = reference_adjacency({s.id: s.targets for s in w.changes})
        for s in w.changes:
            for b in s.breakers:
                assert b.seq < s.id.seq
                assert b in adjacency[s.id]

    def test_bimodal_durations(self):
        w = generate_workload(GeneratorParams(n_changes=300, seed=7))
        means = {s.true_mean for s in w.changes}
        assert means <= {5.0, 60.0}
        assert len(means) == 2

    def test_failing_changes_get_low_priors(self):
        w = generate_workload(GeneratorParams(n_changes=400, fail_rate=0.5, seed=8))
        for s in w.changes:
            if s.passes_alone:
                assert s.success_prior > 0.5
            else:
                assert s.success_prior < 0.5


GENERATORS = {
    "default": GeneratorParams(),
    "criterion-5": GeneratorParams(
        arrival_rate=0.45,
        short_fraction=0.25,
        breaker_rate=0.0,
        long_target_bias=1.0,
        long_second_link=1.0,
    ),
    "bridged": GeneratorParams(long_second_link=1.0),
    "failing": GeneratorParams(fail_rate=0.5, breaker_rate=0.8),
}


def named(rows):
    """Rows with their targets named as `generate_workload` names them."""
    return [(row[0], {f"t{t}" for t in row[1]}, *row[2:]) for row in rows]


# the benchmark's stream shapes, each test drawing its own seeds; at
# density 0.3 their bisection settles p_link near 0.13-0.18
BENCH_SHAPES = {
    name: benchmark_stream(name)[0] for name in ("steady", "overload", "contended")
}


def assert_same_stream(params, p_link):
    """The row loop against the reference loop in tests/oracles.py, and
    its row-free probe against both."""
    rows, *rest = _generate_changes(params, p_link)
    assert (named(rows), *rest) == reference_generate_changes(params, p_link)
    assert _generate_changes(params, p_link, probe=True) == (None, *rest)


def assert_same_calibration(params):
    """The bisection that reuses streams against the reference bisection
    in tests/oracles.py, which draws every probe."""
    assert named(_calibrated_rows(params)) == reference_calibrated_rows(params)


class TestRowLoop:
    """The row loop against the reference loop, on the named generators
    and the benchmark's stream shapes."""

    @settings(max_examples=300, deadline=None)
    @given(
        generator=st.sampled_from(sorted(GENERATORS)),
        n_changes=st.integers(1, 60),
        seed=st.integers(0, 2**32),
        p_link=st.floats(0.0, 1.0),
    )
    def test_small_streams_match(self, generator, n_changes, seed, p_link):
        params = dataclasses.replace(
            GENERATORS[generator], n_changes=n_changes, seed=seed
        )
        assert_same_stream(params, p_link)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32))
    @pytest.mark.parametrize("p_link", [0.1, 0.18, 0.5])
    @pytest.mark.parametrize("shape", BENCH_SHAPES)
    def test_bench_streams_match(self, shape, p_link, seed):
        params = dataclasses.replace(BENCH_SHAPES[shape], seed=seed)
        assert_same_stream(params, p_link)


class TestInlinedDraws:
    """The row loop and bisection, which make the `random` methods'
    arithmetic inline, against the references that call them, on random
    parameters."""

    @settings(max_examples=150, deadline=None)
    @given(
        params=st.builds(
            GeneratorParams,
            n_changes=st.integers(1, 200),
            arrival_rate=st.floats(0.01, 10.0),
            conflict_density=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
            short_fraction=st.floats(0.0, 1.0),
            fail_rate=st.floats(0.0, 1.0),
            breaker_rate=st.floats(0.0, 1.0),
            long_target_bias=st.floats(0.0, 1.0),
            long_second_link=st.floats(0.0, 1.0),
            seed=st.integers(0, 2**32),
        ),
        p_link=st.floats(0.0, 1.0),
    )
    def test_rows_equal_the_random_method_draws(self, params, p_link):
        assert_same_stream(params, p_link)
        assert_same_calibration(params)


class TestStreamReuse:
    """The bisection that reuses streams, against the reference
    bisection, and the streams it draws."""

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32))
    @pytest.mark.parametrize("shape", BENCH_SHAPES)
    def test_bench_calibration_matches(self, shape, seed):
        assert_same_calibration(dataclasses.replace(BENCH_SHAPES[shape], seed=seed))

    @pytest.mark.parametrize("n_changes", [1, 2, 7, 300])
    @pytest.mark.parametrize("generator", GENERATORS)
    def test_same_text_as_drawing_every_probe(self, generator, n_changes):
        # the rows the workload text is written from
        for seed, density in itertools.product(
            range(10), (0.0, 0.05, 0.3, 0.6, 0.95, 1.0)
        ):
            params = dataclasses.replace(
                GENERATORS[generator],
                n_changes=n_changes,
                seed=seed,
                conflict_density=density,
            )
            assert_same_stream(params, density)
            # the reference bisection over the row loop, which the tests
            # above hold to the reference loop; over the reference loop
            # itself this grid takes about 2.5 s longer
            reference = reference_calibrated_rows(params, _generate_changes)
            assert _calibrated_rows(params) == reference

    @settings(max_examples=200, deadline=None)
    @given(
        generator=st.sampled_from(sorted(GENERATORS)),
        n_changes=st.integers(1, 40),
        seed=st.integers(0, 1000),
        p_link=st.floats(0.0, 1.0),
        fraction=st.floats(0.0, 1.0),
    )
    def test_every_link_probability_in_the_interval_draws_the_stream(
        self, generator, n_changes, seed, p_link, fraction
    ):
        params = dataclasses.replace(
            GENERATORS[generator], n_changes=n_changes, seed=seed
        )
        rows, share, below, above = _generate_changes(params, p_link)
        assert below < p_link <= above
        # (below, above] cut to the probabilities that mean anything
        first = 0.0 if below == -math.inf else math.nextafter(below, math.inf)
        last = min(above, 1.0)
        between = min(last, max(first, first + fraction * (last - first)))
        for p in (first, between, last):
            assert _generate_changes(params, p)[:2] == (rows, share), p
        if above < math.inf:
            assert _generate_changes(params, above) == (rows, share, below, above)
        if below > -math.inf:
            # the half-open edge: at below, that link draw is no longer taken
            assert _generate_changes(params, below)[0] != rows

    @pytest.fixture
    def drawn(self, monkeypatch):
        """The streams drawn, in order, as (link probability, whether the
        draw built rows)."""
        calls = []

        def counted(params, p_link, **mode):
            stream = _generate_changes(params, p_link, **mode)
            calls.append((p_link, stream[0] is not None))
            return stream

        monkeypatch.setattr(workload, "_generate_changes", counted)
        return calls

    def test_steady_stream_draws_at_most_eleven_streams(self, drawn):
        # 1,000 changes at 0.25/min, the shape of `steady`'s streams, pinned
        # on parameters of its own; drawing every probe takes 19.
        # Every stream but the last is a row-free probe, and the last, the
        # one full draw, is at the plain bisection's final midpoint.
        params = GeneratorParams(
            n_changes=1000, arrival_rate=0.25, conflict_density=0.3, seed=1000
        )
        generate_workload(params)
        assert len(drawn) <= 11
        assert [built for _, built in drawn] == [False] * (len(drawn) - 1) + [True]
        assert drawn[-1][0] == reference_link_probability(params, _generate_changes)

    @pytest.mark.parametrize("density", [0.0, 1.0])
    def test_extreme_density_draws_one_stream(self, drawn, density):
        # one full draw and no probe
        params = GeneratorParams(n_changes=1000, conflict_density=density, seed=1000)
        generate_workload(params)
        assert drawn == [(density, True)]


class TestStaticConflictRate:
    def test_hand_computed_share(self):
        # two of four changes share a target
        w = WorkloadSpec(
            changes=(
                spec(0, "C0", 0.0, {"a"}),
                spec(1, "C1", 1.0, {"a", "b"}),
                spec(2, "C2", 2.0, {"c"}),
                spec(3, "C3", 3.0, {"d"}),
            )
        )
        assert static_conflict_rate(w) == 50.0


CHANGE_C0 = "change id=C0 at=0.0 targets=a mu=10.0 var=4.0"


class TestFileFormat:
    def round_trip(self, w):
        return parse_workload(format_workload(w))

    def test_generated_workload_round_trips(self):
        w = dataclasses.replace(
            generate_workload(
                GeneratorParams(n_changes=60, conflict_density=0.4, seed=11),
                config=EngineConfig(speculation_threshold=0.4, executor_capacity=16),
            ),
            strategy="baseline",
            predictor=OracleWithNoise(relative_bias=0.1, relative_spread=0.2, seed=3),
        )
        assert self.round_trip(w) == w

    def test_constant_predictor_round_trips(self):
        w = WorkloadSpec(
            changes=(spec(0, "C0", 0.0, {"a"}),),
            predictor=ConstantPredictor(mean=12.5, variance=2.25),
        )
        assert self.round_trip(w) == w

    def test_breakers_round_trip(self):
        w = WorkloadSpec(
            changes=(
                spec(0, "C0", 0.0, {"a"}),
                spec(1, "C1", 0.5, {"a"}, passes_alone=False,
                     breakers=frozenset({ChangeId(0, "C0")})),
            )
        )
        parsed = self.round_trip(w)
        assert parsed.changes[1].breakers == (ChangeId(0, "C0"),)
        assert parsed.changes[1].passes_alone is False

    def test_a_hand_written_change_reads_sorted_and_distinct(self):
        w = parse_workload(
            "change id=C0 at=0.0 targets=a mu=10.0 var=4.0\n"
            "change id=C1 at=1.0 targets=b,a,b mu=10.0 var=4.0 breakers=C0,C0\n"
        )
        c1 = w.changes[1]
        assert (c1.targets, c1.breakers) == (("a", "b"), (C0,))
        line = format_workload(w).splitlines()[-1]
        assert " targets=a,b " in line and " breakers=C0 " in line

    def test_a_parsed_stream_holds_one_object_per_distinct_text(self):
        # a held stream shares the durations and target names it repeats:
        # one float per distinct mu/var text, one string per target name
        w = self.round_trip(generate_workload(GeneratorParams(n_changes=200, seed=3)))
        durations = [x for s in w.changes for x in (s.true_mean, s.true_variance)]
        assert len({id(x) for x in durations}) == len({repr(x) for x in durations}) == 4
        targets = [t for s in w.changes for t in s.targets]
        assert len(targets) > len(w.changes)
        assert len({id(t) for t in targets}) == len(set(targets))

    def test_a_target_named_like_a_duration_stays_a_shared_string(self):
        first, second = parse_workload(
            "change id=C0 at=0.0 targets=5.0 mu=5.0 var=1.0\n"
            "change id=C1 at=1.0 targets=5.0,b mu=5.0 var=5.0\n"
        ).changes
        assert first.targets == ("5.0",) and second.targets == ("5.0", "b")
        assert type(first.targets[0]) is str
        assert second.targets[0] is first.targets[0]
        assert type(first.true_mean) is float
        assert second.true_mean is second.true_variance is first.true_mean

    def test_negative_and_positive_zero_variances_round_trip_byte_for_byte(self):
        # the float table is keyed by text, and -0.0 == 0.0, so a table
        # keyed by value would write one of them back as the other
        text = format_workload(
            WorkloadSpec(
                changes=tuple(
                    spec(i, f"C{i}", float(i), {"a"}, var=v)
                    for i, v in enumerate((-0.0, 0.0, -0.0, 0.0))
                )
            )
        )
        assert " var=-0.0 " in text and " var=0.0 " in text
        parsed = parse_workload(text)
        assert format_workload(parsed) == text
        variances = [s.true_variance for s in parsed.changes]
        assert variances[2] is variances[0] and variances[3] is variances[1]
        assert variances[0] is not variances[1]

    def test_comments_and_blank_lines_ignored(self):
        text = format_workload(WorkloadSpec(changes=(spec(0, "C0", 0.0, {"a"}),)))
        noisy = "# header\n\n" + text + "\n# trailing\n"
        assert parse_workload(noisy) == parse_workload(text)

    def test_missing_predictor_defaults_to_oracle_with_seed(self):
        w = parse_workload("seed 5\nchange id=C0 at=0.0 targets=a mu=10.0 var=4.0\n")
        assert w.predictor == OracleWithNoise(seed=5)

    def test_a_file_without_a_predictor_parses_like_a_spec_built_without_one(self):
        changes = (spec(0, "C0", 0.0, {"a"}),)
        assert parse_workload(f"seed 5\n{CHANGE_C0}\n") == WorkloadSpec(changes, seed=5)

    def test_the_default_predictor_is_written_with_the_workload_seed(self):
        text = format_workload(WorkloadSpec((spec(0, "C0", 0.0, {"a"}),), seed=5))
        (line,) = [line for line in text.splitlines() if line.startswith("predictor ")]
        assert line.startswith("predictor oracle ") and line.endswith(" seed=5")

    def test_missing_config_defaults(self):
        w = parse_workload("change id=C0 at=0.0 targets=a mu=10.0 var=4.0\n")
        assert w.config == EngineConfig()

    @pytest.mark.parametrize(
        "record, expected",
        [("oracle", OracleWithNoise()), ("constant", ConstantPredictor())],
    )
    def test_omitted_predictor_fields_take_the_class_defaults(self, record, expected):
        w = parse_workload(f"seed 5\npredictor {record}\n{CHANGE_C0}\n")
        assert w.predictor == expected

    @pytest.mark.parametrize(
        "text, spaced",
        [
            ("seed\t5\n" + CHANGE_C0, "seed 5\n" + CHANGE_C0),
            (CHANGE_C0.replace(" ", "\t", 1), CHANGE_C0),
            (
                "predictor oracle\tspread=0.5\n" + CHANGE_C0,
                "predictor oracle spread=0.5\n" + CHANGE_C0,
            ),
            (
                "predictor\t oracle \t spread=0.5\n" + CHANGE_C0,
                "predictor oracle spread=0.5\n" + CHANGE_C0,
            ),
        ],
        ids=["seed", "change", "predictor", "predictor-mixed"],
    )
    def test_tabs_split_a_record_kind_as_they_split_fields(self, text, spaced):
        assert parse_workload(text) == parse_workload(spaced)

    def test_omitted_change_fields_take_the_class_defaults(self):
        (parsed,) = parse_workload(CHANGE_C0).changes
        defaults = {f.name: f.default for f in dataclasses.fields(ChangeSpec)}
        assert parsed.passes_alone is defaults["passes_alone"]
        assert parsed.success_prior == defaults["success_prior"]

    def test_a_parsed_change_is_slotted_and_keeps_the_field_defaults(self):
        given, omitted = parse_workload(
            "change id=C0 at=0.0 targets=a mu=10.0 var=4.0 passes=false prior=0.5\n"
            "change id=C1 at=1.0 targets=b mu=10.0 var=4.0\n"
        ).changes
        defaults = {f.name: f.default for f in dataclasses.fields(ChangeSpec)}
        for parsed in (given, omitted):
            assert not hasattr(parsed, "__dict__")
        assert (given.passes_alone, given.success_prior) == (False, 0.5)
        assert omitted.passes_alone is defaults["passes_alone"]
        assert omitted.success_prior == defaults["success_prior"]

    def test_changes_without_breakers_share_the_default_empty_set(self):
        default = {f.name: f.default for f in dataclasses.fields(ChangeSpec)}
        generated = generate_workload(GeneratorParams(n_changes=60, seed=3))
        for w in (generated, parse_workload(format_workload(generated))):
            empty = [s.breakers for s in w.changes if not s.breakers]
            assert empty and all(b is default["breakers"] for b in empty)

    @pytest.mark.parametrize(
        "text",
        [
            "workload-version 2\nchange id=C0 at=0.0 targets=a mu=10.0 var=4.0",
            "bogus record\nchange id=C0 at=0.0 targets=a mu=10.0 var=4.0",
            "change id=C0 at=0.0 targets=a var=4.0",  # missing mu
            "change id=C0 at=0.0 targets=a mu=ten var=4.0",
            "change id=C0 at=0.0 targets=a mu=10.0 var=4.0 passes=maybe",
            "change id=C0 at=0.0 targets=a mu=10.0 var=4.0 breakers=C9",
            "predictor magic mu=1\nchange id=C0 at=0.0 targets=a mu=10.0 var=4.0",
            "config capacity=none\nchange id=C0 at=0.0 targets=a mu=10.0 var=4.0",
            "strategy greedy\nchange id=C0 at=0.0 targets=a mu=10.0 var=4.0",
            "seed 1",  # no changes at all
            "config delta=0.3 capcity=4\n" + CHANGE_C0,  # unknown fields
            CHANGE_C0 + " prio=0.1",
            "predictor oracle spred=0.2\n" + CHANGE_C0,
            "predictor constant mu=5 sigma=1\n" + CHANGE_C0,
            CHANGE_C0 + " mu=2.0",  # repeated field
            CHANGE_C0 + " prior",  # a token without '='
            CHANGE_C0 + "\nchange id=C0 at=1.0 targets=a mu=10.0 var=4.0",  # duplicate id
            # a record given twice would silently replace the first
            "workload-version 1\nworkload-version 1\n" + CHANGE_C0,
            "seed 1\nseed 2\n" + CHANGE_C0,
            "strategy enhanced\nstrategy baseline\n" + CHANGE_C0,
            "predictor oracle seed=1\npredictor constant mu=5\n" + CHANGE_C0,
            "config capacity=4\nconfig delta=0.5\n" + CHANGE_C0,
            # non-finite numbers would run and report wrong metrics
            "change id=C0 at=nan targets=a mu=10.0 var=4.0",
            "change id=C0 at=0.0 targets=a mu=inf var=4.0",
            "change id=C0 at=0.0 targets=a mu=nan var=4.0",
            "change id=C0 at=0.0 targets=a mu=10.0 var=nan",
            "predictor oracle bias=nan\n" + CHANGE_C0,
            "predictor oracle spread=inf\n" + CHANGE_C0,
            "predictor constant mu=inf\n" + CHANGE_C0,
            "predictor constant var=nan\n" + CHANGE_C0,
            # labels the format cannot write back or name as breakers
            "change id= at=0.0 targets=a mu=10.0 var=4.0",
            "change id=a,b at=0.0 targets=a mu=10.0 var=4.0",
        ],
    )
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(WorkloadError):
            parse_workload(text)

    @pytest.mark.parametrize(
        "text",
        [
            "change id=C0 at=0.0 targets=a mu=10.0 var=4.0 breakers=X\nseed x",
            "change id=C0 at=0.0 targets=a mu=ten var=4.0\nbogus",
            "config capacity=none\nbogus",
            "config delta=1.5\n" + CHANGE_C0,
            "strategy bogus\nbogus",
            "workload-version 2\nbogus",
            "change id=C0 at=0.0 targets=a mu=-1.0 var=4.0\nbogus",
        ],
    )
    def test_first_malformed_line_is_named(self, text):
        with pytest.raises(WorkloadError, match="^line 1: "):
            parse_workload(text)

    def test_repeated_record_names_its_line(self):
        text = "config capacity=4\n# split config\nconfig delta=0.5\n" + CHANGE_C0
        with pytest.raises(WorkloadError, match="line 3: repeated 'config' record"):
            parse_workload(text)

    @pytest.mark.parametrize("breaker", ["C1", "C9"])
    def test_forward_or_unknown_breaker_is_named(self, breaker):
        text = (
            f"change id=C0 at=0.0 targets=a mu=10.0 var=4.0 breakers={breaker}\n"
            "change id=C1 at=1.0 targets=a mu=10.0 var=4.0"
        )
        with pytest.raises(WorkloadError, match=f"breaker '{breaker}'"):
            parse_workload(text)


CHANGE_C1 = "change id=C1 at=1.0 targets=a mu=10.0 var=4.0"

# Every check a file can reach, and the exact message it raises; recorded
# before the change-line parse was rewritten as one pass.
PARSE_ERRORS = [
    ("no-equals", CHANGE_C0 + " prior", "line 1: expected key=value, got 'prior'"),
    ("unknown-field", CHANGE_C0 + " prio=0.1", "line 1: unknown field 'prio'"),
    ("repeated-field", CHANGE_C0 + " mu=2.0", "line 1: repeated field 'mu'"),
    (
        "missing-id",
        "change at=0.0 targets=a mu=10.0 var=4.0",
        "line 1: missing field 'id'",
    ),
    (
        "missing-at",
        "change id=C0 targets=a mu=10.0 var=4.0",
        "line 1: missing field 'at'",
    ),
    ("missing-mu", "change id=C0 at=0.0 targets=a var=4.0", "line 1: missing field 'mu'"),
    (
        "missing-var",
        "change id=C0 at=0.0 targets=a mu=10.0",
        "line 1: missing field 'var'",
    ),
    (
        "bad-passes",
        CHANGE_C0 + " passes=maybe",
        "line 1: expected true/false, got 'maybe'",
    ),
    (
        "bad-number",
        "change id=C0 at=0.0 targets=a mu=ten var=4.0",
        "line 1: could not convert string to float: 'ten'",
    ),
    (
        "bad-prior",
        CHANGE_C0 + " prior=high",
        "line 1: could not convert string to float: 'high'",
    ),
    (
        "duplicate-id",
        CHANGE_C0 + "\n" + CHANGE_C0.replace("at=0.0", "at=1.0"),
        "line 2: duplicate change id 'C0'",
    ),
    (
        "forward-breaker",
        CHANGE_C0 + " breakers=C1\n" + CHANGE_C1,
        "line 1: breaker 'C1' is not an earlier change",
    ),
    (
        "unknown-breaker",
        CHANGE_C0 + "\n" + CHANGE_C1 + " breakers=C9",
        "line 2: breaker 'C9' is not an earlier change",
    ),
    (
        "self-breaker",
        CHANGE_C0 + " breakers=C0",
        "line 1: breaker 'C0' is not an earlier change",
    ),
    (
        "nan-arrival",
        "change id=C0 at=nan targets=a mu=10.0 var=4.0",
        "line 1: C0: arrival_time must be finite and >= 0",
    ),
    (
        "inf-mean",
        "change id=C0 at=0.0 targets=a mu=inf var=4.0",
        "line 1: C0: true_mean must be finite and > 0",
    ),
    (
        "nan-variance",
        "change id=C0 at=0.0 targets=a mu=10.0 var=nan",
        "line 1: C0: true_variance must be finite and >= 0",
    ),
    (
        "negative-arrival",
        "change id=C0 at=-1.0 targets=a mu=10.0 var=4.0",
        "line 1: C0: arrival_time must be finite and >= 0",
    ),
    (
        "zero-mean",
        "change id=C0 at=0.0 targets=a mu=0.0 var=4.0",
        "line 1: C0: true_mean must be finite and > 0",
    ),
    (
        "negative-variance",
        "change id=C0 at=0.0 targets=a mu=10.0 var=-1.0",
        "line 1: C0: true_variance must be finite and >= 0",
    ),
    (
        "prior-above-one",
        CHANGE_C0 + " prior=1.5",
        "line 1: C0: success_prior must be in [0, 1]",
    ),
    (
        "empty-label",
        "change id= at=0.0 targets=a mu=10.0 var=4.0",
        "line 1: change id '' must be non-empty, with no comma or whitespace",
    ),
    (
        "comma-label",
        "change id=a,b at=0.0 targets=a mu=10.0 var=4.0",
        "line 1: change id 'a,b' must be non-empty, with no comma or whitespace",
    ),
    (
        "decreasing-arrivals",
        "change id=C0 at=5.0 targets=a mu=10.0 var=4.0\n"
        "change id=C1 at=4.0 targets=b mu=10.0 var=4.0",
        "C1: arrival times must be nondecreasing",
    ),
    (
        "breaker-shares-no-target",
        CHANGE_C0 + "\nchange id=C1 at=1.0 targets=b mu=10.0 var=4.0 breakers=C0",
        "C1: breaker 'C0' shares no target with it",
    ),
    ("empty-file", "", "workload needs at least one change"),
    ("only-records", "seed 1\n# no change\n", "workload needs at least one change"),
    (
        "version",
        "workload-version 2\n" + CHANGE_C0,
        "line 1: unsupported workload version '2'",
    ),
    ("unknown-record", "bogus record\n" + CHANGE_C0, "line 1: unknown record 'bogus'"),
    (
        "repeated-record",
        "seed 1\n\nseed 2\n" + CHANGE_C0,
        "line 3: repeated 'seed' record",
    ),
    (
        "bad-seed",
        "seed x\n" + CHANGE_C0,
        "line 1: invalid literal for int() with base 10: 'x'",
    ),
    (
        "unknown-strategy",
        "strategy greedy\n" + CHANGE_C0,
        "line 1: unknown strategy 'greedy'",
    ),
    (
        "unknown-predictor",
        "predictor magic mu=1\n" + CHANGE_C0,
        "line 1: unknown predictor 'magic'",
    ),
    (
        "predictor-field",
        "predictor oracle spred=0.2\n" + CHANGE_C0,
        "line 1: unknown field 'spred'",
    ),
    (
        "predictor-value",
        "predictor constant mu=inf\n" + CHANGE_C0,
        "line 1: mean must be finite and >= 0.01",
    ),
    (
        "config-field",
        "config delta=0.3 capcity=4\n" + CHANGE_C0,
        "line 1: unknown field 'capcity'",
    ),
    (
        "config-int",
        "config capacity=8.0\n" + CHANGE_C0,
        "line 1: invalid literal for int() with base 10: '8.0'",
    ),
    (
        "config-range",
        "config delta=1.5\n" + CHANGE_C0,
        "line 1: speculation_threshold must be in [0, 1]",
    ),
    (
        "config-depth-cap",
        "config depth_cap=17\n" + CHANGE_C0,
        "line 1: depth_cap must be <= 16",
    ),
    (
        "later-line",
        "seed 1\n# comment\n\n" + CHANGE_C0 + "\n" + CHANGE_C1 + " mu=x",
        "line 5: repeated field 'mu'",
    ),
]

# The checks of the specs that no file reaches, since the parser splits
# targets on commas, numbers changes itself and checks strategies and
# breakers first.
SPEC_ERRORS = {
    "target-comma": (
        lambda: spec(0, "C0", 0.0, {"a", "lib,net"}),
        "C0: target 'lib,net' must be non-empty, with no comma or whitespace",
    ),
    "target-space": (
        lambda: spec(0, "C0", 0.0, {"a b", "c d"}),
        "C0: target 'a b' must be non-empty, with no comma or whitespace",
    ),
    "label-tab": (
        lambda: spec(0, "a\tb", 0.0, {"a"}),
        "change id 'a\\tb' must be non-empty, with no comma or whitespace",
    ),
    "sequence-gap": (
        lambda: WorkloadSpec((spec(1, "C1", 0.0, {"a"}),)),
        "C1: sequence 1 does not match position 0",
    ),
    "unknown-strategy": (
        lambda: WorkloadSpec((spec(0, "C0", 0.0, {"a"}),), strategy="greedy"),
        "unknown strategy 'greedy'",
    ),
    "predictor-without-file-form": (
        lambda: format_workload(
            WorkloadSpec((spec(0, "C0", 0.0, {"a"}),), predictor="magic")
        ),
        "predictor 'magic' has no file form",
    ),
    "duplicate-label": (
        lambda: WorkloadSpec(
            (spec(0, "C0", 0.0, {"a"}), spec(1, "C0", 1.0, {"a"}))
        ),
        "duplicate change id C0",
    ),
    "breaker-label": (
        lambda: WorkloadSpec(
            (
                spec(0, "C0", 0.0, {"a"}),
                spec(
                    1,
                    "C1",
                    1.0,
                    {"a"},
                    breakers=frozenset({ChangeId(0, "X"), ChangeId(2, "C2")}),
                ),
            )
        ),
        "C1: breakers must be earlier changes, got "
        "[ChangeId(seq=0, label='X'), ChangeId(seq=2, label='C2')]",
    ),
    "empty": (lambda: WorkloadSpec(()), "workload needs at least one change"),
}


class TestErrorMessages:
    @pytest.mark.parametrize(
        "text, message",
        [case[1:] for case in PARSE_ERRORS],
        ids=[case[0] for case in PARSE_ERRORS],
    )
    def test_parse_error_message(self, text, message):
        with pytest.raises(WorkloadError) as info:
            parse_workload(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("case", SPEC_ERRORS)
    def test_spec_error_message(self, case):
        build, message = SPEC_ERRORS[case]
        with pytest.raises(WorkloadError) as info:
            build()
        assert str(info.value) == message


# predictor records that parse, but that can scale some change's true
# duration to an infinite estimate: (record, that change's true variance)
OVERFLOWING_PREDICTORS = {
    "bias": ("oracle bias=1e200", 4.0),
    # the estimate's mean is clamped to its floor, its variance overflows
    "negative-bias": ("oracle bias=-1e200", 4.0),
    "variance": ("oracle bias=0.5", 1e308),
    "spread": ("oracle spread=1e200 seed=3", 4.0),
}


def two_change_workload(predictor, variance):
    return parse_workload(
        f"predictor {predictor}\n"
        "change id=C0 at=0.0 targets=a mu=5.0 var=1.0\n"
        f"change id=C1 at=1.0 targets=a mu=10.0 var={variance!r}\n"
    )


class TestPredictorOverflow:
    """A predictor that can make an infinite estimate of a change is a
    workload error, raised as the run is set up, before its first event."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("case", OVERFLOWING_PREDICTORS)
    def test_raises_a_workload_error_naming_the_predictor(self, case, strategy):
        w = two_change_workload(*OVERFLOWING_PREDICTORS[case])
        with pytest.raises(WorkloadError) as info:
            run(w, strategy)
        message = str(info.value)
        assert message.startswith(f"predictor {w.predictor!r} overflows")
        assert "the largest true mean is 10.0" in message

    def test_a_predictor_whose_estimates_stay_finite_runs(self):
        # 1e150 squared times 4 is about 4e300, short of the largest float
        w = two_change_workload("oracle bias=1e150", 4.0)
        report, _ = run(w, "enhanced")
        assert report.changes_decided == 2


class TestIntegerFields:
    """A float or bool where an int belongs would be written in a form the
    parser rejects, so each record refuses it and names the field."""

    @pytest.mark.parametrize("value", [8.0, True, 1.5])
    @pytest.mark.parametrize(
        "build, field, error",
        [
            (EngineConfig, "executor_capacity", ValueError),
            (EngineConfig, "depth_cap", ValueError),
            (OracleWithNoise, "seed", ValueError),
            (GeneratorParams, "seed", WorkloadError),
            (GeneratorParams, "n_changes", WorkloadError),
            (
                lambda **kw: WorkloadSpec((spec(0, "C0", 0.0, {"a"}),), **kw),
                "seed",
                WorkloadError,
            ),
        ],
        ids=[
            "capacity",
            "depth_cap",
            "oracle-seed",
            "generator-seed",
            "n_changes",
            "workload-seed",
        ],
    )
    def test_rejects_a_non_int(self, build, field, error, value):
        with pytest.raises(error, match=f"^{field} must be an int, got {value!r}$"):
            build(**{field: value})

    @settings(max_examples=150, deadline=None)
    @given(
        generator=st.sampled_from(sorted(GENERATORS)),
        n_changes=st.integers(1, 30),
        seed=st.integers(-(2**40), 2**40),
        density=st.floats(0.0, 1.0),
        strategy=st.sampled_from(workload.STRATEGIES),
        config=st.none()
        | st.builds(
            EngineConfig,
            speculation_threshold=st.floats(0.0, 1.0),
            bypass_eligibility_threshold=st.floats(0.0, 1.0),
            bypass_product_floor=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            executor_capacity=st.integers(1, 10**6),
            depth_cap=st.integers(1, 16),
        ),
        predictor=st.none()
        | st.builds(
            OracleWithNoise,
            relative_bias=st.floats(allow_nan=False, allow_infinity=False),
            relative_spread=st.floats(0.0, allow_infinity=False),
            seed=st.integers(-(2**64), 2**64),
        )
        | st.builds(
            ConstantPredictor,
            mean=st.floats(0.01, allow_infinity=False),
            variance=st.floats(0.0, allow_infinity=False),
        ),
    )
    def test_a_written_workload_reads_back_equal(
        self, generator, n_changes, seed, density, strategy, config, predictor
    ):
        params = dataclasses.replace(
            GENERATORS[generator],
            n_changes=n_changes,
            seed=seed,
            conflict_density=density,
        )
        w = dataclasses.replace(
            generate_workload(params, config=config),
            strategy=strategy,
            predictor=predictor,
        )
        assert parse_workload(format_workload(w)) == w


def change_with(**kw):
    return dataclasses.replace(spec(0, "C0", 0.0, {"a"}), **kw)


# every float field the file form writes, by record, and the generator's
FLOAT_FIELDS = {
    "delta": (EngineConfig, "speculation_threshold", ValueError),
    "tau": (EngineConfig, "bypass_eligibility_threshold", ValueError),
    "epsilon": (EngineConfig, "bypass_product_floor", ValueError),
    "oracle-bias": (OracleWithNoise, "relative_bias", ValueError),
    "oracle-spread": (OracleWithNoise, "relative_spread", ValueError),
    "constant-mu": (ConstantPredictor, "mean", ValueError),
    "constant-var": (ConstantPredictor, "variance", ValueError),
    "at": (change_with, "arrival_time", WorkloadError),
    "mu": (change_with, "true_mean", WorkloadError),
    "var": (change_with, "true_variance", WorkloadError),
    "prior": (change_with, "success_prior", WorkloadError),
    "arrival-rate": (GeneratorParams, "arrival_rate", WorkloadError),
    "density": (GeneratorParams, "conflict_density", WorkloadError),
    "short": (GeneratorParams, "short_fraction", WorkloadError),
    "fail-rate": (GeneratorParams, "fail_rate", WorkloadError),
    "breaker-rate": (GeneratorParams, "breaker_rate", WorkloadError),
    "long-bias": (GeneratorParams, "long_target_bias", WorkloadError),
    "second-link": (GeneratorParams, "long_second_link", WorkloadError),
}


class TestFloatFields:
    """A bool where a float belongs would be written `True` or `False`,
    which the parser rejects, so each record refuses it and names the
    field and the value. An int is a float's value and reads back equal."""

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("case", FLOAT_FIELDS)
    def test_rejects_a_bool(self, case, value):
        build, field, error = FLOAT_FIELDS[case]
        with pytest.raises(error, match=f"^{field} must be a float, got {value!r}$"):
            build(**{field: value})

    @pytest.mark.parametrize("value", ["yes", 1, 0, None])
    def test_a_change_rejects_a_non_bool_passes_alone(self, value):
        message = f"^passes_alone must be a bool, got {value!r}$"
        with pytest.raises(WorkloadError, match=message):
            change_with(passes_alone=value)

    def test_an_int_in_a_float_field_reads_back_equal(self):
        change = change_with(
            arrival_time=1, true_mean=5, true_variance=0, success_prior=1
        )
        config = EngineConfig(speculation_threshold=0, bypass_eligibility_threshold=1)
        w = WorkloadSpec(
            (change,), predictor=ConstantPredictor(mean=3, variance=2), config=config
        )
        assert parse_workload(format_workload(w)) == w
