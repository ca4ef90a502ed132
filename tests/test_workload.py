"""Tests for workload specs, the generator, and the file format."""

from __future__ import annotations

import dataclasses
import hashlib
import math

import pytest

from specqueue.core import ChangeId, EngineConfig, build_conflict_graph
from specqueue.prediction import ConstantPredictor, OracleWithNoise
from specqueue.simulator.workload import (
    ChangeSpec,
    GeneratorParams,
    WorkloadError,
    WorkloadSpec,
    format_workload,
    generate_workload,
    parse_workload,
    static_conflict_rate,
)


def spec(seq, label, at, targets, **kw):
    return ChangeSpec(
        id=ChangeId(seq, label),
        arrival_time=at,
        targets=frozenset(targets),
        true_mean=kw.pop("mu", 10.0),
        true_variance=kw.pop("var", 4.0),
        **kw,
    )


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
        g = build_conflict_graph({s.id: s.targets for s in w.changes})
        assert all(not g.neighbors(s.id) for s in w.changes)
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

    def test_arrivals_nondecreasing_and_ids_sequential(self):
        w = generate_workload(GeneratorParams(n_changes=150, seed=4))
        arrivals = [s.arrival_time for s in w.changes]
        assert arrivals == sorted(arrivals)
        assert [s.id.seq for s in w.changes] == list(range(150))

    def test_breakers_only_among_conflicting_predecessors(self):
        w = generate_workload(
            GeneratorParams(n_changes=300, conflict_density=0.5, breaker_rate=0.8, seed=6)
        )
        g = build_conflict_graph({s.id: s.targets for s in w.changes})
        for s in w.changes:
            for b in s.breakers:
                assert b.seq < s.id.seq
                assert b in g.neighbors(s.id)

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
        w = generate_workload(
            GeneratorParams(n_changes=60, conflict_density=0.4, seed=11),
            strategy="baseline",
            predictor=OracleWithNoise(relative_bias=0.1, relative_spread=0.2, seed=3),
            config=EngineConfig(speculation_threshold=0.4, executor_capacity=16),
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
        assert parsed.changes[1].breakers == frozenset({ChangeId(0, "C0")})
        assert parsed.changes[1].passes_alone is False

    def test_comments_and_blank_lines_ignored(self):
        text = format_workload(WorkloadSpec(changes=(spec(0, "C0", 0.0, {"a"}),)))
        noisy = "# header\n\n" + text + "\n# trailing\n"
        assert parse_workload(noisy) == parse_workload(text)

    def test_missing_predictor_defaults_to_oracle_with_seed(self):
        w = parse_workload("seed 5\nchange id=C0 at=0.0 targets=a mu=10.0 var=4.0\n")
        assert w.predictor == OracleWithNoise(seed=5)

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

    def test_omitted_change_fields_take_the_class_defaults(self):
        (parsed,) = parse_workload(CHANGE_C0).changes
        defaults = {f.name: f.default for f in dataclasses.fields(ChangeSpec)}
        assert parsed.passes_alone is defaults["passes_alone"]
        assert parsed.success_prior == defaults["success_prior"]

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
