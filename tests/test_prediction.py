"""Tests for duration estimators and MAPE."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specqueue.prediction import (
    ConstantPredictor,
    DurationEstimate,
    OracleWithNoise,
    PredictionFeatures,
    estimates_stay_finite,
    mape,
    predict_duration,
)

FEATURES = PredictionFeatures(targets_changed=3, conflicts_count=2, speculation_height=1)


class TestDurationEstimate:
    def test_rejects_negative_mean(self):
        with pytest.raises(ValueError):
            DurationEstimate(-1.0, 4.0)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            DurationEstimate(10.0, -0.5)

    @pytest.mark.parametrize(
        "mean, variance",
        [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)],
    )
    def test_rejects_non_finite_numbers(self, mean, variance):
        with pytest.raises(ValueError, match="must be finite"):
            DurationEstimate(mean, variance)

    def test_zero_mean_allowed_for_finished_builds(self):
        DurationEstimate(0.0, 0.0)


class TestPredictionFeatures:
    @pytest.mark.parametrize(
        "fields, first",
        [
            ((-1, 0, 0), "targets_changed"),
            ((0, -1, 0), "conflicts_count"),
            ((0, 0, -1), "speculation_height"),
            ((0, -2, -1), "conflicts_count"),
            ((-1, -1, -1), "targets_changed"),
        ],
    )
    def test_negative_field_names_the_first(self, fields, first):
        with pytest.raises(ValueError, match=f"^{first} must be >= 0$"):
            PredictionFeatures(*fields)


class TestPredictDuration:
    def test_constant_ignores_features(self):
        spec = ConstantPredictor(25.0, 25.0)
        assert predict_duration(spec, FEATURES) == DurationEstimate(25.0, 25.0)
        assert predict_duration(spec, PredictionFeatures()) == DurationEstimate(25.0, 25.0)

    def test_an_unknown_spec_is_refused(self):
        with pytest.raises(TypeError, match="^unknown predictor spec: 'magic'$"):
            predict_duration("magic", FEATURES)

    def test_zero_noise_oracle_is_identity(self):
        spec = OracleWithNoise(relative_bias=0.0, relative_spread=0.0, seed=7)
        truth = DurationEstimate(20.0, 16.0)
        assert predict_duration(spec, FEATURES, truth=truth) == truth

    def test_pure_bias_scales_mean_and_variance(self):
        # scale = 1.10, so mean 20 -> 22 and variance 16 -> 16 * 1.21.
        spec = OracleWithNoise(relative_bias=0.10, relative_spread=0.0, seed=7)
        truth = DurationEstimate(20.0, 16.0)
        got = predict_duration(spec, FEATURES, truth=truth)
        assert got.mean == pytest.approx(22.0)
        assert got.variance == pytest.approx(19.36)

    def test_noise_is_bounded_by_spread(self):
        truth = DurationEstimate(40.0, 4.0)
        for seed in range(50):
            spec = OracleWithNoise(relative_bias=0.0, relative_spread=0.25, seed=seed)
            got = predict_duration(spec, FEATURES, truth=truth)
            assert 40.0 * 0.75 <= got.mean <= 40.0 * 1.25

    def test_noise_is_deterministic(self):
        spec = OracleWithNoise(relative_bias=0.0, relative_spread=0.3, seed=11)
        truth = DurationEstimate(35.0, 9.0)
        first = predict_duration(spec, FEATURES, truth=truth)
        again = predict_duration(spec, FEATURES, truth=truth)
        assert first == again

    def test_noise_varies_with_features(self):
        spec = OracleWithNoise(relative_bias=0.0, relative_spread=0.3, seed=11)
        truth = DurationEstimate(35.0, 9.0)
        a = predict_duration(spec, PredictionFeatures(conflicts_count=1), truth=truth)
        b = predict_duration(spec, PredictionFeatures(conflicts_count=2), truth=truth)
        assert a != b

    def test_golden_noise_pins_the_hash_key(self):
        # Recorded while the features still carried line, commit and
        # author fields; the noise hash key must not move.
        spec = OracleWithNoise(relative_bias=0.0, relative_spread=0.3, seed=11)
        got = predict_duration(spec, FEATURES, truth=DurationEstimate(35.0, 9.0))
        assert got == DurationEstimate(31.839851298821632, 7.448151164554826)

    def test_mean_clamped_above_zero(self):
        spec = OracleWithNoise(relative_bias=-1.5, relative_spread=0.0, seed=0)
        got = predict_duration(spec, FEATURES, truth=DurationEstimate(20.0, 16.0))
        assert got.mean == pytest.approx(0.01)

    @given(
        bias=st.floats(0.0, 308.0).map(lambda e: 10.0**e) | st.floats(-2.0, 2.0),
        negative=st.booleans(),
        spread=st.just(0.0) | st.floats(0.0, 308.0).map(lambda e: 10.0**e),
        mean=st.floats(0.01, 1000.0),
        variance=st.just(0.0) | st.floats(-2.0, 308.0).map(lambda e: 10.0**e),
        seed=st.integers(0, 100),
    )
    def test_estimates_stay_finite_bounds_every_estimate(
        self, bias, negative, spread, mean, variance, seed
    ):
        spec = OracleWithNoise(-bias if negative else bias, spread, seed)
        truth = DurationEstimate(mean, variance)
        if estimates_stay_finite(spec, truth):
            for height in range(8):
                predict_duration(spec, PredictionFeatures(1, 0, height), truth)
        elif spread == 0.0:  # one scale, so the bound is the estimate
            with pytest.raises(ValueError, match="must be finite"):
                predict_duration(spec, FEATURES, truth)

    def test_oracle_requires_truth(self):
        with pytest.raises(ValueError):
            predict_duration(OracleWithNoise(), FEATURES)

    @pytest.mark.parametrize(
        "kw",
        [
            {"relative_bias": math.nan},
            {"relative_bias": math.inf},
            {"relative_spread": math.nan},
            {"relative_spread": math.inf},
        ],
    )
    def test_oracle_rejects_non_finite_parameters(self, kw):
        with pytest.raises(ValueError, match="must be finite"):
            OracleWithNoise(**kw)

    @pytest.mark.parametrize(
        "mean, variance",
        [(math.nan, 25.0), (math.inf, 25.0), (25.0, math.nan), (25.0, math.inf)],
    )
    def test_constant_rejects_non_finite_parameters(self, mean, variance):
        with pytest.raises(ValueError, match="must be finite"):
            ConstantPredictor(mean, variance)


class TestMape:
    def test_perfect_prediction(self):
        assert mape([100.0, 100.0], [100.0, 100.0]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mape([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mape([], [])

    def test_zero_actual_rejected(self):
        with pytest.raises(ValueError):
            mape([1.0], [0.0])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e4),
                st.floats(min_value=0.1, max_value=1e4),
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariant(self, pairs, k):
        predicted = [p for p, _ in pairs]
        actual = [a for _, a in pairs]
        scaled = mape([p * k for p in predicted], [a * k for a in actual])
        assert scaled == pytest.approx(mape(predicted, actual), rel=1e-9)
