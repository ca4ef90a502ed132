"""Tests for duration/success estimators and MAPE."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specqueue.core import Change, ChangeId
from specqueue.prediction import (
    ConstantPredictor,
    DurationEstimate,
    OracleWithNoise,
    PredictionFeatures,
    mape,
    predict_duration,
    predict_success,
)

FEATURES = PredictionFeatures(targets_changed=3, conflicts_count=2, speculation_height=1)


class TestDurationEstimate:
    def test_rejects_negative_mean(self):
        with pytest.raises(ValueError):
            DurationEstimate(-1.0, 4.0)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            DurationEstimate(10.0, -0.5)

    def test_zero_mean_allowed_for_finished_builds(self):
        DurationEstimate(0.0, 0.0)


class TestPredictDuration:
    def test_constant_ignores_features(self):
        spec = ConstantPredictor(25.0, 25.0)
        assert predict_duration(spec, FEATURES) == DurationEstimate(25.0, 25.0)
        assert predict_duration(spec, PredictionFeatures()) == DurationEstimate(25.0, 25.0)

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

    def test_oracle_requires_truth(self):
        with pytest.raises(ValueError):
            predict_duration(OracleWithNoise(), FEATURES)


class TestPredictSuccess:
    @pytest.mark.parametrize("prior", [0.0, 0.9, 1.0])
    def test_returns_the_change_prior(self, prior):
        c = Change(id=ChangeId(0, "C0"), arrival_time=0.0, success_prior=prior)
        assert predict_success(c) == prior


class TestMape:
    def test_single_overestimate(self):
        assert mape([110.0], [100.0]) == pytest.approx(10.0)

    def test_perfect_prediction(self):
        assert mape([100.0, 100.0], [100.0, 100.0]) == 0.0

    def test_mixed_errors_average(self):
        # |90-100|/100 = 10% and |120-100|/100 = 20%, averaging to 15%.
        assert mape([90.0, 120.0], [100.0, 100.0]) == pytest.approx(15.0)

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
