"""Tests for finish-time ordering probabilities."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specqueue.completion import (
    FinishTimeModel,
    combine_estimates,
    normal_cdf,
    p_finishes_before,
    z_score,
)
from specqueue.prediction import DurationEstimate

from oracles import reference_combine_estimates


def phi_by_quadrature(z: float, steps: int = 20000) -> float:
    """Simpson integration of the standard normal density from 0 to |z|."""
    a, b = 0.0, abs(z)
    h = (b - a) / steps
    density = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    total = density(a) + density(b)
    for i in range(1, steps):
        total += density(a + i * h) * (4 if i % 2 else 2)
    half = total * h / 3.0
    return 0.5 + half if z >= 0 else 0.5 - half


class TestCombineEstimates:
    def test_two_builds(self):
        got = combine_estimates([DurationEstimate(20, 25), DurationEstimate(30, 9)])
        assert got == DurationEstimate(25, 17)

    def test_singleton_identity(self):
        assert combine_estimates([DurationEstimate(25, 25)]) == DurationEstimate(25, 25)

    def test_three_builds(self):
        got = combine_estimates(
            [DurationEstimate(10, 4), DurationEstimate(20, 4), DurationEstimate(30, 4)]
        )
        assert got == DurationEstimate(20, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_estimates([])

    @given(
        st.lists(
            st.builds(
                DurationEstimate,
                st.floats(0, 1e6, allow_nan=False),
                st.floats(0, 1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=70,
        )
    )
    def test_equals_the_generator_sums(self, builds):
        got = combine_estimates(builds)
        expected = reference_combine_estimates(builds)
        assert (got.mean, got.variance) == (expected.mean, expected.variance)


class TestZScore:
    def test_equal_effective_finish_times(self):
        # x queued at 0 taking ~25, y queued at 5 taking ~20: dead heat.
        z = z_score(0.0, DurationEstimate(25, 25), 5.0, DurationEstimate(20, 16))
        assert z == pytest.approx(0.0)

    def test_late_long_arrival_is_hugely_negative(self):
        z = z_score(0.0, DurationEstimate(20, 16), 480.0, DurationEstimate(5, 4))
        assert z == pytest.approx(-104.02, abs=0.05)

    def test_quick_follower_is_positive(self):
        z = z_score(0.0, DurationEstimate(35, 36), 1.0, DurationEstimate(15, 9))
        assert z == pytest.approx(2.83, abs=0.005)

    def test_degenerate_point_masses(self):
        fast = DurationEstimate(5, 0)
        slow = DurationEstimate(50, 0)
        assert z_score(0.0, slow, 0.0, fast) == math.inf
        assert z_score(0.0, fast, 0.0, slow) == -math.inf
        assert z_score(0.0, fast, 0.0, fast) == 0.0


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_matches_quadrature_oracle(self):
        assert normal_cdf(-1.96) == pytest.approx(phi_by_quadrature(-1.96), abs=1e-9)
        assert normal_cdf(-1.96) == pytest.approx(0.0250, abs=5e-5)

    def test_case_three_value(self):
        assert normal_cdf(2.83) == pytest.approx(0.9977, abs=5e-5)

    def test_infinities(self):
        assert normal_cdf(math.inf) == 1.0
        assert normal_cdf(-math.inf) == 0.0

    @given(st.floats(min_value=-6, max_value=6))
    def test_complement(self, z):
        assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-9)

    @given(
        st.floats(min_value=-6, max_value=6),
        st.floats(min_value=0, max_value=3),
    )
    def test_nondecreasing(self, z, bump):
        assert normal_cdf(z + bump) >= normal_cdf(z)


class TestPFinishesBefore:
    def test_dead_heat_is_even_odds(self):
        x = FinishTimeModel(0.0, DurationEstimate(25, 25))
        y = FinishTimeModel(5.0, DurationEstimate(20, 16))
        assert p_finishes_before(y, x) == pytest.approx(0.5)

    def test_hours_late_arrival_cannot_win(self):
        x = FinishTimeModel(0.0, DurationEstimate(20, 16))
        y = FinishTimeModel(480.0, DurationEstimate(5, 4))
        assert p_finishes_before(y, x) < 1e-15

    def test_quick_follower_nearly_certain(self):
        x = FinishTimeModel(0.0, DurationEstimate(35, 36))
        y = FinishTimeModel(1.0, DurationEstimate(15, 9))
        assert p_finishes_before(y, x) == pytest.approx(0.9977, abs=5e-4)

    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0.1, max_value=60),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0.1, max_value=60),
        st.floats(min_value=0.1, max_value=50),
    )
    def test_complementarity(self, ax, mx, vx, ay, my, vy):
        x = FinishTimeModel(ax, DurationEstimate(mx, vx))
        y = FinishTimeModel(ay, DurationEstimate(my, vy))
        assert p_finishes_before(y, x) + p_finishes_before(x, y) == pytest.approx(
            1.0, abs=1e-9
        )

    @given(
        st.floats(min_value=0, max_value=50),
        st.floats(min_value=0.1, max_value=40),
        st.floats(min_value=0, max_value=20),
    )
    def test_slower_y_never_helps(self, my, vy, bump):
        x = FinishTimeModel(0.0, DurationEstimate(30, 25))
        y_fast = FinishTimeModel(5.0, DurationEstimate(my, vy))
        y_slow = FinishTimeModel(5.0, DurationEstimate(my + bump, vy))
        assert p_finishes_before(y_slow, x) <= p_finishes_before(y_fast, x) + 1e-12

    def test_monte_carlo_agreement(self):
        import numpy as np

        rng = np.random.default_rng(2024)
        x = FinishTimeModel(3.0, DurationEstimate(40, 30))
        y = FinishTimeModel(10.0, DurationEstimate(28, 12))
        n = 1_000_000
        ft_x = x.arrival + rng.normal(40, math.sqrt(30), n)
        ft_y = y.arrival + rng.normal(28, math.sqrt(12), n)
        observed = float(np.mean(ft_y < ft_x))
        assert p_finishes_before(y, x) == pytest.approx(observed, abs=0.01)
