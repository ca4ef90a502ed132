"""Tests for finish-time ordering probabilities."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specqueue.completion import normal_cdf, p_finishes_before, z_score
from specqueue.core import BuildOutcome, ChangeId
from specqueue.forest import BuildNode, SpeculationForest
from specqueue.prediction import DurationEstimate
from specqueue.prioritize import finish_time_model

from oracles import reference_finish_time_model, triangle


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


def last_change(builds) -> tuple[SpeculationForest, tuple[BuildNode, ...]]:
    """`triangle(n)` and the 2**(n-1) builds of its last change, C<n>,
    which take `builds`' (mean, variance, finished) in the forest's order."""
    n = len(builds).bit_length()
    forest = triangle(n)
    nodes = tuple(forest.nodes_for_change(ChangeId(n, f"C{n}")))
    for node, (mean, variance, finished) in zip(nodes, builds, strict=True):
        node.estimate = DurationEstimate(mean, variance)
        if finished:
            node.complete(BuildOutcome.PASS, 1.0)
    return forest, nodes


def pooled(builds) -> DurationEstimate:
    forest, nodes = last_change(builds)
    return finish_time_model(nodes[0].change, forest)


class TestCombineEstimates:
    """How `finish_time_model` pools a change's builds: it averages their
    means and their variances, and a finished build counts as zero."""

    def test_two_builds(self):
        got = pooled([(20, 25, False), (30, 9, False)])
        assert got == DurationEstimate(25, 17)

    def test_singleton_identity(self):
        assert pooled([(25, 25, False)]) == DurationEstimate(25, 25)

    def test_three_builds(self):
        # the fourth build has passed, so its estimate no longer counts
        got = pooled([(10, 4, False), (20, 4, False), (30, 4, False), (40, 4, True)])
        assert got == DurationEstimate(15, 3)

    @given(
        st.integers(0, 6).flatmap(
            lambda k: st.lists(
                st.tuples(
                    st.floats(0, 1e6, allow_nan=False),
                    st.floats(0, 1e6, allow_nan=False),
                    st.booleans(),
                ),
                min_size=2**k,
                max_size=2**k,
            )
        )
    )
    def test_equals_the_generator_sums(self, builds):
        # up to 64 builds, some finished: the pooled floats equal the
        # reference's, which adds them one by one, left to right
        forest, nodes = last_change(builds)
        got = finish_time_model(nodes[0].change, forest)
        expected = reference_finish_time_model(nodes)
        assert (got.mean, got.variance) == (expected.mean, expected.variance)


class TestZScore:
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
        x = (0.0, DurationEstimate(25, 25))
        y = (5.0, DurationEstimate(20, 16))
        assert p_finishes_before(*y, *x) == pytest.approx(0.5)

    def test_hours_late_arrival_cannot_win(self):
        x = (0.0, DurationEstimate(20, 16))
        y = (480.0, DurationEstimate(5, 4))
        assert p_finishes_before(*y, *x) < 1e-15

    def test_quick_follower_nearly_certain(self):
        x = (0.0, DurationEstimate(35, 36))
        y = (1.0, DurationEstimate(15, 9))
        assert p_finishes_before(*y, *x) == pytest.approx(0.9977, abs=5e-4)

    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0.1, max_value=60),
        st.floats(min_value=0.1, max_value=50),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0.1, max_value=60),
        st.floats(min_value=0.1, max_value=50),
    )
    def test_complementarity(self, ax, mx, vx, ay, my, vy):
        x = (ax, DurationEstimate(mx, vx))
        y = (ay, DurationEstimate(my, vy))
        assert p_finishes_before(*y, *x) + p_finishes_before(*x, *y) == pytest.approx(
            1.0, abs=1e-9
        )

    @given(
        st.floats(min_value=0, max_value=50),
        st.floats(min_value=0.1, max_value=40),
        st.floats(min_value=0, max_value=20),
    )
    def test_slower_y_never_helps(self, my, vy, bump):
        x = (0.0, DurationEstimate(30, 25))
        y_fast = (5.0, DurationEstimate(my, vy))
        y_slow = (5.0, DurationEstimate(my + bump, vy))
        assert p_finishes_before(*y_slow, *x) <= p_finishes_before(*y_fast, *x) + 1e-12

    def test_monte_carlo_agreement(self):
        import numpy as np

        rng = np.random.default_rng(2024)
        at_x, est_x = 3.0, DurationEstimate(40, 30)
        at_y, est_y = 10.0, DurationEstimate(28, 12)
        n = 1_000_000
        ft_x = at_x + rng.normal(40, math.sqrt(30), n)
        ft_y = at_y + rng.normal(28, math.sqrt(12), n)
        observed = float(np.mean(ft_y < ft_x))
        assert p_finishes_before(at_y, est_y, at_x, est_x) == pytest.approx(
            observed, abs=0.01
        )
