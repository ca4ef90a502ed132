"""Finish-time ordering probabilities for pairs of queued changes.

A change's finish time is when the last of its outstanding builds
completes. Each build duration is modeled as a normal distribution, the
change's builds are pooled into one combined normal, and the probability
that one change finishes before another reduces to the standard normal
CDF of a Z-score over the two changes' arrivals and pooled estimates.
"""

from __future__ import annotations

import math
from typing import Sequence

from specqueue.prediction import DurationEstimate


def combine_estimates(builds: Sequence[DurationEstimate]) -> DurationEstimate:
    """Pool several builds into one normal by averaging means and variances."""
    if not builds:
        raise ValueError("combine_estimates requires at least one build")
    n = len(builds)
    mean = sum([b.mean for b in builds]) / n
    variance = sum([b.variance for b in builds]) / n
    return DurationEstimate(mean, variance)


def z_score(
    at_x: float,
    est_x: DurationEstimate,
    at_y: float,
    est_y: DurationEstimate,
) -> float:
    """Standardized margin by which change y finishes before change x.

    With both variances zero the comparison is between two point masses:
    the result is +inf, -inf, or 0 by strict order of the deterministic
    finish times.
    """
    mean_diff = est_y.mean - est_x.mean
    total_variance = est_x.variance + est_y.variance
    if total_variance == 0:
        margin = (at_x - at_y) - mean_diff
        if margin > 0:
            return math.inf
        if margin < 0:
            return -math.inf
        return 0.0
    return ((at_x - at_y) - mean_diff) / math.sqrt(total_variance)


def normal_cdf(z: float) -> float:
    """Standard normal CDF; exactly 1.0 and 0.0 at +inf and -inf."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def p_finishes_before(
    at_y: float, est_y: DurationEstimate, at_x: float, est_x: DurationEstimate
) -> float:
    """Probability that change y, arrived at `at_y` with pooled estimate
    `est_y`, has all its builds finish before change x's do."""
    return normal_cdf(z_score(at_x, est_x, at_y, est_y))
