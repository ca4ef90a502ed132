"""Pluggable build-duration estimators plus MAPE evaluation."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence, Union

from specqueue.core import require_types

_MIN_MEAN_MINUTES = 0.01


@dataclass(frozen=True)
class DurationEstimate:
    """Normal build-duration model in minutes: N(mean, variance).

    A mean of zero is allowed: it is the pooled estimate of a change
    whose builds have all finished, with no time remaining. Estimators
    themselves never return a mean below 0.01 minutes.
    """

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not 0 <= self.mean < math.inf:
            raise ValueError(f"mean must be finite and >= 0, got {self.mean}")
        if not 0 <= self.variance < math.inf:
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")


@dataclass(frozen=True)
class PredictionFeatures:
    """Inputs available to a duration predictor for one build node."""

    targets_changed: int = 0
    conflicts_count: int = 0
    speculation_height: int = 0

    def __post_init__(self) -> None:
        for name in ("targets_changed", "conflicts_count", "speculation_height"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class OracleWithNoise:
    """Perturbs a known true duration by a fixed bias plus seeded noise.

    The noise fraction is drawn deterministically from (seed, features,
    truth) and bounded by relative_spread, so prediction error can be
    swept as an experiment variable while runs stay reproducible.
    """

    relative_bias: float = 0.0
    relative_spread: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_types(self)
        if not math.isfinite(self.relative_bias):
            raise ValueError("relative_bias must be finite")
        if not math.isfinite(self.relative_spread) or self.relative_spread < 0:
            raise ValueError("relative_spread must be finite and >= 0")


@dataclass(frozen=True)
class ConstantPredictor:
    mean: float = 25.0
    variance: float = 25.0

    def __post_init__(self) -> None:
        require_types(self)
        if not math.isfinite(self.mean) or self.mean < _MIN_MEAN_MINUTES:
            raise ValueError(f"mean must be finite and >= {_MIN_MEAN_MINUTES}")
        if not math.isfinite(self.variance) or self.variance < 0:
            raise ValueError("variance must be finite and >= 0")


PredictorSpec = Union[OracleWithNoise, ConstantPredictor]


def _noise_fraction(
    seed: int, features: PredictionFeatures, truth: DurationEstimate
) -> float:
    """Deterministic value in [0, 1) keyed on the full prediction input.

    The constant slots stand for features the engine has no value for
    (added and removed targets, line and commit counts, author); they
    keep the key, and so every noise draw, stable across versions.
    """
    key = "|".join(
        (
            str(seed),
            str(features.targets_changed),
            "0|0",  # targets added, targets removed
            str(features.conflicts_count),
            str(features.speculation_height),
            "0|0|0|0|",  # lines added and removed, changesets, commits, author
            repr(truth.mean),
            repr(truth.variance),
        )
    )
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def predict_duration(
    spec: PredictorSpec,
    features: PredictionFeatures,
    truth: DurationEstimate | None = None,
) -> DurationEstimate:
    """Estimate a build's duration distribution under the given predictor.

    OracleWithNoise requires ``truth``.
    """
    if isinstance(spec, ConstantPredictor):
        return DurationEstimate(spec.mean, spec.variance)
    if isinstance(spec, OracleWithNoise):
        if truth is None:
            raise ValueError("OracleWithNoise requires the true duration")
        eta = 0.0
        if spec.relative_spread > 0:
            u = _noise_fraction(spec.seed, features, truth)
            eta = (2.0 * u - 1.0) * spec.relative_spread
        scale = 1.0 + spec.relative_bias + eta
        mean = max(_MIN_MEAN_MINUTES, truth.mean * scale)
        variance = truth.variance * scale * scale
        return DurationEstimate(mean, variance)
    raise TypeError(f"unknown predictor spec: {spec!r}")


def estimates_stay_finite(spec: PredictorSpec, truth: DurationEstimate) -> bool:
    """Whether every estimate `spec` can make from `truth`, or from a truth
    no larger in mean and in variance, is finite. An oracle scales the
    truth by 1 + bias + eta, for noise eta in [-spread, spread], and its
    estimate only grows with the scale's size, so the two ends of that
    range bound every estimate; a constant's estimate is its own."""
    if isinstance(spec, OracleWithNoise):
        for eta in (-spec.relative_spread, spec.relative_spread):
            scale = 1.0 + spec.relative_bias + eta
            if not (
                truth.mean * scale < math.inf
                and truth.variance * scale * scale < math.inf
            ):
                return False
    return True


def mape(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Mean absolute percentage error, in percent."""
    if len(predicted) != len(actual):
        raise ValueError(
            f"length mismatch: {len(predicted)} predictions vs {len(actual)} actuals"
        )
    if not actual:
        raise ValueError("mape requires at least one observation")
    total = 0.0
    for p, a in zip(predicted, actual):
        if a <= 0:
            raise ValueError(f"actual values must be > 0, got {a}")
        total += abs(p - a) / a
    return total / len(actual) * 100.0
