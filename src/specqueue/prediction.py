"""Pluggable build-duration and success estimators plus MAPE evaluation."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence, Union

from specqueue.core import Change

_MIN_MEAN_MINUTES = 0.01


@dataclass(frozen=True)
class DurationEstimate:
    """Normal build-duration model in minutes: N(mean, variance).

    A mean of zero is allowed so that an already-finished build can
    contribute "no remaining time" to a combined estimate; estimators
    themselves never return a mean below 0.01 minutes.
    """

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.mean < 0:
            raise ValueError(f"mean must be >= 0, got {self.mean}")
        if self.variance < 0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")


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
        if self.relative_spread < 0:
            raise ValueError("relative_spread must be >= 0")


@dataclass(frozen=True)
class ConstantPredictor:
    mean: float = 25.0
    variance: float = 25.0

    def __post_init__(self) -> None:
        if self.mean < _MIN_MEAN_MINUTES:
            raise ValueError(f"mean must be >= {_MIN_MEAN_MINUTES}")
        if self.variance < 0:
            raise ValueError("variance must be >= 0")


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


def predict_success(change: Change) -> float:
    """Probability the change's build passes on any base: its static prior."""
    return change.success_prior


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
