"""Workload model, generator, and the line-oriented file format.

A workload fixes everything a simulation needs: the change stream with
true build behavior (duration distribution, standalone pass/fail, which
predecessors break it), plus the predictor, engine thresholds, strategy,
and seed. One text line per change keeps files diffable and easy to
write by hand.

A change's id is its position in the change tuple, the only index of
changes. One field table per record (CONFIG_FIELDS, PREDICTORS) feeds
one parse path and one format path. An error in a line names that line;
the checks that span lines (arrival order, a breaker's targets, an empty
file) name the change instead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Container, Mapping

from specqueue.core import ChangeId, EngineConfig, build_conflict_graph
from specqueue.prediction import (
    ConstantPredictor,
    OracleWithNoise,
    PredictorSpec,
)

STRATEGIES = ("enhanced", "baseline")

# A record's keys and the dataclass fields they set, in file order. A value
# takes the type of its field's default, and an omitted field keeps that
# default. The CLI's override flags share the config keys.
CONFIG_FIELDS = {
    "delta": "speculation_threshold",
    "tau": "bypass_eligibility_threshold",
    "epsilon": "bypass_product_floor",
    "capacity": "executor_capacity",
    "depth_cap": "depth_cap",
}
# predictor kind -> (class, record fields)
PREDICTORS = {
    "oracle": (
        OracleWithNoise,
        {"bias": "relative_bias", "spread": "relative_spread", "seed": "seed"},
    ),
    "constant": (ConstantPredictor, {"mu": "mean", "var": "variance"}),
}
_CHANGE_KEYS = ("id", "at", "targets", "mu", "var", "passes", "breakers", "prior")

# Generated durations are bimodal: (mean, variance) in minutes per mode.
SHORT_MEAN, SHORT_VARIANCE = 5.0, 1.0
LONG_MEAN, LONG_VARIANCE = 60.0, 16.0
# A generated change links only to targets of the changes this far back.
LINK_WINDOW = 6


class WorkloadError(ValueError):
    """Malformed workload data (bad file, bad parameters)."""


def _is_list_item(text: str) -> bool:
    """Whether the file format writes text back as one list item.

    The format splits fields on whitespace and lists on commas; split()
    is [text] only for a non-empty text with no whitespace.
    """
    return "," not in text and text.split() == [text]


@dataclass(frozen=True)
class ChangeSpec:
    """The one record of a change: its arrival, its build targets, its
    success prior, and its true, hidden build behavior."""

    id: ChangeId
    arrival_time: float
    targets: frozenset[str]
    true_mean: float
    true_variance: float
    passes_alone: bool = True
    breakers: frozenset[ChangeId] = frozenset()
    success_prior: float = 0.9

    def __post_init__(self) -> None:
        label = self.id.label
        if not _is_list_item(label):
            raise WorkloadError(
                f"change id {label!r} must be non-empty, with no comma or whitespace"
            )
        bad = [t for t in self.targets if not _is_list_item(t)]
        if bad:
            raise WorkloadError(
                f"{self.id}: target {min(bad)!r} must be non-empty, "
                "with no comma or whitespace"
            )
        if not math.isfinite(self.arrival_time) or self.arrival_time < 0:
            raise WorkloadError(f"{self.id}: arrival_time must be finite and >= 0")
        if not math.isfinite(self.true_mean) or self.true_mean <= 0:
            raise WorkloadError(f"{self.id}: true_mean must be finite and > 0")
        if not math.isfinite(self.true_variance) or self.true_variance < 0:
            raise WorkloadError(f"{self.id}: true_variance must be finite and >= 0")
        if not 0.0 <= self.success_prior <= 1.0:
            raise WorkloadError(f"{self.id}: success_prior must be in [0, 1]")


@dataclass(frozen=True)
class WorkloadSpec:
    """A change stream and how to run it; `changes[c]` is change c's record."""

    changes: tuple[ChangeSpec, ...]
    seed: int = 0
    strategy: str = "enhanced"
    predictor: PredictorSpec = OracleWithNoise()
    config: EngineConfig = EngineConfig()

    def __post_init__(self) -> None:
        if not self.changes:
            raise WorkloadError("workload needs at least one change")
        if self.strategy not in STRATEGIES:
            raise WorkloadError(f"unknown strategy {self.strategy!r}")
        seqs: dict[str, int] = {}  # the earlier changes' labels to their seqs
        previous_arrival = 0.0
        for i, spec in enumerate(self.changes):
            if spec.id.label in seqs:
                raise WorkloadError(f"duplicate change id {spec.id}")
            if spec.id.seq != i:
                raise WorkloadError(
                    f"{spec.id}: sequence {spec.id.seq} does not match position {i}"
                )
            if spec.arrival_time < previous_arrival:
                raise WorkloadError(f"{spec.id}: arrival times must be nondecreasing")
            # ids compare by seq alone, so a breaker must match in label too
            unknown = [b for b in spec.breakers if seqs.get(b.label) != b]
            if unknown:
                raise WorkloadError(
                    f"{spec.id}: breakers must be earlier changes, got {sorted(unknown)}"
                )
            # the engine orders only conflicting changes, so a breaker that
            # shares no target could land after the change it breaks
            for b in sorted(spec.breakers):
                if spec.targets.isdisjoint(self.changes[b].targets):
                    raise WorkloadError(
                        f"{spec.id}: breaker {b.label!r} shares no target with it"
                    )
            seqs[spec.id.label] = i
            previous_arrival = spec.arrival_time


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for synthetic workloads.

    conflict_density is the target fraction of changes that conflict
    with at least one other change; linkage probability is solved from
    it. short_fraction is the share of changes in the short duration
    mode (SHORT_MEAN); the rest are long (LONG_MEAN).
    """

    n_changes: int = 500
    arrival_rate: float = 0.25
    conflict_density: float = 0.3
    short_fraction: float = 0.7
    fail_rate: float = 0.1
    breaker_rate: float = 0.3
    seed: int = 0
    long_target_bias: float = 0.0
    long_second_link: float = 0.0

    def __post_init__(self) -> None:
        if self.n_changes < 1:
            raise WorkloadError("n_changes must be >= 1")
        if not 0 < self.arrival_rate < math.inf:
            raise WorkloadError("arrival_rate must be finite and > 0")
        for name in (
            "conflict_density",
            "short_fraction",
            "fail_rate",
            "breaker_rate",
            "long_target_bias",
            "long_second_link",
        ):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise WorkloadError(f"{name} must be in [0, 1]")


def _generate_changes(
    params: GeneratorParams, p_link: float
) -> tuple[list[tuple], float]:
    """One full change stream for a candidate link probability, and the
    share of its changes that share a target with another.

    A change is a plain row, (arrival, targets, mean, variance, passes
    alone, breaker indices, prior), since the bisection discards all but
    one stream; `generate_workload` makes specs of the kept one.
    """
    rng = random.Random(params.seed)
    rows: list[tuple] = []
    arrival = 0.0
    # indices of the changes touching each target, ascending
    indices_by_target: dict[str, list[int]] = {}
    long_indices: list[int] = []
    conflicted: set[int] = set()
    for i in range(params.n_changes):
        if i > 0:
            arrival += rng.expovariate(params.arrival_rate)

        is_short = rng.random() < params.short_fraction
        if is_short:
            mean, variance = SHORT_MEAN, SHORT_VARIANCE
        else:
            mean, variance = LONG_MEAN, LONG_VARIANCE

        targets = {f"t{i}"}
        window_start = max(0, i - LINK_WINDOW)
        linked = i > 0 and rng.random() < p_link
        if linked:
            recent_longs = [j for j in long_indices if j >= window_start]
            if (
                params.long_target_bias > 0
                and recent_longs
                and rng.random() < params.long_target_bias
            ):
                # chain-forming: extend an existing conflict run when
                # one is still in the window, else start a fresh one
                chained = [j for j in recent_longs if j in conflicted]
                j = chained[-1] if chained else recent_longs[-1]
            else:
                j = rng.randrange(window_start, i)
            targets.add(f"t{j}")
            conflicted.add(j)
            conflicted.add(i)
        if (
            linked
            and not is_short
            and params.long_second_link > 0
            and rng.random() < params.long_second_link
        ):
            j = rng.randrange(window_start, i)
            targets.add(f"t{j}")
            conflicted.add(j)
            conflicted.add(i)
        if not is_short:
            long_indices.append(i)

        passes_alone = rng.random() >= params.fail_rate
        preds: set[int] = set()
        for t in targets:
            touching = indices_by_target.setdefault(t, [])
            preds.update(touching)
            touching.append(i)
        # ascending, so the breaker draws consume the RNG in index order
        breakers = [j for j in sorted(preds) if rng.random() < params.breaker_rate]
        prior_jitter = rng.uniform(-0.04, 0.04)
        prior = (0.92 if passes_alone else 0.15) + prior_jitter
        rows.append(
            (
                round(arrival, 2),
                targets,
                mean,
                variance,
                passes_alone,
                breakers,
                min(1.0, max(0.0, prior)),
            )
        )
    return rows, len(conflicted) / params.n_changes


def generate_workload(
    params: GeneratorParams,
    strategy: str = "enhanced",
    predictor: PredictorSpec | None = None,
    config: EngineConfig | None = None,
) -> WorkloadSpec:
    """Deterministic synthetic change stream.

    Each change owns a private target; with some probability it also
    touches targets of recent changes, which is what creates conflicts.
    The link probability is calibrated by bisection against the
    realized conflict rate, so the structural knobs (bias, second
    links) cannot drift the density. Breakers are drawn only
    from a change's conflicting predecessors, so landing order decided
    purely among non-conflicting changes can never break anyone.
    """
    if params.conflict_density <= 0.0:
        p_link = 0.0
    elif params.conflict_density >= 1.0:
        p_link = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(18):
            mid = (lo + hi) / 2.0
            if _generate_changes(params, mid)[1] < params.conflict_density:
                lo = mid
            else:
                hi = mid
        p_link = (lo + hi) / 2.0
    rows, _ = _generate_changes(params, p_link)
    ids = [ChangeId(i, f"C{i}") for i in range(params.n_changes)]
    specs = tuple(
        ChangeSpec(
            id=cid,
            arrival_time=arrival,
            targets=frozenset(targets),
            true_mean=mean,
            true_variance=variance,
            passes_alone=passes,
            breakers=frozenset(ids[j] for j in breakers),
            success_prior=prior,
        )
        for cid, (arrival, targets, mean, variance, passes, breakers, prior) in zip(
            ids, rows
        )
    )
    return WorkloadSpec(
        changes=specs,
        seed=params.seed,
        strategy=strategy,
        predictor=predictor
        if predictor is not None
        else OracleWithNoise(seed=params.seed),
        config=config if config is not None else EngineConfig(),
    )


def static_conflict_rate(workload: WorkloadSpec) -> float:
    """Percentage of changes sharing a target with any other change."""
    g = build_conflict_graph({s.id: s.targets for s in workload.changes})
    with_conflicts = sum(1 for s in workload.changes if g.neighbors(s.id))
    return 100.0 * with_conflicts / len(workload.changes)


def format_workload(w: WorkloadSpec) -> str:
    """Render the one-line-per-change text form (parse round-trips it)."""
    for kind, (cls, fields) in PREDICTORS.items():
        if isinstance(w.predictor, cls):
            break
    else:
        raise WorkloadError(f"predictor {w.predictor!r} has no file form")
    lines = [
        "workload-version 1",
        f"seed {w.seed}",
        f"strategy {w.strategy}",
        f"predictor {kind} {_format_record(w.predictor, fields)}",
        f"config {_format_record(w.config, CONFIG_FIELDS)}",
    ]
    for s in w.changes:
        lines.append(
            "change "
            f"id={s.id.label} at={s.arrival_time!r} targets={','.join(sorted(s.targets))} "
            f"mu={s.true_mean!r} var={s.true_variance!r} "
            f"passes={'true' if s.passes_alone else 'false'} "
            f"breakers={','.join(b.label for b in sorted(s.breakers))} "
            f"prior={s.success_prior!r}"
        )
    return "\n".join(lines) + "\n"


def _format_record(record: object, fields: Mapping[str, str]) -> str:
    return " ".join(f"{key}={getattr(record, field)!r}" for key, field in fields.items())


def _parse_record(cls: type, fields: Mapping[str, str], body: str):
    """A `cls` from a record's key=value tokens; see CONFIG_FIELDS."""
    defaults = cls()
    return cls(
        **{
            fields[key]: type(getattr(defaults, fields[key]))(value)
            for key, value in _parse_fields(body, fields).items()
        }
    )


def _parse_fields(body: str, keys: Container[str]) -> dict[str, str]:
    """The key=value tokens of a record; every key must be one of `keys`."""
    fields: dict[str, str] = {}
    for token in body.split():
        if "=" not in token:
            raise WorkloadError(f"expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        if key not in keys:
            raise WorkloadError(f"unknown field {key!r}")
        if key in fields:
            raise WorkloadError(f"repeated field {key!r}")
        fields[key] = value
    return fields


def _parse_bool(value: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise WorkloadError(f"expected true/false, got {value!r}")


def parse_workload(text: str) -> WorkloadSpec:
    """Parse the text form; a WorkloadError names the first malformed line."""
    seed = 0
    strategy = "enhanced"
    predictor: PredictorSpec | None = None
    config = EngineConfig()
    specs: list[ChangeSpec] = []
    labels: dict[str, ChangeId] = {}
    given: set[str] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, _, body = line.partition(" ")
        try:
            if kind != "change":  # any other record may be given once
                if kind in given:
                    raise WorkloadError(f"repeated {kind!r} record")
                given.add(kind)
            if kind == "workload-version":
                if body.strip() != "1":
                    raise WorkloadError(f"unsupported workload version {body!r}")
            elif kind == "seed":
                seed = int(body)
            elif kind == "strategy":
                strategy = body.strip()
                if strategy not in STRATEGIES:
                    raise WorkloadError(f"unknown strategy {strategy!r}")
            elif kind == "predictor":
                name, _, rest = body.strip().partition(" ")
                if name not in PREDICTORS:
                    raise WorkloadError(f"unknown predictor {name!r}")
                predictor = _parse_record(*PREDICTORS[name], rest)
            elif kind == "config":
                config = _parse_record(EngineConfig, CONFIG_FIELDS, body)
            elif kind == "change":
                specs.append(_parse_change(body, labels))
            else:
                raise WorkloadError(f"unknown record {kind!r}")
        except (ValueError, KeyError) as exc:
            problem = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise WorkloadError(f"line {line_no}: {problem}") from exc

    return WorkloadSpec(
        changes=tuple(specs),
        seed=seed,
        strategy=strategy,
        predictor=predictor if predictor is not None else OracleWithNoise(seed=seed),
        config=config,
    )


def _parse_change(body: str, labels: dict[str, ChangeId]) -> ChangeSpec:
    """One change record. `labels` maps the earlier changes' labels to
    their ids; the new change's label is added to it. An omitted
    `passes` or `prior` keeps ChangeSpec's default."""
    f = _parse_fields(body, _CHANGE_KEYS)
    label = f["id"]
    if label in labels:
        raise WorkloadError(f"duplicate change id {label!r}")
    breakers = [b for b in f.get("breakers", "").split(",") if b]
    for b in breakers:
        if b not in labels:
            raise WorkloadError(f"breaker {b!r} is not an earlier change")
    cid = ChangeId(len(labels), label)
    labels[label] = cid
    optional = {}
    if "passes" in f:
        optional["passes_alone"] = _parse_bool(f["passes"])
    if "prior" in f:
        optional["success_prior"] = float(f["prior"])
    return ChangeSpec(
        id=cid,
        arrival_time=float(f["at"]),
        targets=frozenset(t for t in f.get("targets", "").split(",") if t),
        true_mean=float(f["mu"]),
        true_variance=float(f["var"]),
        breakers=frozenset(labels[b] for b in breakers),
        **optional,
    )
