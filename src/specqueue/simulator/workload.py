"""Workload model, generator, and the line-oriented file format.

A workload fixes everything a simulation needs: the change stream with
true build behavior (duration distribution, standalone pass/fail, which
predecessors break it), plus the predictor, engine thresholds, strategy,
and seed. One text line per change keeps files diffable and easy to
write by hand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Container

from specqueue.core import Change, ChangeId, EngineConfig, build_conflict_graph
from specqueue.prediction import (
    ConstantPredictor,
    OracleWithNoise,
    PredictorSpec,
)

STRATEGIES = ("enhanced", "baseline")

# config record keys (the CLI's override flags share them) and the
# EngineConfig fields they set
CONFIG_FIELDS = {
    "delta": "speculation_threshold",
    "tau": "bypass_eligibility_threshold",
    "epsilon": "bypass_product_floor",
    "capacity": "executor_capacity",
    "depth_cap": "depth_cap",
}
_CHANGE_KEYS = ("id", "at", "targets", "mu", "var", "passes", "breakers", "prior")
_PREDICTOR_KEYS = {"oracle": ("bias", "spread", "seed"), "constant": ("mu", "var")}

# Generated durations are bimodal: (mean, variance) in minutes per mode.
SHORT_MEAN, SHORT_VARIANCE = 5.0, 1.0
LONG_MEAN, LONG_VARIANCE = 60.0, 16.0
# A generated change links only to targets of the changes this far back.
LINK_WINDOW = 6


class WorkloadError(ValueError):
    """Malformed workload data (bad file, bad parameters)."""


@dataclass(frozen=True)
class ChangeSpec:
    """One change's arrival and its true, hidden build behavior."""

    id: ChangeId
    arrival_time: float
    targets: frozenset[str]
    true_mean: float
    true_variance: float
    passes_alone: bool = True
    breakers: frozenset[ChangeId] = frozenset()
    success_prior: float = 0.9

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise WorkloadError(f"{self.id}: arrival_time must be >= 0")
        if self.true_mean <= 0:
            raise WorkloadError(f"{self.id}: true_mean must be > 0")
        if self.true_variance < 0:
            raise WorkloadError(f"{self.id}: true_variance must be >= 0")
        if not 0.0 <= self.success_prior <= 1.0:
            raise WorkloadError(f"{self.id}: success_prior must be in [0, 1]")

    def to_change(self) -> Change:
        return Change(
            id=self.id,
            arrival_time=self.arrival_time,
            targets_changed=self.targets,
            success_prior=self.success_prior,
        )


@dataclass(frozen=True)
class WorkloadSpec:
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
        seen: set[ChangeId] = set()
        previous_arrival = 0.0
        for i, spec in enumerate(self.changes):
            if spec.id in seen:
                raise WorkloadError(f"duplicate change id {spec.id}")
            if spec.id.seq != i:
                raise WorkloadError(
                    f"{spec.id}: sequence {spec.id.seq} does not match position {i}"
                )
            if spec.arrival_time < previous_arrival:
                raise WorkloadError(f"{spec.id}: arrival times must be nondecreasing")
            unknown = spec.breakers - seen
            if unknown:
                raise WorkloadError(
                    f"{spec.id}: breakers must be earlier changes, got {sorted(unknown)}"
                )
            seen.add(spec.id)
            previous_arrival = spec.arrival_time

    def by_id(self) -> dict[ChangeId, ChangeSpec]:
        return {spec.id: spec for spec in self.changes}


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
        if self.arrival_rate <= 0:
            raise WorkloadError("arrival_rate must be > 0")
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


def _generate_changes(params: GeneratorParams, p_link: float) -> tuple[ChangeSpec, ...]:
    """One full change stream for a candidate link probability."""
    rng = random.Random(params.seed)
    specs: list[ChangeSpec] = []
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
        # ascending, so the breaker draws below consume the RNG in index order
        conflicting_preds = [ChangeId(j, f"C{j}") for j in sorted(preds)]
        breakers = frozenset(
            p for p in conflicting_preds if rng.random() < params.breaker_rate
        )
        prior_jitter = rng.uniform(-0.04, 0.04)
        prior = (0.92 if passes_alone else 0.15) + prior_jitter
        specs.append(
            ChangeSpec(
                id=ChangeId(i, f"C{i}"),
                arrival_time=round(arrival, 2),
                targets=frozenset(targets),
                true_mean=mean,
                true_variance=variance,
                passes_alone=passes_alone,
                breakers=breakers,
                success_prior=min(1.0, max(0.0, prior)),
            )
        )
    return tuple(specs)


def _conflicted_fraction(specs: tuple[ChangeSpec, ...]) -> float:
    touched: dict[str, int] = {}
    for spec in specs:
        for t in spec.targets:
            touched[t] = touched.get(t, 0) + 1
    conflicted = sum(
        1 for spec in specs if any(touched[t] > 1 for t in spec.targets)
    )
    return conflicted / len(specs)


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
        specs = _generate_changes(params, 0.0)
    elif params.conflict_density >= 1.0:
        specs = _generate_changes(params, 1.0)
    else:
        lo, hi = 0.0, 1.0
        for _ in range(18):
            mid = (lo + hi) / 2.0
            if _conflicted_fraction(_generate_changes(params, mid)) < (
                params.conflict_density
            ):
                lo = mid
            else:
                hi = mid
        specs = _generate_changes(params, (lo + hi) / 2.0)
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
    changes = [spec.to_change() for spec in workload.changes]
    g = build_conflict_graph(changes)
    with_conflicts = sum(1 for c in changes if g.neighbors(c.id))
    return 100.0 * with_conflicts / len(changes)


def format_workload(w: WorkloadSpec) -> str:
    """Render the one-line-per-change text form (parse round-trips it)."""
    lines = ["workload-version 1", f"seed {w.seed}", f"strategy {w.strategy}"]
    lines.append("predictor " + _format_predictor(w.predictor))
    cfg = w.config
    lines.append(
        "config "
        f"delta={cfg.speculation_threshold!r} tau={cfg.bypass_eligibility_threshold!r} "
        f"epsilon={cfg.bypass_product_floor!r} capacity={cfg.executor_capacity} "
        f"depth_cap={cfg.depth_cap}"
    )
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


def _format_predictor(p: PredictorSpec) -> str:
    if isinstance(p, OracleWithNoise):
        return f"oracle bias={p.relative_bias!r} spread={p.relative_spread!r} seed={p.seed}"
    if isinstance(p, ConstantPredictor):
        return f"constant mu={p.mean!r} var={p.variance!r}"
    raise WorkloadError(f"predictor {p!r} has no file form")


def _parse_fields(body: str, line_no: int, keys: Container[str]) -> dict[str, str]:
    """The key=value tokens of a record; every key must be one of `keys`."""
    fields: dict[str, str] = {}
    for token in body.split():
        if "=" not in token:
            raise WorkloadError(f"line {line_no}: expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        if key not in keys:
            raise WorkloadError(f"line {line_no}: unknown field {key!r}")
        if key in fields:
            raise WorkloadError(f"line {line_no}: repeated field {key!r}")
        fields[key] = value
    return fields


def _parse_bool(value: str, line_no: int) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise WorkloadError(f"line {line_no}: expected true/false, got {value!r}")


def parse_workload(text: str) -> WorkloadSpec:
    """Parse the text form; raises WorkloadError on any malformed line."""
    seed = 0
    strategy = "enhanced"
    predictor: PredictorSpec | None = None
    config_fields: dict[str, str] = {}
    change_rows: list[tuple[int, dict[str, str]]] = []
    labels: dict[str, ChangeId] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, _, body = line.partition(" ")
        try:
            if kind == "workload-version":
                if body.strip() != "1":
                    raise WorkloadError(f"unsupported workload version {body!r}")
            elif kind == "seed":
                seed = int(body)
            elif kind == "strategy":
                strategy = body.strip()
            elif kind == "predictor":
                predictor = _parse_predictor(body, line_no)
            elif kind == "config":
                config_fields = _parse_fields(body, line_no, CONFIG_FIELDS)
            elif kind == "change":
                fields = _parse_fields(body, line_no, _CHANGE_KEYS)
                change_rows.append((line_no, fields))
            else:
                raise WorkloadError(f"line {line_no}: unknown record {kind!r}")
        except (ValueError, KeyError) as exc:
            if isinstance(exc, WorkloadError):
                raise
            raise WorkloadError(f"line {line_no}: {exc}") from exc

    specs: list[ChangeSpec] = []
    for seq, (line_no, f) in enumerate(change_rows):
        try:
            label = f["id"]
            if label in labels:
                raise WorkloadError(f"line {line_no}: duplicate change id {label!r}")
            breakers = [b for b in f.get("breakers", "").split(",") if b]
            for b in breakers:
                if b not in labels:
                    raise WorkloadError(
                        f"line {line_no}: breaker {b!r} is not an earlier change"
                    )
            cid = ChangeId(seq, label)
            labels[label] = cid
            breaker_ids = frozenset(labels[b] for b in breakers)
            specs.append(
                ChangeSpec(
                    id=cid,
                    arrival_time=float(f["at"]),
                    targets=frozenset(t for t in f.get("targets", "").split(",") if t),
                    true_mean=float(f["mu"]),
                    true_variance=float(f["var"]),
                    passes_alone=_parse_bool(f.get("passes", "true"), line_no),
                    breakers=breaker_ids,
                    success_prior=float(f.get("prior", "0.9")),
                )
            )
        except KeyError as exc:
            raise WorkloadError(f"line {line_no}: missing field {exc}") from exc
        except ValueError as exc:
            if isinstance(exc, WorkloadError):
                raise
            raise WorkloadError(f"line {line_no}: {exc}") from exc

    defaults = EngineConfig()
    try:
        # a given value takes the type of the field's default
        config = replace(
            defaults,
            **{
                CONFIG_FIELDS[key]: type(getattr(defaults, CONFIG_FIELDS[key]))(value)
                for key, value in config_fields.items()
            },
        )
    except ValueError as exc:
        raise WorkloadError(f"config: {exc}") from exc
    return WorkloadSpec(
        changes=tuple(specs),
        seed=seed,
        strategy=strategy,
        predictor=predictor if predictor is not None else OracleWithNoise(seed=seed),
        config=config,
    )


def _parse_predictor(body: str, line_no: int) -> PredictorSpec:
    kind, _, rest = body.strip().partition(" ")
    if kind not in _PREDICTOR_KEYS:
        raise WorkloadError(f"line {line_no}: unknown predictor {kind!r}")
    f = _parse_fields(rest, line_no, _PREDICTOR_KEYS[kind])
    if kind == "oracle":
        return OracleWithNoise(
            relative_bias=float(f.get("bias", "0")),
            relative_spread=float(f.get("spread", "0")),
            seed=int(f.get("seed", "0")),
        )
    return ConstantPredictor(
        mean=float(f.get("mu", "25")), variance=float(f.get("var", "25"))
    )
