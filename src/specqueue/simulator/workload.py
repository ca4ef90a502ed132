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
import re
from dataclasses import dataclass
from math import log
from operator import lt
from typing import Container, Mapping

from specqueue.core import ChangeId, EngineConfig, build_conflict_graph, require_types
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
_CHANGE_KEYS = frozenset("id at targets mu var passes breakers prior".split())

# Generated durations are bimodal: (mean, variance) in minutes per mode.
SHORT_MEAN, SHORT_VARIANCE = 5.0, 1.0
LONG_MEAN, LONG_VARIANCE = 60.0, 16.0
# A generated change links only to targets of the changes this far back.
LINK_WINDOW = 6


class WorkloadError(ValueError):
    """Malformed workload data (bad file, bad parameters)."""


# Whether the file format writes a text back as one list item: non-empty,
# with no comma and no whitespace. The format splits lists on commas and
# fields on str.split()'s whitespace, the characters \s matches.
_list_item = re.compile(r"[^\s,]+").fullmatch


@dataclass(frozen=True, slots=True)
class ChangeSpec:
    """The one record of a change: its arrival, its build targets, its
    success prior, and its true, hidden build behavior. The generator
    and the parser give every change without breakers the one default
    empty tuple.

    Targets and breakers are strictly increasing tuples, the order the
    file format writes them in: a tuple holds a one-target change in
    less than a quarter of a frozenset's bytes. A tuple already in that
    form is kept after one check made in C; any other collection (a set,
    a list, an unsorted tuple or one with repeats) is replaced by its
    distinct members, sorted. A `str` or `bytes` is refused, since its
    members are its characters."""

    id: ChangeId
    arrival_time: float
    targets: tuple[str, ...]
    true_mean: float
    true_variance: float
    passes_alone: bool = True
    breakers: tuple[ChangeId, ...] = ()
    success_prior: float = 0.9

    def __post_init__(self) -> None:
        cid, targets, breakers = self.id, self.targets, self.breakers
        if not _list_item(cid.label):
            raise WorkloadError(
                f"change id {cid.label!r} must be non-empty, "
                "with no comma or whitespace"
            )
        # a tuple of at most one item is in order, a longer one is checked;
        # written out twice, since a helper would add a Python call per field
        if type(targets) is not tuple or (
            len(targets) > 1 and not all(map(lt, targets, targets[1:]))
        ):
            if isinstance(targets, (str, bytes)):
                raise WorkloadError(f"{cid}: targets must not be a text: {targets!r}")
            targets = tuple(sorted(set(targets)))
            object.__setattr__(self, "targets", targets)
        if type(breakers) is not tuple or (
            len(breakers) > 1 and not all(map(lt, breakers, breakers[1:]))
        ):
            if isinstance(breakers, (str, bytes)):
                raise WorkloadError(f"{cid}: breakers must not be a text: {breakers!r}")
            object.__setattr__(self, "breakers", tuple(sorted(set(breakers))))
        for target in targets:
            if not _list_item(target):
                raise WorkloadError(
                    f"{cid}: target {target!r} must be non-empty, "
                    "with no comma or whitespace"
                )
        # a bool in a float field is written `True`, which the parser
        # rejects, and a passes_alone but a bool reads back as one; one
        # expression tests all five, and the rule names the field
        if (
            type(self.arrival_time) is bool
            or type(self.true_mean) is bool
            or type(self.true_variance) is bool
            or type(self.success_prior) is bool
            or type(self.passes_alone) is not bool
        ):
            require_types(self, WorkloadError)
        if not 0 <= self.arrival_time < math.inf:
            raise WorkloadError(f"{cid}: arrival_time must be finite and >= 0")
        if not 0 < self.true_mean < math.inf:
            raise WorkloadError(f"{cid}: true_mean must be finite and > 0")
        if not 0 <= self.true_variance < math.inf:
            raise WorkloadError(f"{cid}: true_variance must be finite and >= 0")
        if not 0.0 <= self.success_prior <= 1.0:
            raise WorkloadError(f"{cid}: success_prior must be in [0, 1]")


@dataclass(frozen=True)
class WorkloadSpec:
    """A change stream and how to run it; `changes[c]` is change c's record.
    The one place that decides an omitted field: a None predictor is the
    noiseless oracle seeded with `seed`, and a None config EngineConfig()."""

    changes: tuple[ChangeSpec, ...]
    seed: int = 0
    strategy: str = "enhanced"
    predictor: PredictorSpec | None = None
    config: EngineConfig | None = None

    def __post_init__(self) -> None:
        require_types(self, WorkloadError)
        if self.predictor is None:
            object.__setattr__(self, "predictor", OracleWithNoise(seed=self.seed))
        if self.config is None:
            object.__setattr__(self, "config", EngineConfig())
        if not self.changes:
            raise WorkloadError("workload needs at least one change")
        if self.strategy not in STRATEGIES:
            raise WorkloadError(f"unknown strategy {self.strategy!r}")
        seqs: dict[str, int] = {}  # the earlier changes' labels to their seqs
        previous_arrival = 0.0
        for i, spec in enumerate(self.changes):
            cid = spec.id
            label = cid.label
            if label in seqs:
                raise WorkloadError(f"duplicate change id {cid}")
            if cid.seq != i:
                raise WorkloadError(
                    f"{cid}: sequence {cid.seq} does not match position {i}"
                )
            arrival = spec.arrival_time
            if arrival < previous_arrival:
                raise WorkloadError(f"{cid}: arrival times must be nondecreasing")
            if spec.breakers:
                # ids compare by seq alone, so a breaker must match in label too
                unknown = [b for b in spec.breakers if seqs.get(b.label) != b]
                if unknown:
                    raise WorkloadError(
                        f"{cid}: breakers must be earlier changes, got {unknown}"
                    )
                # the engine orders only conflicting changes, so a breaker that
                # shares no target could land after the change it breaks
                targets = set(spec.targets)
                for b in spec.breakers:
                    if targets.isdisjoint(self.changes[b].targets):
                        raise WorkloadError(
                            f"{cid}: breaker {b.label!r} shares no target with it"
                        )
            seqs[label] = i
            previous_arrival = arrival


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
        require_types(self, WorkloadError)
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
    params: GeneratorParams, p_link: float, *, probe: bool = False
) -> tuple[list[tuple] | None, float, float, float]:
    """One change stream for a candidate link probability: its rows, the
    share of its changes that share a target with another, and the
    interval (below, above] of link probabilities that draw this stream.

    A change is a plain row, (arrival, targets, mean, variance, passes
    alone, breakers, prior), since the bisection discards all but one
    stream; `generate_workload` makes specs of the kept one, names its
    targets, and rounds the arrival and clamps the prior as it does.
    Targets and breakers are row indices, and row i owns target i. A
    link reaches back LINK_WINDOW rows at most, and a chain-forming link
    reads only those long rows, which `is_long` marks. A change shares a
    target iff it has a predecessor on its targets or is one. A target's
    members (the rows touching it) are ascending, and all but its owner
    are conflicted already, since each linked to it.

    The stream depends on p_link only through its link draws' `u <
    p_link`, and every other draw follows from those. So every p in
    (below, above] draws the same stream, where below is the largest
    link draw under p_link and above the smallest at or over it (each
    infinite if there is none).

    A probe, which the bisection makes, returns None for the rows and
    builds none: it makes every draw in the same order, so it finds the
    same share and interval, but a row's pass, breaker, prior and
    arrival draws are only made, not read.

    A draw of `expovariate`, `uniform` or `randrange(start, stop)` is
    made inline: one call of `rng.random`, in C, or of the local
    `randbelow`, then that method's own arithmetic on the result, so it
    must equal what the method returns. `randbelow` draws as `random`'s
    own does, from the public `rng.getrandbits`. tests/oracles.py keeps
    the loop that calls the methods. The parameters are read into locals
    once per stream.
    """
    rng = random.Random(params.seed)
    draw = rng.random
    getrandbits = rng.getrandbits

    def randbelow(n: int) -> int:
        """An int in [0, n): `n.bit_length()` bits, redrawn while >= n.
        randrange(a, b) is a + randbelow(b - a)."""
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    rate = params.arrival_rate
    short_fraction = params.short_fraction
    fail_rate = params.fail_rate
    breaker_rate = params.breaker_rate
    long_target_bias = params.long_target_bias
    long_second_link = params.long_second_link
    n = params.n_changes
    rows: list[tuple] | None = None if probe else []
    arrival = 0.0
    below, above = -math.inf, math.inf
    # members[t]: the rows touching target t, once a later row links to it
    members: dict[int, list[int]] = {}
    conflicted = bytearray(n)
    is_long = bytearray(n)
    # the breakers of every row without any, one list for all of them: a
    # list per row would be one more object for the garbage collector to
    # track (nothing mutates a row)
    no_breakers: list[int] = []
    for i in range(n):
        is_short = draw() < short_fraction
        if not is_short:
            is_long[i] = 1

        linked = False
        if i > 0:
            u = draw()
            linked = u < p_link
            if linked:
                if u > below:
                    below = u
            elif u < above:
                above = u
        if not linked:
            if probe:  # the pass, prior and arrival draws
                draw()
                draw()
                draw()
                continue
            passes_alone = draw() >= fail_rate
            targets, breakers = (i,), no_breakers
        else:
            window_start = max(0, i - LINK_WINDOW)
            recent_longs = long_target_bias > 0 and [
                j for j in range(window_start, i) if is_long[j]
            ]
            if recent_longs and draw() < long_target_bias:
                # chain-forming: extend an existing conflict run when
                # one is still in the window, else start a fresh one
                chained = [j for j in recent_longs if conflicted[j]]
                j = chained[-1] if chained else recent_longs[-1]
            else:
                j = window_start + randbelow(i - window_start)
            k = j
            if not is_short and long_second_link > 0 and draw() < long_second_link:
                k = window_start + randbelow(i - window_start)
            on_j = members.setdefault(j, [j])
            if k == j:
                targets, preds = (i, j), on_j
            else:
                on_k = members.setdefault(k, [k])
                targets, preds = (i, j, k), sorted({*on_j, *on_k})
                on_k.append(i)
                conflicted[k] = 1
            if probe:  # the pass, breaker, prior and arrival draws
                for _ in range(len(preds) + 3):
                    draw()
            else:
                passes_alone = draw() >= fail_rate
                breakers = [p for p in preds if draw() < breaker_rate]
            on_j.append(i)
            conflicted[i] = conflicted[j] = 1
            if probe:
                continue
        if is_short:
            mean, variance = SHORT_MEAN, SHORT_VARIANCE
        else:
            mean, variance = LONG_MEAN, LONG_VARIANCE
        # uniform(-0.04, 0.04)
        prior = (0.92 if passes_alone else 0.15) + (-0.04 + (0.04 - -0.04) * draw())
        rows.append((arrival, targets, mean, variance, passes_alone, breakers, prior))
        # the next row's expovariate(rate), drawn where it falls in the sequence
        arrival += -log(1.0 - draw()) / rate
    return rows, conflicted.count(1) / n, below, above


def _calibrated_rows(params: GeneratorParams) -> list[tuple]:
    """The rows of the stream whose link probability is bisected against
    params.conflict_density. The bisection's probes build no rows, and
    each distinct stream is probed once; the rows are drawn once, in
    full, at the final midpoint.

    Only the probes last made below the target (`low`) and at or over it
    (`high`) are kept, as (share, below, above). A midpoint inside
    either's interval takes its answer without drawing. That is enough:
    an interval is convex, and every earlier probe lies at or under lo
    or at or over hi, so an earlier stream whose interval holds the
    midpoint also holds lo or hi, and draws the stream kept there.
    """
    density = params.conflict_density
    if density in (0.0, 1.0):  # no link, or every link
        return _generate_changes(params, density)[0]

    lo, hi = 0.0, 1.0
    low = high = None
    for _ in range(18):
        mid = (lo + hi) / 2.0
        if low is not None and low[1] < mid <= low[2]:
            probed = low
        elif high is not None and high[1] < mid <= high[2]:
            probed = high
        else:
            probed = _generate_changes(params, mid, probe=True)[1:]
        if probed[0] < density:
            lo, low = mid, probed
        else:
            hi, high = mid, probed
    return _generate_changes(params, (lo + hi) / 2.0)[0]


def generate_workload(
    params: GeneratorParams, config: EngineConfig | None = None
) -> WorkloadSpec:
    """Deterministic synthetic change stream.

    Each change owns a private target; with some probability it also
    touches targets of recent changes, which is what creates conflicts.
    The link probability is calibrated by bisection against the
    realized conflict rate, so the structural knobs (bias, second
    links) cannot drift the density. Breakers are drawn only
    from a change's conflicting predecessors, so landing order decided
    purely among non-conflicting changes can never break anyone. Every
    field but the seed and config keeps WorkloadSpec's default. A stream
    whose last arrival is at or past 2**45 minutes raises, naming
    arrival_rate, since no run could resolve its times.
    """
    rows = _calibrated_rows(params)
    # past 2**46 minutes half an ulp of a time exceeds the 0.005 minute a
    # run keeps a build's duration to; 2**45 leaves a run room to grow
    if rows[-1][0] >= 2.0**45:
        raise WorkloadError(
            f"arrival_rate {params.arrival_rate!r} draws arrivals past 2**45 minutes"
        )
    ids = [ChangeId(i, f"C{i}") for i in range(params.n_changes)]
    names = [f"t{i}" for i in range(params.n_changes)]
    specs = [
        ChangeSpec(
            cid,
            round(arrival, 2),
            tuple(sorted(map(names.__getitem__, targets))),
            mean,
            variance,
            passes,
            tuple(map(ids.__getitem__, breakers)) if breakers else (),
            min(1.0, max(0.0, prior)),
        )
        for cid, (arrival, targets, mean, variance, passes, breakers, prior) in zip(
            ids, rows
        )
    ]
    return WorkloadSpec(changes=tuple(specs), seed=params.seed, config=config)


def static_conflict_rate(workload: WorkloadSpec) -> float:
    """Percentage of changes sharing a target with any other change."""
    g = build_conflict_graph({s.id: s.targets for s in workload.changes})
    # each target lists a change once, so two users are two changes
    shared = {c for users in g.changes.values() if len(users) > 1 for c in users}
    return 100.0 * len(shared) / len(workload.changes)


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
    lines += [
        "change "
        f"id={s.id.label} at={s.arrival_time!r} targets={','.join(s.targets)} "
        f"mu={s.true_mean!r} var={s.true_variance!r} "
        f"passes={'true' if s.passes_alone else 'false'} breakers="
        f"{','.join([b.label for b in s.breakers]) if s.breakers else ''} "
        f"prior={s.success_prior!r}"
        for s in w.changes
    ]
    return "\n".join(lines) + "\n"


def _format_record(record: object, fields: Mapping[str, str]) -> str:
    return " ".join(f"{key}={getattr(record, field)!r}" for key, field in fields.items())


def _parse_record(cls: type, fields: Mapping[str, str], tokens: list[str]):
    """A `cls` from a record's key=value tokens; see CONFIG_FIELDS."""
    defaults = cls()
    return cls(
        **{
            fields[key]: type(getattr(defaults, fields[key]))(value)
            for key, value in _parse_fields(tokens, fields).items()
        }
    )


def _parse_fields(tokens: list[str], keys: Container[str]) -> dict[str, str]:
    """A record's key=value tokens; every key must be one of `keys`."""
    fields: dict[str, str] = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq:
            raise WorkloadError(f"expected key=value, got {token!r}")
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
    """Parse the text form; a WorkloadError names the first malformed line.
    An omitted seed, strategy, predictor or config keeps WorkloadSpec's.
    A line is split once; its first token is the record's kind.

    A parsed stream is held for as long as it runs, so its records share
    what they repeat: one float per distinct `mu` or `var` text, and one
    string per distinct target name. Each table is keyed by the text, so
    `-0.0` and `0.0` stay two floats and a target named `5.0` stays a
    string; both tables live only as long as this call."""
    records: dict[str, object] = {}
    specs: list[ChangeSpec] = []
    labels: dict[str, ChangeId] = {}
    floats: dict[str, float] = {}
    names: dict[str, str] = {}
    given: set[str] = set()

    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        kind = tokens[0]
        try:
            if kind == "change":
                specs.append(_parse_change(tokens[1:], labels, floats, names))
                continue
            if kind in given:  # any other record may be given once
                raise WorkloadError(f"repeated {kind!r} record")
            given.add(kind)
            body = line.strip()[len(kind) :].lstrip()
            if kind == "workload-version":
                if body != "1":
                    raise WorkloadError(f"unsupported workload version {body!r}")
            elif kind == "seed":
                records["seed"] = int(body)
            elif kind == "strategy":
                records["strategy"] = body
                if body not in STRATEGIES:
                    raise WorkloadError(f"unknown strategy {body!r}")
            elif kind == "predictor":
                name = tokens[1] if len(tokens) > 1 else ""
                if name not in PREDICTORS:
                    raise WorkloadError(f"unknown predictor {name!r}")
                records["predictor"] = _parse_record(*PREDICTORS[name], tokens[2:])
            elif kind == "config":
                records["config"] = _parse_record(EngineConfig, CONFIG_FIELDS, tokens[1:])
            else:
                raise WorkloadError(f"unknown record {kind!r}")
        except (ValueError, KeyError) as exc:
            problem = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise WorkloadError(f"line {line_no}: {problem}") from exc

    return WorkloadSpec(changes=tuple(specs), **records)


def _parse_change(
    tokens: list[str],
    labels: dict[str, ChangeId],
    floats: dict[str, float],
    names: dict[str, str],
) -> ChangeSpec:
    """One change record's key=value tokens. `labels` maps the earlier
    changes' labels to their ids; the new change's label is added to it.
    `floats` and `names` map each `mu`/`var` text and each target name
    read so far to the one object every record shares, and gain this
    record's new ones. An omitted `passes` or `prior` keeps ChangeSpec's
    default."""
    f = _parse_fields(tokens, _CHANGE_KEYS)
    label = f["id"]
    if label in labels:
        raise WorkloadError(f"duplicate change id {label!r}")
    listed = f.get("breakers")
    breakers = [b for b in listed.split(",") if b] if listed else []
    for b in breakers:
        if b not in labels:
            raise WorkloadError(f"breaker {b!r} is not an earlier change")
    cid = ChangeId(len(labels), label)
    labels[label] = cid
    given = {}
    if "passes" in f:
        given["passes_alone"] = _parse_bool(f["passes"])
    if "prior" in f:
        given["success_prior"] = float(f["prior"])
    at = float(f["at"])
    # setdefault keeps the first object stored for a text, in C, with no
    # Python call per record; `get` skips parsing a stored text, and a
    # stored zero, which is falsy, comes back from setdefault instead
    mu = f["mu"]
    mu = floats.get(mu) or floats.setdefault(mu, float(mu))
    var = f["var"]
    var = floats.get(var) or floats.setdefault(var, float(var))
    targets = f.get("targets", "").split(",")
    return ChangeSpec(
        cid,
        at,
        tuple(filter(None, map(names.setdefault, targets, targets))),
        mu,
        var,
        breakers=tuple(map(labels.__getitem__, breakers)) if breakers else (),
        **given,
    )
