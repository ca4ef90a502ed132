"""Correctness audit of one simulation's artifacts.

The audit reads the trace and the metrics CSV that `specqueue simulate`
wrote and checks them against the workload's ground truth (who passes
alone, who breaks whom, the engine thresholds). It never reruns the
engine, so a wrong engine cannot vouch for itself.

Checked on every run:
- every change is decided exactly once;
- no landed change fails alone or shares the mainline with a breaker;
- every early (bypass) decision is unanimous: the change fails alone,
  a breaker already landed, or no pending predecessor it passed is a
  breaker;
- running builds never exceed the executor capacity;
- every non-mandatory start has p >= delta (0 for the baseline);
- the CSV's counts and wait percentiles agree with the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# The trace prints p to four decimals.
P_TOLERANCE = 5e-5


@dataclass
class RunSummary:
    """What one simulation did, as read back from its artifacts."""

    strategy: str
    events: int = 0
    builds_started: int = 0
    aborts: int = 0
    aborted_minutes: float = 0.0
    finished_minutes: float = 0.0
    decided: int = 0
    bypasses: int = 0
    waits: list[float] = field(default_factory=list)
    csv: dict[str, str] = field(default_factory=dict)

    @property
    def executor_minutes(self) -> float:
        return float(self.csv["executor_minutes"])


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(percentile / 100.0 * len(ordered)) - 1]


def parse_metrics_csv(text: str) -> dict[str, str]:
    lines = text.splitlines()
    if len(lines) != 2:
        raise ValueError(f"expected a header and one row, got {len(lines)} lines")
    header, row = (line.split(",") for line in lines)
    if len(header) != len(row):
        raise ValueError("metrics row and header differ in length")
    return dict(zip(header, row))


def audit_run(
    workload, strategy: str, trace: list[str], metrics_csv: str
) -> tuple[RunSummary, list[str]]:
    """Summarise one run and list every violation found (empty if clean)."""
    summary = RunSummary(strategy=strategy)
    violations: list[str] = []
    specs = {s.id.label: s for s in workload.changes}
    capacity = workload.config.executor_capacity
    delta = workload.config.speculation_threshold if strategy == "enhanced" else 0.0
    running = 0
    decided: set[str] = set()
    landed: list[str] = []

    for line in trace:
        tokens = line.split()
        if len(tokens) < 3:
            violations.append(f"malformed trace line {line!r}")
            continue
        kind, label = tokens[1], tokens[2]
        fields = dict(t.split("=", 1) for t in tokens[3:] if "=" in t)
        summary.events += 1
        if label not in specs:
            violations.append(f"unknown change in {line!r}")
            continue
        if kind == "arrive":
            continue
        if kind == "start":
            running += 1
            summary.builds_started += 1
            if running > capacity:
                violations.append(
                    f"{line!r}: {running} running builds exceed capacity {capacity}"
                )
            if fields["mandatory"] == "no" and float(fields["p"]) < delta - P_TOLERANCE:
                violations.append(f"{line!r}: speculative start below delta {delta}")
        elif kind in ("finish", "abort"):
            running -= 1
            elapsed = float(fields["elapsed"])
            if kind == "abort":
                summary.aborts += 1
                summary.aborted_minutes += elapsed
            else:
                summary.finished_minutes += elapsed
        elif kind in ("land", "reject"):
            if label in decided:
                violations.append(f"{line!r}: change decided twice")
            decided.add(label)
            summary.waits.append(float(fields["wait"]))
            if fields["via_bypass"] == "yes":
                summary.bypasses += 1
                if not _unanimous(specs[label], fields["bypassed"], set(landed)):
                    violations.append(f"{line!r}: early decision was not unanimous")
            if kind == "land":
                landed.append(label)
        else:
            violations.append(f"unknown event in {line!r}")

    summary.decided = len(decided)
    undecided = set(specs) - decided
    if undecided:
        violations.append(f"{len(undecided)} changes never decided")
    landed_set = set(landed)
    for label in landed:
        spec = specs[label]
        if not spec.passes_alone:
            violations.append(f"landed {label} fails alone")
        broken = sorted(b.label for b in spec.breakers if b.label in landed_set)
        if broken:
            violations.append(
                f"landed {label} shares the mainline with breakers {broken}"
            )

    try:
        summary.csv = parse_metrics_csv(metrics_csv)
    except ValueError as exc:
        violations.append(f"metrics CSV: {exc}")
        return summary, violations
    violations.extend(_check_csv(summary))
    return summary, violations


def _unanimous(spec, bypassed: str, landed_so_far: set[str]) -> bool:
    """Every pending-predecessor combination gives the change one outcome."""
    breakers = {b.label for b in spec.breakers}
    pending = {p for p in bypassed.split(",") if p}
    return not spec.passes_alone or bool(breakers & landed_so_far) or not (
        breakers & pending
    )


def _check_csv(s: RunSummary) -> list[str]:
    row = s.csv
    problems = []
    expected = {
        "strategy": s.strategy,
        "changes_decided": str(s.decided),
        "builds_started": str(s.builds_started),
        "aborts": str(s.aborts),
    }
    if s.waits:
        expected["p50_wait"] = f"{nearest_rank(s.waits, 50):.2f}"
        expected["p95_wait"] = f"{nearest_rank(s.waits, 95):.2f}"
    for key, want in expected.items():
        if row.get(key) != want:
            problems.append(f"metrics CSV {key}={row.get(key)!r}, trace says {want!r}")
    # each trace elapsed= is rounded to hundredths
    traced = s.finished_minutes + s.aborted_minutes
    slack = 0.005 * (s.builds_started + 1) + 0.01
    try:
        if abs(float(row["executor_minutes"]) - traced) > slack:
            problems.append(
                f"metrics CSV executor_minutes={row['executor_minutes']}, "
                f"trace sums to {traced:.2f}"
            )
    except (KeyError, ValueError):
        problems.append("metrics CSV executor_minutes missing or not a number")
    return problems
