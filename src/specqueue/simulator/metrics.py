"""Run metrics: resource usage, waiting times, and the CSV export."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# the CSV's columns: header, the MetricsReport attribute written, and
# its format spec
_COLUMNS = (
    ("strategy", "strategy", ""),
    ("builds_started", "builds_started", ""),
    ("changes_decided", "changes_decided", ""),
    ("ratio", "builds_to_changes_ratio", ".4f"),
    ("executor_minutes", "executor_minutes", ".2f"),
    ("p50_wait", "p50_wait", ".2f"),
    ("p95_wait", "p95_wait", ".2f"),
    ("bypass_rate", "bypass_trigger_rate", ".2f"),
    ("conflict_rate", "conflict_rate", ".2f"),
    ("aborts", "abort_count", ""),
)
CSV_HEADER = ",".join([header for header, _, _ in _COLUMNS])


@dataclass(frozen=True)
class WaitRecord:
    """One change's journey from arrival to its land/reject decision."""

    change: str
    arrival: float
    decided_at: float
    landed: bool
    via_bypass: bool

    @property
    def wait(self) -> float:
        return self.decided_at - self.arrival


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile: the ceil(p*n)-th smallest value."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    ordered = sorted(values)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return ordered[rank - 1]


@dataclass(frozen=True)
class MetricsReport:
    strategy: str
    builds_started: int
    changes_decided: int
    executor_minutes: float
    bypass_count: int
    abort_count: int
    waited_on_conflicts: int
    conflict_rate: float
    waits: tuple[WaitRecord, ...]

    @property
    def builds_to_changes_ratio(self) -> float:
        if self.changes_decided == 0:
            return 0.0
        return self.builds_started / self.changes_decided

    @property
    def p50_wait(self) -> float:
        return nearest_rank([w.wait for w in self.waits], 50)

    @property
    def p95_wait(self) -> float:
        return nearest_rank([w.wait for w in self.waits], 95)

    @property
    def bypass_trigger_rate(self) -> float:
        """Bypassed changes per change that had conflicting work ahead, in percent."""
        if self.waited_on_conflicts == 0:
            return 0.0
        return 100.0 * self.bypass_count / self.waited_on_conflicts

    def to_csv_row(self) -> str:
        return ",".join(
            [format(getattr(self, attr), spec) for _, attr, spec in _COLUMNS]
        )


def reports_to_csv(reports: Sequence[MetricsReport]) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv_row() for r in reports]) + "\n"
