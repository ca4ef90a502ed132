"""Deterministic discrete-event simulation of the merge queue."""

from specqueue.simulator.engine import GroundTruth, run
from specqueue.simulator.metrics import (
    CSV_HEADER,
    MetricsReport,
    WaitRecord,
    nearest_rank,
    reports_to_csv,
)
from specqueue.simulator.workload import (
    ChangeSpec,
    GeneratorParams,
    WorkloadError,
    WorkloadSpec,
    format_workload,
    generate_workload,
    parse_workload,
    static_conflict_rate,
)

__all__ = [
    "CSV_HEADER",
    "ChangeSpec",
    "GeneratorParams",
    "GroundTruth",
    "MetricsReport",
    "WaitRecord",
    "WorkloadError",
    "WorkloadSpec",
    "format_workload",
    "generate_workload",
    "nearest_rank",
    "parse_workload",
    "reports_to_csv",
    "run",
    "static_conflict_rate",
]
