"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import calibration  # noqa: E402
from audit import audit_run  # noqa: E402
from specqueue.core import ChangeId, EngineConfig  # noqa: E402
from specqueue.simulator import (  # noqa: E402
    ChangeSpec,
    GeneratorParams,
    WorkloadSpec,
    generate_workload,
    reports_to_csv,
    run,
)

END_TO_END = {
    "setup_s", "run_s", "changes_per_s", "peak_rss_mb", "builds_per_change",
    "executor_minutes", "p50_wait_min", "p95_wait_min",
}
PER_LAYER = {
    "core.build_conflict_graph.calls", "core.build_conflict_graph.self_s",
    "core.graph_edges",
    *(f"forest.{f}.{m}" for f in ("enumerate_forest", "resolve_change", "carry_map",
                                  "nodes_for_change") for m in ("calls", "self_s")),
    "forest.peak_live_nodes", "forest.peak_queue_len",
    "prediction.predict_duration.calls", "prediction.predict_duration.self_s",
    "completion.p_finishes_before.calls", "completion.p_finishes_before.self_s",
    "prioritize.profile_change.calls", "prioritize.profile_change.self_s",
    "prioritize.rank_builds.calls", "prioritize.rank_builds.self_s",
    "prioritize.ranked_builds", "prioritize.fallback_share",
    "selection.decide_change.calls", "selection.decide_change.self_s",
    "selection.select_builds.calls", "selection.select_builds.self_s",
    "selection.decide_wait_share", "selection.builds_started", "selection.abort_share",
    "selection.aborted_minutes_share", "selection.bypass_share",
    *(f"simulator.{f}.self_s" for f in (
        "generate_workload", "format_workload", "parse_workload",
        "static_conflict_rate", "run",
    )),
    "simulator.events", "simulator.host_us_per_event",
    "cli.main.self_s", "trace.overhead_s",
}


REFERENCE_S = 0.035


def spec_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_every_metric_with_a_unit():
    spec = spec_json()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    assert set(e2e) == END_TO_END
    assert PER_LAYER <= set(layer)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] and m["better"] in ("lower", "higher"), m
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(reference["workloads"])


def tiny_run(strategy="enhanced", capacity=8):
    w = generate_workload(
        GeneratorParams(n_changes=40, arrival_rate=1.0, seed=4),
        config=EngineConfig(executor_capacity=capacity),
    )
    report, trace = run(w, strategy)
    return w, list(trace), reports_to_csv([report])


def test_audit_passes_real_runs():
    for strategy in ("enhanced", "baseline"):
        w, trace, csv = tiny_run(strategy)
        summary, violations = audit_run(w, strategy, trace, csv)
        assert violations == []
        assert summary.decided == len(w.changes)


def test_audit_flags_a_breaker_landing():
    c0, c1 = ChangeId(0, "C0"), ChangeId(1, "C1")
    w = WorkloadSpec(
        changes=(
            ChangeSpec(c0, 0.0, frozenset({"t"}), 5.0, 1.0),
            ChangeSpec(c1, 1.0, frozenset({"t"}), 5.0, 1.0, breakers=frozenset({c0})),
        )
    )
    trace = [
        "t=0.00 arrive C0 pending_conflicts=0",
        "t=0.00 start C0 base= p=1.0000 mandatory=yes eta=5.00",
        "t=1.00 arrive C1 pending_conflicts=1",
        "t=1.00 start C1 base=C0 p=0.9000 mandatory=no eta=5.00",
        "t=5.00 finish C0 base= outcome=pass elapsed=5.00",
        "t=5.00 land C0 via_bypass=no bypassed= wait=5.00 post_wait=0.00",
        "t=6.00 finish C1 base= outcome=pass elapsed=5.00",
        "t=6.00 land C1 via_bypass=no bypassed= wait=5.00 post_wait=0.00",
    ]
    csv = (
        "strategy,builds_started,changes_decided,ratio,executor_minutes,"
        "p50_wait,p95_wait,bypass_rate,conflict_rate,aborts\n"
        "enhanced,2,2,1.0000,10.00,5.00,5.00,0.00,100.00,0\n"
    )
    _, violations = audit_run(w, "enhanced", trace, csv)
    assert violations == ["landed C1 shares the mainline with breakers ['C0']"]


def test_audit_flags_a_start_over_capacity():
    w, trace, csv = tiny_run(capacity=1)
    assert audit_run(w, "enhanced", trace, csv)[1] == []
    first_start = next(i for i, line in enumerate(trace) if " start " in line)
    extra = trace[first_start].replace("mandatory=no", "mandatory=yes")
    fabricated = trace[: first_start + 1] + [extra] + trace[first_start + 1 :]
    violations = audit_run(w, "enhanced", fabricated, csv)[1]
    assert any("exceed capacity 1" in v for v in violations)


def tiny_definition(via_cli: bool) -> dict:
    definition = {
        "instances": 2,
        "via_cli": via_cli,
        "generator": {"n_changes": 30, "arrival_rate": 1.0, "conflict_density": 0.3},
        "strategies": ["enhanced"] if via_cli else ["enhanced", "baseline"],
    }
    if not via_cli:
        definition["config"] = {"executor_capacity": 4}
    return definition


def test_tiny_runs_report_every_declared_metric(tmp_path):
    spec = spec_json()
    for via_cli in (True, False):
        definition = tiny_definition(via_cli)
        plain = harness.measure(definition, 7, tmp_path, REFERENCE_S)
        traced = harness.measure_traced(definition, 7, tmp_path, REFERENCE_S)
        assert set(plain.metrics) == {m["name"] for m in spec["end_to_end"]}
        assert set(traced.metrics) == {m["name"] for m in spec["per_layer"]}
        for outcome in (plain, traced):
            assert outcome.failed == 0 and outcome.consistent
        assert plain.digests == traced.digests
        assert all(v > 0 for v in plain.metrics.values())
        assert traced.metrics["cli.main.self_s"] > 0


def test_speed_gauge_samples_inside_a_section_and_scales_by_them(monkeypatch):
    unit = 0.002  # the host runs the calibration unit at half the reference speed

    def calibrate():
        time.sleep(unit)
        return unit

    monkeypatch.setattr(calibration, "calibrate", calibrate)
    gauge = calibration.SpeedGauge(unit / 2)
    start = time.perf_counter()
    with gauge.section() as timing:
        while time.perf_counter() - start < 0.3:
            pass
    total = time.perf_counter() - start
    in_section = len(gauge.units) - 1  # the last unit runs after the section
    assert in_section >= 3
    assert 0 < timing.wall_s <= total - in_section * unit
    assert timing.scaled_s == timing.wall_s / 2
