"""In-memory span recorder for the benchmark's traced run.

Each layer's public functions are wrapped from outside, in the module
namespace their callers look them up in, so no file of the package
changes. A span records name, start, end and the index of the span that
was open when it began. Self time is a span's duration minus the time
its child spans cover; children of one span never overlap, because the
engine is single-threaded.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Iterator

import specqueue.cli as cli
import specqueue.forest as forest
import specqueue.prioritize as prioritize
import specqueue.simulator as simulator
import specqueue.simulator.engine as engine
import specqueue.simulator.workload as workload
from specqueue.selection import DecisionKind


class SpanRecorder:
    """Keeps spans and counters in memory until `drain` folds them in."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._open: list[int] = []
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, int] = {}

    def wrap(
        self, name: str, fn: Callable, on_result: Callable | None = None
    ) -> Callable:
        spans = self.spans
        open_ = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    def drain(self) -> dict[str, list[float]]:
        """Per-name [calls, self seconds] of the spans so far; clears them.

        Call only between top-level calls, when no span is open.
        """
        if self._open:
            raise RuntimeError("drain with open spans")
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            _, start, end, parent = span
            if parent >= 0:
                covered[parent] += end - start
        table: dict[str, list[float]] = {}
        for span, child_time in zip(self.spans, covered):
            name, start, end, _ = span
            row = table.setdefault(name, [0, 0.0])
            row[0] += 1
            row[1] += (end - start) - child_time
        self.spans.clear()
        return table

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every layer target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, hook in _targets(self):
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _targets(rec: SpanRecorder):
    """(namespace, attribute, span name, result hook) for every wrapped call."""

    def graph_edges(g):
        rec.count("core.graph_edges", sum(len(n) for n in g.adjacency.values()) // 2)

    def forest_size(f):
        rec.peak("forest.peak_live_nodes", len(f.nodes))
        rec.peak("forest.peak_queue_len", len(f.queue))

    def partition(p):
        rec.count("prioritize.fallbacks", p.fallback_active)

    def ranked(builds):
        rec.count("prioritize.ranked_builds", len(builds))

    def decision(d):
        rec.count("selection.decide_waits", d.kind is DecisionKind.WAIT)

    return (
        # engine builds the graph once; static_conflict_rate builds it again
        (engine, "build_conflict_graph", "core.build_conflict_graph", graph_edges),
        (workload, "build_conflict_graph", "core.build_conflict_graph", graph_edges),
        (engine, "enumerate_forest", "forest.enumerate_forest", forest_size),
        (engine, "resolve_change", "forest.resolve_change", forest_size),
        (engine, "carry_map", "forest.carry_map", None),
        # resolve_change looks these two up in its own module
        (forest, "enumerate_forest", "forest.enumerate_forest", None),
        (forest, "carry_map", "forest.carry_map", None),
        (forest.SpeculationForest, "nodes_for_change", "forest.nodes_for_change", None),
        (engine, "predict_duration", "prediction.predict_duration", None),
        (prioritize, "p_finishes_before", "completion.p_finishes_before", None),
        (engine, "profile_change", "prioritize.profile_change", partition),
        (engine, "rank_builds", "prioritize.rank_builds", ranked),
        (engine, "decide_change", "selection.decide_change", decision),
        (engine, "select_builds", "selection.select_builds", None),
        (engine, "static_conflict_rate", "simulator.static_conflict_rate", None),
        # the CLI and the benchmark's own set-up call these by module attribute
        (cli, "generate_workload", "simulator.generate_workload", None),
        (cli, "format_workload", "simulator.format_workload", None),
        (cli, "parse_workload", "simulator.parse_workload", None),
        (cli, "run", "simulator.run", None),
        (simulator, "generate_workload", "simulator.generate_workload", None),
        (simulator, "format_workload", "simulator.format_workload", None),
        (simulator, "parse_workload", "simulator.parse_workload", None),
        (cli, "main", "cli.main", None),
    )
