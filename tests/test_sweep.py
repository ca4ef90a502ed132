"""Edge-config equivalence sweep: one digest per named generator stream
of tests/oracles.py (`default`, `criterion-5`, `chained`, `bridged` and
`failing`) over a grid of engine configurations, pinning the file format
and the engine together.

Each run writes its workload out and reads it back before simulating,
so the digest covers the formatter, the parser, the metrics CSV and the
trace. A digest moves only when output is meant to change.

The same generators, with tools/trajectory.py's `hot` recipe, also draw
the streams that check the engine is online: a run of a stream's first
k changes logs what the whole stream's run logs before change k arrives.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specqueue.core import EngineConfig
from specqueue.simulator import (
    format_workload,
    generate_workload,
    parse_workload,
    reports_to_csv,
    run,
)
from specqueue.simulator.workload import STRATEGIES

from mutants import check_a_cut_stream_keeps_its_prefix
from oracles import GENERATORS, load_tool

SEEDS = range(6)
CAPACITIES = (1, 4, 72)
DEPTH_CAPS = (1, 6)
DELTAS = (0.0, 0.3, 1.0)
TAUS = (0.0, 1.0)

# Recorded before the config and predictor records shared one parse and
# one format path, and before the engine read changes by position;
# `criterion-5`'s when it became the contended benchmark's stream.
SWEEP_DIGESTS = {
    "default": "8c08ac3953b475e4f9b8f1c6cd6ac489",
    "criterion-5": "e87567697b6e7c6693112af381c8fcec",
    "chained": "d5d55f73a22a5eee330961286cd8c8b4",
    "bridged": "31b539272cbfdef55e8d90f9cf29f90d",
    "failing": "1924aee55ca1821205a05f3c67c10b16",
}


@pytest.mark.parametrize("generator", GENERATORS)
def test_edge_config_sweep_is_pinned(generator):
    digest = hashlib.blake2b(digest_size=16)
    for seed in SEEDS:
        w = generate_workload(replace(GENERATORS[generator], n_changes=30, seed=seed))
        for capacity, depth_cap, delta, tau, strategy in itertools.product(
            CAPACITIES, DEPTH_CAPS, DELTAS, TAUS, STRATEGIES
        ):
            config = EngineConfig(
                speculation_threshold=delta,
                bypass_eligibility_threshold=tau,
                executor_capacity=capacity,
                depth_cap=depth_cap,
            )
            text = format_workload(replace(w, strategy=strategy, config=config))
            report, trace = run(parse_workload(text))
            for part in (text, reports_to_csv([report]), "\n".join(trace) + "\n"):
                digest.update(part.encode("utf-8"))
    assert digest.hexdigest() == SWEEP_DIGESTS[generator]


@st.composite
def cut_streams(draw):
    """A stream of 2-40 changes from a generator above or the `hot` recipe,
    and a cut k, 0 < k < its length. In half the draws its arrivals are
    snapped down to whole ten minutes, so changes arrive together, and k
    falls between two that arrive at the same minute when any do."""
    name = draw(st.sampled_from([*GENERATORS, "hot"]))
    n, seed = draw(st.integers(2, 40)), draw(st.integers(0, 10_000))
    if name == "hot":
        w = load_tool("trajectory").hot(seed, n)
    else:
        w = generate_workload(replace(GENERATORS[name], n_changes=n, seed=seed))
    cuts = range(1, n)
    if draw(st.booleans()):
        snapped = [
            replace(s, arrival_time=10.0 * math.floor(s.arrival_time / 10.0))
            for s in w.changes
        ]
        w = replace(w, changes=tuple(snapped))
        at = [s.arrival_time for s in snapped]
        cuts = [k for k in cuts if at[k] == at[k - 1]] or cuts
    return w, draw(st.sampled_from(cuts))


@settings(max_examples=100, deadline=None)
@given(cut_streams())
def test_a_cut_stream_runs_as_the_whole_stream_did_until_the_cut(case):
    check_a_cut_stream_keeps_its_prefix(*case)
