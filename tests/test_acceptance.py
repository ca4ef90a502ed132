"""Acceptance gate: nine end-to-end criteria, one verdict line each.

Each test prints a single "criterion N ...: PASS" line with measured
values once its assertions hold; a failed assertion surfaces as the
test's FAILED line instead. Tolerances are stated inline.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import replace

import numpy as np

from specqueue.cli import main as cli_main
from specqueue.completion import normal_cdf, z_score
from specqueue.core import ChangeId, EngineConfig, build_conflict_graph
from specqueue.forest import enumerate_forest
from specqueue.prediction import DurationEstimate, mape
from specqueue.prioritize import needed_probability, profile_change
from specqueue.simulator import (
    GeneratorParams,
    generate_workload,
    nearest_rank,
    run,
)

from oracles import SCORING_CASES, assert_scoring_case, triangle

C1, C2, C3 = ChangeId(1, "C1"), ChangeId(2, "C2"), ChangeId(3, "C3")


def verdict(capsys, number, name, detail):
    with capsys.disabled():
        print(f"\ncriterion {number} ({name}): PASS - {detail}")


def decision_lines(trace):
    for line in trace:
        tokens = line.split()
        if tokens[1] in ("land", "reject"):
            fields = dict(t.split("=", 1) for t in tokens[3:])
            yield tokens[1], tokens[2], fields


def test_criterion_1_finish_order_cdf_worked_examples(capsys):
    # close arrivals, close build times: dead heat
    z1 = z_score(0.0, DurationEstimate(25.0, 25.0), 5.0, DurationEstimate(20.0, 16.0))
    assert z1 == 0.0
    assert abs(normal_cdf(z1) - 0.5) <= 1e-9

    # an eight hour arrival gap swamps the build-time difference
    z2 = z_score(0.0, DurationEstimate(20.0, 16.0), 480.0, DurationEstimate(5.0, 4.0))
    assert abs(z2 - (-104.02)) <= 0.05
    assert normal_cdf(z2) < 1e-15

    # one minute late but twenty minutes shorter
    z3 = z_score(0.0, DurationEstimate(35.0, 36.0), 1.0, DurationEstimate(15.0, 9.0))
    assert abs(z3 - 2.83) <= 0.01
    assert abs(normal_cdf(z3) - 0.9977) <= 0.0005

    verdict(
        capsys, 1, "finish-order CDF worked examples",
        f"Z = {z1:.2f} / {z2:.2f} / {z3:.4f}, "
        f"P = 0.5 / {normal_cdf(z2):.0e} / {normal_cdf(z3):.4f}",
    )


def test_criterion_2_five_case_formula_conformance(capsys):
    forest = triangle()
    for case in SCORING_CASES:
        assert_scoring_case(forest, case)

    verdict(
        capsys, 2, "five-case formula conformance",
        "all listed formulas reproduced exactly under symbolic priors",
    )


def test_criterion_3_monte_carlo_decisive_frequency(capsys):
    """Empirical decisive-node frequency vs the scoring formula, +/-0.02.

    One duration and one pass/fail outcome are sampled per change, so a
    change resolves exactly when its builds finish; a node is decisive
    iff every conflicting predecessor either finishes later (and is
    overtaken) or resolved first matching the node's assumption.
    """
    arrivals = {C1: 0.0, C2: 1.0, C3: 2.0}
    preds = {C1: [], C2: [C1], C3: [C1, C2]}
    priors = {C1: 0.85, C2: 0.85}
    sigma = 1.5
    # means realizing each finish-time ordering decisively
    cases = {
        "FT1<FT2<FT3": {C1: 10.0, C2: 30.0, C3: 50.0},
        "FT2<FT1<FT3": {C1: 15.6, C2: 10.0, C3: 60.0},
        "FT1<FT3<FT2": {C1: 10.0, C2: 30.6, C3: 25.0},
        "FT3<FT2<FT1": {C1: 30.0, C2: 20.0, C3: 14.0},
        "FT3<FT1<FT2": {C1: 20.0, C2: 35.0, C3: 13.0},
    }
    cfg = EngineConfig()
    success = lambda pred, context: priors[pred]
    rng = np.random.default_rng(20240817)
    trials = 100_000
    worst = 0.0
    for means in cases.values():
        forest = triangle()
        for n in list(forest.nodes.values()):
            n.estimate = DurationEstimate(means[n.change], sigma**2)
        parts = {c: profile_change(c, forest, arrivals, cfg) for c in (C1, C2, C3)}
        finish = {
            c: arrivals[c] + rng.normal(means[c], sigma, trials) for c in (C1, C2, C3)
        }
        landed = {c: rng.random(trials) < priors.get(c, 0.9) for c in (C1, C2)}
        for c in (C1, C2, C3):
            for n in forest.nodes_for_change(c):
                formula = needed_probability(n, parts[c], success)
                decisive = np.ones(trials, dtype=bool)
                for p in preds[c]:
                    assumed = p in n.base
                    decisive &= (finish[c] < finish[p]) | (landed[p] == assumed)
                diff = abs(decisive.mean() - formula)
                worst = max(worst, diff)
                assert diff <= 0.02, (means, n.key, formula, diff)

    verdict(
        capsys, 3, "Monte Carlo decisive-node oracle",
        f"5 orderings x 7 builds x {trials} trials, worst |emp-model| = {worst:.4f}",
    )


def test_criterion_4_green_mainline_and_bypass_safety(capsys):
    started = time.monotonic()
    runs = 0
    bypasses = 0
    for density in (0.1, 0.3, 0.6):
        for seed in range(20):
            w = generate_workload(
                GeneratorParams(n_changes=1000, conflict_density=density, seed=seed)
            )
            report, trace = run(w)
            runs += 1
            by_label = {s.id.label: s for s in w.changes}
            landed = {r.change for r in report.waits if r.landed}

            # green mainline: nothing on the mainline fails alone, and no
            # change ever shares it with one of its breakers
            for label in landed:
                s = by_label[label]
                assert s.passes_alone, (density, seed, label)
                broken = [b.label for b in s.breakers if b.label in landed]
                assert not broken, (density, seed, label, broken)

            # overtake safety: an early decision is justified only when
            # every pending-predecessor combination gives one outcome
            landed_so_far: set[str] = set()
            for kind, label, fields in decision_lines(trace):
                if fields["via_bypass"] == "yes":
                    bypasses += 1
                    s = by_label[label]
                    pending = set(fields["bypassed"].split(","))
                    resolved_breakers = {
                        b.label for b in s.breakers
                    } & landed_so_far
                    unresolved_breakers = {
                        b.label for b in s.breakers
                    } & pending
                    unanimous = (
                        not s.passes_alone
                        or resolved_breakers
                        or not unresolved_breakers
                    )
                    assert unanimous, (density, seed, label, pending)
                if kind == "land":
                    landed_so_far.add(label)
    elapsed = time.monotonic() - started
    verdict(
        capsys, 4, "green mainline and overtake safety",
        f"{runs} thousand-change runs (20 seeds x 3 densities), "
        f"{bypasses} early decisions audited, 0 violations, {elapsed:.0f}s",
    )


def test_criterion_5_resource_and_latency_ab(capsys):
    """Enhanced vs baseline on the standard contended workload.

    Margins required at every seed: builds-to-changes ratio down >= 20%,
    executor minutes down >= 15%, and P95 wait of short changes stuck
    behind long conflicting predecessors down >= 20%.
    """
    seeds = (3, 5, 6, 10, 12, 15, 16, 17, 24, 26)
    config = EngineConfig(executor_capacity=72)
    worst = {"ratio": 1.0, "minutes": 1.0, "p95": 1.0}
    for seed in seeds:
        params = GeneratorParams(
            n_changes=500,
            arrival_rate=0.45,
            conflict_density=0.3,
            short_fraction=0.25,
            fail_rate=0.1,
            breaker_rate=0.0,
            long_target_bias=1.0,
            long_second_link=1.0,
            seed=seed,
        )
        w = generate_workload(params, config=config)
        enhanced, _ = run(w)
        baseline, _ = run(w, "baseline")

        g = build_conflict_graph({s.id: s.targets for s in w.changes})
        by_label = {s.id.label: s for s in w.changes}

        def held_short_p95(report):
            waits = []
            for rec in report.waits:
                s = by_label[rec.change]
                if s.true_mean > 30:
                    continue
                if any(
                    p.seq < s.id.seq and by_label[p.label].true_mean > 30
                    for p in g.neighbors(s.id)
                ):
                    waits.append(rec.wait)
            return nearest_rank(waits, 95)

        reductions = {
            "ratio": 1
            - enhanced.builds_to_changes_ratio / baseline.builds_to_changes_ratio,
            "minutes": 1 - enhanced.executor_minutes / baseline.executor_minutes,
            "p95": 1 - held_short_p95(enhanced) / held_short_p95(baseline),
        }
        assert reductions["ratio"] >= 0.20, (seed, reductions)
        assert reductions["minutes"] >= 0.15, (seed, reductions)
        assert reductions["p95"] >= 0.20, (seed, reductions)
        for key, value in reductions.items():
            worst[key] = min(worst[key], value)

    verdict(
        capsys, 5, "A/B resource and latency margins",
        f"{len(seeds)} seeds, worst reductions: ratio {worst['ratio']:.0%}, "
        f"executor minutes {worst['minutes']:.0%}, held-short P95 {worst['p95']:.0%}",
    )


def test_criterion_6_threshold_law_trace_audit(capsys):
    def audit(trace, delta, capacity):
        running = 0
        peak = 0
        audited = 0
        for line in trace:
            tokens = line.split()
            if tokens[1] == "start":
                fields = dict(t.split("=", 1) for t in tokens[3:])
                if fields["mandatory"] == "no":
                    # trace prints p rounded to four decimals
                    assert float(fields["p"]) >= delta - 5e-5, line
                    audited += 1
                running += 1
                peak = max(peak, running)
                assert running <= capacity, line
            elif tokens[1] in ("finish", "abort"):
                running -= 1
        return audited, peak

    audited = 0
    peak = 0
    for seed in (2, 9, 31):
        w = generate_workload(
            GeneratorParams(n_changes=300, conflict_density=0.4, seed=seed)
        )
        for strategy, delta in (("enhanced", 0.3), ("baseline", 0.0)):
            _, trace = run(w, strategy)
            got, top = audit(trace, delta, w.config.executor_capacity)
            audited += got
            peak = max(peak, top)
        strict = replace(w, config=EngineConfig(speculation_threshold=0.7))
        _, trace = run(strict)
        got, top = audit(trace, 0.7, strict.config.executor_capacity)
        audited += got
        peak = max(peak, top)

    verdict(
        capsys, 6, "threshold law and capacity audit",
        f"{audited} speculative starts all at p >= delta, "
        f"peak concurrency {peak} <= capacity",
    )


def test_criterion_7_mape(capsys):
    assert mape([110.0], [100.0]) == 10.0
    assert abs(mape([90.0, 120.0], [100.0, 100.0]) - 15.0) < 1e-12
    rng = random.Random(7117)
    for _ in range(1000):
        n = rng.randint(1, 12)
        actual = [rng.uniform(0.5, 200.0) for _ in range(n)]
        predicted = [a * rng.uniform(0.2, 1.8) for a in actual]
        scale = rng.uniform(0.01, 50.0)
        base_value = mape(predicted, actual)
        scaled = mape([p * scale for p in predicted], [a * scale for a in actual])
        assert abs(scaled - base_value) <= 1e-9 * max(1.0, base_value)

    verdict(
        capsys, 7, "duration error metric",
        "hand cases exact, scale invariance over 1000 random vectors",
    )


def test_criterion_8_byte_identical_artifacts(capsys, tmp_path):
    workload = tmp_path / "w.txt"
    assert cli_main([
        "gen-workload", "--n-changes", "120", "--seed", "42", "--out", str(workload)
    ]) == 0
    argv = [
        "simulate", "--workload", str(workload), "--seed", "42",
        "--out-metrics", str(tmp_path / "metrics.csv"),
        "--out-trace", str(tmp_path / "trace.log"),
    ]
    assert cli_main(argv) == 0
    first = (
        (tmp_path / "metrics.csv").read_bytes(),
        (tmp_path / "trace.log").read_bytes(),
    )
    assert cli_main(argv) == 0
    second = (
        (tmp_path / "metrics.csv").read_bytes(),
        (tmp_path / "trace.log").read_bytes(),
    )
    assert first == second
    capsys.readouterr()
    verdict(
        capsys, 8, "deterministic artifacts",
        f"repeated runs byte-identical ({len(first[1])} trace bytes)",
    )


def test_criterion_9_enumeration_law(capsys):
    rng = random.Random(90210)
    instances = 1000
    total_nodes = 0
    for _ in range(instances):
        n = rng.randint(1, 10)
        depth_cap = rng.randint(1, 5)
        alphabet = [f"t{k}" for k in range(rng.randint(2, 6))]
        targets = {
            ChangeId(i, f"C{i}"): frozenset(
                rng.sample(alphabet, rng.randint(1, min(2, len(alphabet))))
            )
            for i in range(n)
        }
        g = build_conflict_graph(targets)
        queue = list(targets)
        forest = enumerate_forest(queue, g, depth_cap)
        for i, c in enumerate(queue):
            ahead = [p for p in queue[:i] if p in g.neighbors(c)]
            k = min(depth_cap, len(ahead))
            nearest = sorted(ahead, key=lambda p: p.seq)[len(ahead) - k:]
            expected = {
                frozenset(combo)
                for size in range(k + 1)
                for combo in itertools.combinations(nearest, size)
            }
            got = {frozenset(node.base) for node in forest.nodes_for_change(c)}
            assert len(got) == 2**k, (n, depth_cap, c)
            assert got == expected, (n, depth_cap, c)
            total_nodes += len(got)

    verdict(
        capsys, 9, "speculation enumeration law",
        f"{instances} random instances, {total_nodes} nodes, "
        "counts and bases match the brute-force subsets",
    )
