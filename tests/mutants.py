"""Named mutants of the engine's rules, each with the cheapest check that
must fail on it.

A mutant is one edit of one function's source: the text `old`, which
must appear in it exactly once, becomes `new`. `mutate` compiles the
edited function in its own module's namespace, at its own file's line
numbers, and `tests/test_mutants.py` monkeypatches it over
`owner.attribute`. Each check passes on the package as it is and raises
`AssertionError` under its mutant. A row whose `old` no longer appears
fails, so a refactor that moves a rule must move its row with it; a
mutant that survives its check is a finding, and its row stays.
"""

from __future__ import annotations

import __future__
import ast
import inspect
import textwrap
from dataclasses import dataclass, replace
from typing import Callable

import specqueue.forest
import specqueue.prioritize
from specqueue.core import BuildOutcome, ChangeId, EngineConfig
from specqueue.forest import BuildNode, SpeculationForest, carry_map, enumerate_forest
from specqueue.prediction import OracleWithNoise
from specqueue.selection import DecisionKind, RankOrder, rank_key
from specqueue.simulator import WorkloadSpec, engine
from specqueue.simulator.engine import GroundTruth, _Simulation
from specqueue.simulator.workload import STRATEGIES, ChangeSpec

from oracles import C1, C2, C3, CheckedSimulation, partition, triangle


def mutate(function: Callable, old: str, new: str) -> Callable:
    """`function` recompiled with the one occurrence of `old` in its
    source replaced by `new`; a static method, such as a class's
    `__new__`, comes back as one."""
    if isinstance(function, staticmethod):
        return staticmethod(mutate(function.__func__, old, new))
    source = textwrap.dedent(inspect.getsource(function))
    found = source.count(old)
    if found != 1:
        raise ValueError(f"{function.__qualname__} holds {old!r} {found} times, not once")
    tree = ast.parse(source.replace(old, new))
    ast.increment_lineno(tree, function.__code__.co_firstlineno - 1)
    code = compile(
        tree,
        inspect.getsourcefile(function),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace: dict[str, Callable] = {}
    exec(code, function.__globals__, namespace)
    return namespace[function.__name__]


def _change(
    seq: int,
    at: float,
    targets: set[str],
    passes: bool = True,
    mean: float = 10.0,
    breakers: tuple[int, ...] = (),
) -> ChangeSpec:
    return ChangeSpec(
        id=ChangeId(seq, f"C{seq}"),
        arrival_time=at,
        targets=frozenset(targets),
        true_mean=mean,
        true_variance=0.0,
        passes_alone=passes,
        breakers=tuple(ChangeId(b, f"C{b}") for b in breakers),
        success_prior=0.5,
    )


# C0 and C1 share a target, so C1 waits on C0; C2 shares none, so its
# window is empty though C0 is queued ahead of it
HEADS = WorkloadSpec(
    changes=(_change(0, 0.0, {"a"}), _change(1, 1.0, {"a"}), _change(2, 2.0, {"b"})),
    predictor=OracleWithNoise(),
)
# C0 fails alone, so its rejection contradicts C1's running build on C0
CONTRADICTED = WorkloadSpec(
    changes=(_change(0, 0.0, {"a"}, passes=False), _change(1, 1.0, {"a"})),
    predictor=OracleWithNoise(),
)
# one executor, so of HEADS' four builds only the queue head's runs
ONE_EXECUTOR = replace(HEADS, config=EngineConfig(executor_capacity=1))
# C1's builds both pass at 11, 49 minutes before C0's, so only a bypass
# could land it first, which the baseline never makes
OVERTAKEN = WorkloadSpec(
    changes=(_change(0, 0.0, {"a"}, mean=60.0), _change(1, 1.0, {"a"})),
    predictor=OracleWithNoise(),
)
# C0 breaks C1 and C2. C1's build on C0 fails, so C1 is rejected once C0
# lands; C2 arrives after that, and its one build fails on the mainline
BROKEN = WorkloadSpec(
    changes=(
        _change(0, 0.0, {"a"}),
        _change(1, 1.0, {"a"}, breakers=(0,)),
        _change(2, 20.0, {"a"}, breakers=(0,)),
    ),
    predictor=OracleWithNoise(),
)


def check_a_head_keeps_its_build_at_1(strategy: str, delta: float) -> None:
    """A queued change with an empty window keeps its one build, scored
    exactly 1, however high the threshold; once that build has finished
    it keeps none. Every change of `HEADS` arrives and the rank order is
    brought up to date; nothing starts."""
    sim = _Simulation(
        replace(HEADS, config=EngineConfig(speculation_threshold=delta)), strategy
    )
    for spec in HEADS.changes:
        sim._arrive(spec.id)
    sim._rescore()
    for c in (HEADS.changes[0].id, HEADS.changes[2].id):
        (node,) = sim.forest.nodes_for_change(c)
        kept = [entry for entry in sim.order.entries if entry[1].change == c]
        assert kept == [(rank_key(node, 1.0), node)], (c, delta)
        node.complete(BuildOutcome.PASS, 10.0)
        sim.moved.add(c)
        sim._rescore()
        assert all(n.change != c for _, n in sim.order.entries), (c, delta)


def check_a_head_without_an_estimate_raises(strategy: str) -> None:
    """A reschedule raises `ValueError` for a queued change with an empty
    window whose pending build has no duration estimate, before it
    starts anything."""
    sim = _Simulation(HEADS, strategy)
    sim._annotate = lambda changes: None
    sim._start = lambda node, p: None
    c = HEADS.changes[0].id
    sim._arrive(c)
    try:
        sim._reschedule()
    except ValueError as error:
        assert str(error) == f"node {(c, ())} has no duration estimate", error
    else:
        raise AssertionError(f"{strategy}: a build with no estimate was ranked")


def check_an_arrival_starts_its_build() -> None:
    """Under both strategies, a reschedule after one change arrives, the
    one change its event moved, ranks and starts that change's build."""
    c = HEADS.changes[0].id
    for strategy in STRATEGIES:
        sim = _Simulation(HEADS, strategy)
        sim._arrive(c)
        sim._reschedule()
        assert list(sim.running) == [sim.forest.node(c, ())], strategy


def check_heads_keep_their_builds_at_1() -> None:
    """`check_a_head_keeps_its_build_at_1` under both strategies, at
    thresholds 0 and 1."""
    for strategy in STRATEGIES:
        for delta in (0.0, 1.0):
            check_a_head_keeps_its_build_at_1(strategy, delta)


def check_heads_without_estimates_raise() -> None:
    """`check_a_head_without_an_estimate_raises` under both strategies."""
    for strategy in STRATEGIES:
        check_a_head_without_an_estimate_raises(strategy)


def check_kept_state_on(workload: WorkloadSpec) -> Callable[[], None]:
    """`CheckedSimulation` on the workload under both strategies."""

    def run_all() -> None:
        for strategy in STRATEGIES:
            CheckedSimulation(workload, strategy).execute()

    return run_all


def check_green_mainline_on(workload: WorkloadSpec) -> Callable[[], None]:
    """Criterion 4's green-mainline rule on a run of the workload under
    both strategies: no landed change fails alone or lands beside one of
    its breakers."""

    def run_all() -> None:
        for strategy in STRATEGIES:
            report, _ = _Simulation(workload, strategy).execute()
            landed = {w.change for w in report.waits if w.landed}
            for spec in workload.changes:
                if spec.id.label in landed:
                    broken = [b.label for b in spec.breakers if b.label in landed]
                    assert spec.passes_alone and not broken, (strategy, spec.id)

    return run_all


def check_a_dropped_change_leaves_no_entry() -> None:
    """Putting a change twice, then dropping it, leaves the order empty."""
    forest = triangle()
    order = RankOrder()
    for c in (C1, C2, C3):
        order.put(c, [(node, 0.5) for node in forest.nodes_for_change(c)])
    order.put(C3, [(forest.node(C3, ()), 0.9)])
    for c in (C3, C1, C2):
        order.drop(c)
    assert order.entries == [], order.entries


def check_a_hand_label_is_kept() -> None:
    """An id labelled other than `C<seq>` keeps its label, also at a seq
    whose `C<seq>` label the shared table holds."""
    assert ChangeId(5, "C5").label == "C5"
    c = ChangeId(5, "lib-fix")
    assert (c.label, str(c)) == ("lib-fix", "lib-fix"), c


def check_a_resolved_change_empties_no_target() -> None:
    """Resolving the one change queued on a target leaves no entry for
    that target in `queued`."""
    forest = triangle(1)
    specqueue.forest.resolve_change(forest, C1, carry_map(forest, C1, True))
    assert forest.queued == {}, forest.queued


def check_a_bridged_component_has_one_head() -> None:
    """C3 touches C1's target and C2's, so it bridges them into one
    component that C1 heads; C2's window is empty, but it heads nothing."""
    targets = {C1: ("a",), C2: ("b",), C3: ("a", "b")}
    forest = enumerate_forest(list(targets), targets, 6)
    assert forest.windows[C2] == ()
    heads = [forest.heads_component(c) for c in targets]
    assert heads == [True, False, False], heads


def check_a_capped_window_blocks_a_bypass() -> None:
    """At `depth_cap` 1, C3's window is (C2,) and C1 is outside it, so the
    engine's rule cannot land C3 on builds that all passed while C1 is
    queued."""
    forest = triangle(depth_cap=1)
    for node in forest.nodes_for_change(C3):
        node.complete(BuildOutcome.PASS, 10.0)
    assert engine.decide_change(C3, forest).kind is DecisionKind.WAIT


def check_disagreeing_variants_wait() -> None:
    """C2's build on C1 passed and its build on the mainline failed, so
    the engine's rule leaves C2 waiting."""
    forest = triangle(2)
    forest.node(C2, (C1,)).complete(BuildOutcome.PASS, 10.0)
    forest.node(C2, ()).complete(BuildOutcome.FAIL, 10.0)
    assert engine.decide_change(C2, forest).kind is DecisionKind.WAIT


def check_outside_files_the_oldest() -> None:
    """At `depth_cap` 1 the cap leaves C3's oldest predecessor, C1,
    outside its window, and landing C1 leaves nothing outside."""
    forest = triangle(depth_cap=1)
    assert forest.outside == {C1: (), C2: (), C3: (C1,)}, forest.outside
    specqueue.forest.resolve_change(forest, C1, carry_map(forest, C1, True))
    assert forest.outside == {C2: (), C3: ()}, forest.outside


def check_successors_are_filed_in_queue_order() -> None:
    """At `depth_cap` 1, C1 is outside C3's window and C2 in it, and C3
    is filed as a successor of both; rejecting C3 leaves it in no list."""
    forest = triangle(depth_cap=1)
    assert forest.after == {C1: [C2, C3], C2: [C3], C3: []}, forest.after
    specqueue.forest.resolve_change(forest, C3, carry_map(forest, C3, False))
    assert forest.after == {C1: [C2], C2: []}, forest.after


def check_a_decision_keeps_the_nodes_that_agree_with_it() -> None:
    """Landing C1 keeps exactly the later nodes that assumed it landed,
    with C1 taken out of their bases; rejecting it keeps exactly the
    ones that did not assume it."""
    forest = triangle()
    kept = {
        landed: {
            node.key: base
            for node, base in specqueue.forest.carry_map(forest, C1, landed).items()
            if base is not None
        }
        for landed in (True, False)
    }
    assert kept[True] == {(C2, (C1,)): (), (C3, (C1, C2)): (C2,), (C3, (C1,)): ()}
    assert kept[False] == {(C2, ()): (), (C3, (C2,)): (C2,), (C3, ()): ()}


def check_a_finished_predecessor_scores_its_outcome() -> None:
    """A predecessor's success chance is its prior, 0.5, while its build
    is pending, then 1 or 0 by the build's outcome. `_success_fn` is
    called itself: a fresh scoring would call the same mutant."""
    c = HEADS.changes[0].id
    for outcome, expected in ((BuildOutcome.PASS, 1.0), (BuildOutcome.FAIL, 0.0)):
        sim = _Simulation(HEADS, "enhanced")
        sim._arrive(c)
        assert sim._success_fn(c, ()) == 0.5
        sim.forest.node(c, ()).complete(outcome, 10.0)
        assert sim._success_fn(c, ()) == expected, outcome


def check_a_product_at_the_floor_takes_its_next_term() -> None:
    """A product equal to the floor is not below it, so scoring takes the
    next term. At δ = 0.3, C3's build on C1 and C2, both waited out and
    assumed landed, with priors 0.3 and 0.5 and bypass product 1, scores
    0.3 after C1's term and 0.15 after C2's, so it is dropped."""
    node = BuildNode(change=C3, base=(C1, C2))
    part = partition(C3, fixed=(C1, C2))
    priors = {C1: 0.3, C2: 0.5}

    def success(pred: ChangeId, context: tuple) -> float:
        return priors[pred]

    p = specqueue.prioritize.needed_probability(node, part, success, 0.3)
    assert p == 0.15, p
    ranked = specqueue.prioritize.rank_builds([node], part, success, 0.3)
    assert ranked == [], ranked


def check_aborts_come_in_key_order() -> None:
    """With no build chosen, every running build aborts, in `key_order`
    whatever order the running builds are held in."""
    forest = triangle()
    running = [forest.node(C3, ()), forest.node(C2, (C1,)), forest.node(C3, (C1,))]
    to_start, to_abort = engine.select_builds(RankOrder(), running, 2)
    assert to_start == (), to_start
    keys = [node.key for node in to_abort]
    assert keys == [(C2, (C1,)), (C3, ()), (C3, (C1,))], keys


@dataclass(frozen=True)
class Mutant:
    """One rule broken by one edit of `owner.attribute`'s source, and the
    cheapest check that must fail on it."""

    name: str
    owner: object  # a class, or a module for a function it holds or imports
    attribute: str
    old: str
    new: str
    check: Callable[[], None]


MUTANTS = (
    Mutant(
        "a head ranks below 1",
        _Simulation,
        "_rescore",
        "ranked = [(node, 1.0)]",
        "ranked = [(node, 0.999)]",
        check_heads_keep_their_builds_at_1,
    ),
    Mutant(
        "rescoring returns early with a change moved",
        _Simulation,
        "_reschedule",
        "if self.moved:",
        "if len(self.moved) > 1:",
        check_an_arrival_starts_its_build,
    ),
    Mutant(
        "rescoring ranks a head with no estimate",
        _Simulation,
        "_rescore",
        "elif node.estimate is None:",
        "elif False:",
        check_heads_without_estimates_raise,
    ),
    Mutant(
        "a decision leaves a contradicted run running",
        _Simulation,
        "_apply",
        "gone = [n for n, new in mapping.items() if new is None and n in self.running]",
        "gone = []",
        check_kept_state_on(CONTRADICTED),
    ),
    Mutant(
        "dropping a change leaves a stale entry",
        RankOrder,
        "drop",
        "for entry in self._by_change.pop(c, ()):",
        "for entry in self._by_change.pop(c, ())[1:]:",
        check_a_dropped_change_leaves_no_entry,
    ),
    Mutant(
        "selection chooses one build over capacity",
        engine,
        "select_builds",
        "chosen = order.entries[:capacity]",
        "chosen = order.entries[: capacity + 1]",
        check_kept_state_on(ONE_EXECUTOR),
    ),
    Mutant(
        "the ground truth ignores breakers",
        GroundTruth,
        "outcome",
        "if b in landed or b in base:",
        "if False:",
        check_green_mainline_on(BROKEN),
    ),
    Mutant(
        "a decision bypasses with bypass off",
        engine,
        "decide_change",
        "not allow_bypass",
        "False",
        check_kept_state_on(OVERTAKEN),
    ),
    Mutant(
        "an id takes the shared label for any label",
        ChangeId,
        "__new__",
        "if label == shared:",
        "if True:",
        check_a_hand_label_is_kept,
    ),
    Mutant(
        "resolving a change keeps an emptied target",
        specqueue.forest,
        "resolve_change",
        "del queued[t]",
        "pass",
        check_a_resolved_change_empties_no_target,
    ),
    Mutant(
        "a bridged component gets a second head",
        SpeculationForest,
        "heads_component",
        "frontier.append(other)",
        "pass",
        check_a_bridged_component_has_one_head,
    ),
    Mutant(
        "a decision bypasses predecessors its window's cap left out",
        engine,
        "decide_change",
        " or forest.outside[c]",
        "",
        check_a_capped_window_blocks_a_bypass,
    ),
    Mutant(
        "a decision lands on the first pass, without unanimity",
        engine,
        "decide_change",
        "for node in nodes:",
        "for node in nodes[:1]:",
        check_disagreeing_variants_wait,
    ),
    Mutant(
        "a re-window keeps a stale outside entry",
        SpeculationForest,
        "_set_window",
        "self.outside[c] = ahead[: -self.depth_cap]",
        "self.outside.setdefault(c, ahead[: -self.depth_cap])",
        check_outside_files_the_oldest,
    ),
    Mutant(
        "outside keeps the nearest predecessors, not the oldest",
        SpeculationForest,
        "_set_window",
        "ahead[: -self.depth_cap]",
        "ahead[self.depth_cap :]",
        check_outside_files_the_oldest,
    ),
    Mutant(
        "a re-window keeps the resolved change",
        specqueue.forest,
        "resolve_change",
        "p != resolved",
        "True",
        check_outside_files_the_oldest,
    ),
    Mutant(
        "an arrival is filed as no predecessor's successor",
        SpeculationForest,
        "add_change",
        "self.after[p].append(c)",
        "pass",
        check_successors_are_filed_in_queue_order,
    ),
    Mutant(
        "a resolved change stays filed as its predecessors' successor",
        specqueue.forest,
        "resolve_change",
        "forest.after[p].remove(resolved)",
        "pass",
        check_successors_are_filed_in_queue_order,
    ),
    Mutant(
        "a decision keeps the nodes that contradict it",
        specqueue.forest,
        "carry_map",
        "(resolved in node.base) == landed",
        "(resolved in node.base) != landed",
        check_a_decision_keeps_the_nodes_that_agree_with_it,
    ),
    Mutant(
        "a finished predecessor scores its prior",
        _Simulation,
        "_success_fn",
        "if node.outcome is None:",
        "if True:",
        check_a_finished_predecessor_scores_its_outcome,
    ),
    Mutant(
        "scoring stops at a product equal to the floor",
        specqueue.prioritize,
        "needed_probability",
        "if p < floor:",
        "if p <= floor:",
        check_a_product_at_the_floor_takes_its_next_term,
    ),
    Mutant(
        "selection aborts in running order, not key order",
        engine,
        "select_builds",
        "tuple(sorted(to_abort, key=key_order))",
        "tuple(to_abort)",
        check_aborts_come_in_key_order,
    ),
)
