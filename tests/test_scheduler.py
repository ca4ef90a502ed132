"""The scheduler driven by hand, with no simulation around it: no
workload, no ground truth, no event heap and no trace. A test plays the
simulation: it hands each change over as it arrives, feeds finished
builds in, runs what each reschedule starts and stops what it aborts,
and stops the runs whose nodes a decision dropped.

C0 and C1 share a target and C2 shares none. C0 takes 60 minutes and C1
5, so C1 finishes first with a chance that rounds to 1. Two executors
run at most two of the four builds. Ids must arrive in order, 0 first.
"""

from __future__ import annotations

import pytest

from specqueue.core import BuildOutcome, ChangeId, EngineConfig
from specqueue.prediction import DurationEstimate, OracleWithNoise
from specqueue.simulator.engine import Scheduler
from specqueue.simulator.workload import STRATEGIES

C0, C1, C2 = (ChangeId(seq, f"C{seq}") for seq in range(3))
# what the scheduler is handed as each change arrives: its arrival time,
# targets and success prior, and the true duration normal that the
# oracle predictor reads, the scheduler's one hidden input
ARRIVALS = {
    C0: (0.0, frozenset({"a"}), 0.9, DurationEstimate(60.0, 4.0)),
    C1: (1.0, frozenset({"a"}), 0.9, DurationEstimate(5.0, 4.0)),
    C2: (2.0, frozenset({"b"}), 0.9, DurationEstimate(10.0, 4.0)),
}


def name(node) -> str:
    """A build as `change/base`, its base's labels joined by commas."""
    change, base = node.key
    return f"{change.label}/{','.join(b.label for b in base)}"


class Executor:
    """Runs what the scheduler chooses, as a set of nodes."""

    def __init__(self, strategy: str):
        config = EngineConfig(executor_capacity=2)
        self.scheduler = Scheduler(strategy, config, OracleWithNoise())
        self.running: set = set()

    def arrive(self, c: ChangeId) -> int:
        """Hand the change over as it arrives; return how many queued
        changes ahead of it conflict with it."""
        return self.scheduler.arrive(c, *ARRIVALS[c])

    def reschedule(self) -> tuple[list[tuple[str, float]], list[str]]:
        """The builds started, with their scores to four places as the
        trace gives them, and the builds aborted."""
        to_start, to_abort = self.scheduler.reschedule(self.running)
        self.running.difference_update(to_abort)
        self.running.update(node for node, _ in to_start)
        return [(name(n), round(p, 4)) for n, p in to_start], list(map(name, to_abort))

    def finish(self, build: str, now: float) -> list[tuple]:
        """Each decision the passing build led to, as (verb, change,
        bypassed, last finish time, dropped builds); a decision drops its
        own change's builds with the ones that contradict it."""
        (node,) = [n for n in self.running if name(n) == build]
        self.running.remove(node)
        decided = []
        for decision, bypassed, finished_at, dropped in self.scheduler.finish(
            node, BuildOutcome.PASS, now
        ):
            self.running.difference_update(dropped)
            bypassed = ",".join(b.label for b in bypassed)
            verb, c = decision.kind.value, decision.change.label
            decided.append((verb, c, bypassed, finished_at, list(map(name, dropped))))
        return decided


def test_the_enhanced_scheduler_lands_the_short_change_by_bypass():
    run = Executor("enhanced")
    assert run.arrive(C0) == 0
    assert run.reschedule() == ([("C0/", 1.0)], [])
    assert run.arrive(C1) == 1
    # C1 bypasses C0, so both its builds score 1; the deeper one ranks first
    assert run.reschedule() == ([("C1/C0", 1.0)], [])
    assert run.arrive(C2) == 0
    # C2's one build scores 1 too, but ranks after the earlier change's
    assert run.reschedule() == ([], [])
    assert run.finish("C1/C0", 6.0) == []
    assert run.reschedule() == ([("C1/", 1.0)], [])
    # both of C1's builds passed, so it lands past C0
    assert run.finish("C1/", 11.0) == [("land", "C1", "C0", 11.0, ["C1/C0", "C1/"])]
    assert run.reschedule() == ([("C2/", 1.0)], [])
    assert run.finish("C2/", 21.0) == [("land", "C2", "", 21.0, ["C2/"])]
    assert run.reschedule() == ([], [])
    assert run.finish("C0/", 60.0) == [("land", "C0", "", 60.0, ["C0/"])]
    assert run.reschedule() == ([], [])
    assert run.scheduler.forest.queue == () and run.running == set()


def test_the_baseline_scheduler_waits_out_the_head():
    run = Executor("baseline")
    assert run.arrive(C0) == 0
    assert run.reschedule() == ([("C0/", 1.0)], [])
    assert run.arrive(C1) == 1
    # C1's build on C0 scores C0's prior, its mainline build the rest
    assert run.reschedule() == ([("C1/C0", 0.9)], [])
    assert run.arrive(C2) == 0
    # C2's build at 1 takes the executor of C1's at 0.9
    assert run.reschedule() == ([("C2/", 1.0)], ["C1/C0"])
    assert run.finish("C2/", 12.0) == [("land", "C2", "", 12.0, ["C2/"])]
    assert run.reschedule() == ([("C1/C0", 0.9)], [])
    # the baseline never bypasses, so C1 waits for C0
    assert run.finish("C1/C0", 17.0) == []
    assert run.reschedule() == ([("C1/", 0.1)], [])
    # C0's landing drops C1's running mainline build, which assumed it
    # rejected, and carries the passed build on C0 to the mainline, so C1
    # lands on it
    assert run.finish("C0/", 60.0) == [
        ("land", "C0", "", 60.0, ["C0/", "C1/"]),
        ("land", "C1", "", 17.0, ["C1/"]),
    ]
    assert run.reschedule() == ([], [])
    assert run.scheduler.forest.queue == () and run.running == set()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_an_id_out_of_turn_raises_and_keeps_nothing(strategy):
    run = Executor(strategy)
    run.arrive(C0)
    scheduler = run.scheduler

    def kept():
        lists = (scheduler.arrivals, scheduler.priors, scheduler.durations)
        return [list(entries) for entries in lists], dict(scheduler.forest.targets)

    before = kept()
    # C0 a second time, and C2 before C1
    for c in (C0, C2):
        with pytest.raises(ValueError) as info:
            run.arrive(c)
        assert str(info.value) == f"{c!r} arrives, but seq 1 is next"
        assert kept() == before
    assert run.arrive(C1) == 1
