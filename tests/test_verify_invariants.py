"""Unit tests for the trace invariants, driven by hand-built traces
that provably violate (or satisfy) each property."""

import random

from hypothesis import given, settings, strategies as st

from repro.sim import Trace
from repro.units import ms, us
from repro.verify import (AliveCounterInvariant, E2eContainmentInvariant,
                          Invariant, InvariantChecker,
                          NoOverlappingExecution, PriorityCeilingInvariant,
                          TdmaWindowInvariant)

ECUS = {"A": "E0", "B": "E0", "C": "E1"}


def check(trace, *invariants):
    return InvariantChecker(list(invariants)).run(trace)


# ----------------------------------------------------------------------
# NoOverlappingExecution
# ----------------------------------------------------------------------
def test_preempt_resume_sequence_is_clean():
    tr = Trace()
    tr.log(0, "task.start", "A")
    tr.log(5, "task.preempt", "A")
    tr.log(5, "task.start", "B")
    tr.log(9, "task.complete", "B")
    tr.log(9, "task.resume", "A")
    tr.log(12, "task.complete", "A")
    assert check(tr, NoOverlappingExecution(ECUS)) == []


def test_two_tasks_running_on_one_ecu_flagged():
    tr = Trace()
    tr.log(0, "task.start", "A")
    tr.log(5, "task.start", "B")  # A never yielded the CPU
    violations = check(tr, NoOverlappingExecution(ECUS))
    assert len(violations) == 1
    assert violations[0].time == 5
    assert violations[0].subject == "B"
    assert "A" in violations[0].message


def test_parallel_ecus_do_not_interfere():
    tr = Trace()
    tr.log(0, "task.start", "A")  # E0
    tr.log(1, "task.start", "C")  # E1: fine, different CPU
    assert check(tr, NoOverlappingExecution(ECUS)) == []


def test_unknown_tasks_are_ignored():
    tr = Trace()
    tr.log(0, "task.start", "A")
    tr.log(1, "task.start", "GHOST")
    assert check(tr, NoOverlappingExecution(ECUS)) == []


# ----------------------------------------------------------------------
# TdmaWindowInvariant
# ----------------------------------------------------------------------
WINDOWS = [(0, ms(2), "P0"), (ms(5), ms(2), "P1")]
PARTITION_OF = {"T0": "P0", "T1": "P1"}


def tdma():
    return TdmaWindowInvariant(WINDOWS, ms(10), PARTITION_OF)


def test_run_inside_own_window_is_clean():
    tr = Trace()
    tr.log(us(500), "task.start", "T0")
    tr.log(ms(1), "task.complete", "T0")
    # Next major frame occurrence of the same window.
    tr.log(ms(10), "task.start", "T0")
    tr.log(ms(11), "task.complete", "T0")
    assert check(tr, tdma()) == []


def test_run_outside_every_window_flagged():
    tr = Trace()
    tr.log(ms(3), "task.start", "T0")  # P0 owns [0, 2) only
    tr.log(ms(4), "task.complete", "T0")
    violations = check(tr, tdma())
    assert len(violations) == 1
    assert "outside every window" in violations[0].message


def test_run_in_foreign_window_flagged():
    tr = Trace()
    tr.log(ms(5) + us(100), "task.start", "T0")  # that's P1's window
    tr.log(ms(6), "task.complete", "T0")
    assert len(check(tr, tdma())) == 1


def test_run_past_window_end_flagged():
    tr = Trace()
    tr.log(ms(1), "task.start", "T0")
    tr.log(ms(3), "task.complete", "T0")  # window ended at 2 ms
    violations = check(tr, tdma())
    assert len(violations) == 1
    assert "past" in violations[0].message


# ----------------------------------------------------------------------
# PriorityCeilingInvariant
# ----------------------------------------------------------------------
PRIORITIES = {"low": 1, "mid": 5, "hi": 9}
SAME_ECU = {"low": "E0", "mid": "E0", "hi": "E0"}


def icpp():
    return PriorityCeilingInvariant(PRIORITIES, {"R": 5}, SAME_ECU)


def test_task_at_or_below_ceiling_running_during_hold_flagged():
    tr = Trace()
    tr.log(0, "task.start", "low")
    tr.log(1, "task.acquire", "low", resource="R")
    tr.log(2, "task.preempt", "low")
    tr.log(2, "task.start", "mid")  # priority 5 <= ceiling 5: forbidden
    violations = check(tr, icpp())
    assert len(violations) == 1
    assert violations[0].subject == "mid"
    assert "low" in violations[0].message


def test_task_above_ceiling_may_preempt_the_hold():
    tr = Trace()
    tr.log(0, "task.start", "low")
    tr.log(1, "task.acquire", "low", resource="R")
    tr.log(2, "task.preempt", "low")
    tr.log(2, "task.start", "hi")  # priority 9 > ceiling 5: fine
    tr.log(3, "task.complete", "hi")
    tr.log(3, "task.resume", "low")
    tr.log(4, "task.release", "low", resource="R")
    tr.log(5, "task.complete", "low")
    tr.log(6, "task.start", "mid")  # after release: fine
    assert check(tr, icpp()) == []


def test_acquire_record_without_resource_key_is_tolerated():
    tr = Trace()
    tr.log(0, "task.start", "low")
    tr.log(1, "task.acquire", "low")  # partially instrumented
    tr.log(2, "task.release", "low")
    assert check(tr, icpp()) == []


# ----------------------------------------------------------------------
# AliveCounterInvariant
# ----------------------------------------------------------------------
def alive():
    return AliveCounterInvariant("PDU", modulo=16, max_delta=1)


def test_wrapping_counter_stream_is_clean():
    tr = Trace()
    for t, counter in enumerate((14, 15, 0, 1)):
        tr.log(t, "e2e.ok", "PDU", counter=counter)
    assert check(tr, alive()) == []


def test_counter_jump_flagged():
    tr = Trace()
    tr.log(0, "e2e.ok", "PDU", counter=1)
    tr.log(1, "e2e.ok", "PDU", counter=5)
    violations = check(tr, alive())
    assert len(violations) == 1
    assert "delta 4" in violations[0].message


def test_stuck_counter_flagged():
    tr = Trace()
    tr.log(0, "e2e.ok", "PDU", counter=3)
    tr.log(1, "e2e.ok", "PDU", counter=3)
    assert len(check(tr, alive())) == 1


def test_records_without_counter_and_foreign_pdus_skipped():
    tr = Trace()
    tr.log(0, "e2e.ok", "PDU", counter=1)
    tr.log(1, "e2e.ok", "PDU")  # no counter data: skipped, no KeyError
    tr.log(2, "e2e.ok", "OTHER", counter=9)
    tr.log(3, "e2e.ok", "PDU", counter=2)
    assert check(tr, alive()) == []


# ----------------------------------------------------------------------
# E2eContainmentInvariant
# ----------------------------------------------------------------------
def test_rejected_reception_reaching_application_flagged():
    tr = Trace()
    tr.log(5, "e2e.crc_error", "PDU")
    tr.log(5, "com.rx", "PDU")  # containment failed
    violations = check(tr, E2eContainmentInvariant())
    assert len(violations) == 1
    assert violations[0].time == 5


def test_blocked_rejection_is_clean():
    tr = Trace()
    tr.log(5, "e2e.wrong_sequence", "PDU")
    tr.log(5, "com.rx_blocked", "PDU")
    tr.log(7, "com.rx", "PDU")  # a later, valid reception
    assert check(tr, E2eContainmentInvariant()) == []


# ----------------------------------------------------------------------
# InvariantChecker
# ----------------------------------------------------------------------
def test_checker_merges_and_sorts_violations():
    tr = Trace()
    tr.log(9, "e2e.crc_error", "PDU")
    tr.log(9, "com.rx", "PDU")
    tr.log(0, "task.start", "A")
    tr.log(5, "task.start", "B")
    violations = check(tr, NoOverlappingExecution(ECUS),
                       E2eContainmentInvariant())
    assert [v.time for v in violations] == [5, 9]
    assert {v.invariant for v in violations} == \
        {"no-overlap", "e2e-containment"}


def test_invariant_without_categories_sees_every_record():
    class Recorder(Invariant):
        name = "recorder"

        def __init__(self):
            super().__init__()
            self.seen = []

        def observe(self, record):
            self.seen.append(record)

    tr = Trace()
    tr.log(0, "task.start", "A")
    tr.log(1, "can.rx", "F1")
    tr.log(2, "flexray.cycle", "FR")
    tr.log(3, "e2e.ok", "PDU", counter=1)
    tr.log(4, "custom.kind", "X")
    recorder = Recorder()
    assert Recorder.categories is None
    check(tr, NoOverlappingExecution(ECUS), recorder, alive())
    assert recorder.seen == list(tr)


# ----------------------------------------------------------------------
# Category routing matches feeding every record to every invariant
# ----------------------------------------------------------------------
#: Categories the simulators log, plus the ones the invariants read.
STREAM_CATEGORIES = (
    "task.activate", "task.start", "task.resume", "task.preempt",
    "task.complete", "task.wait", "task.wake", "task.budget_overrun",
    "task.acquire", "task.release", "task.deadline_miss",
    "task.activation_lost",
    "e2e.ok", "e2e.crc_error", "e2e.wrong_sequence", "e2e.repeated",
    "e2e.timeout", "com.rx",
    "can.enqueue", "can.tx_start", "can.rx", "can.error",
    "flexray.cycle", "flexray.rx", "flexray.rx_dynamic",
    "flexray.null_frame", "flexray.slot_lost")
ROUTED_ECUS = {"A": "E0", "B": "E0", "C": "E1", "T0": "E1", "T1": "E1"}


def routed_invariants():
    """One of each built-in invariant over the stream vocabulary."""
    return [NoOverlappingExecution(ROUTED_ECUS), tdma(),
            PriorityCeilingInvariant({**PRIORITIES, "A": 3, "T0": 4},
                                     {"R": 5, "Q": 2},
                                     {**SAME_ECU, "A": "E0", "T0": "E0"}),
            alive(), E2eContainmentInvariant()]


#: Categories each built-in invariant reads, so that a stream can dwell
#: on one invariant long enough to break it.
FOCUS = (("task.start", "task.resume", "task.preempt", "task.complete"),
         ("task.start", "task.complete", "task.wait"),
         ("task.acquire", "task.release", "task.start", "task.resume"),
         ("e2e.ok",),
         ("e2e.crc_error", "e2e.repeated", "com.rx"))


def random_stream(rng):
    """A time-ordered stream of 0-60 records over every category, with
    subjects the invariants know (and some they do not).  Half the
    records come from one invariant's categories, the rest from all."""
    focus = rng.choice(FOCUS)
    subjects = ["A", "B", "C", "low", "mid", "hi", "T0", "T1", "PDU",
                "GHOST"]
    tr = Trace()
    time = 0
    for _ in range(rng.randrange(61)):
        time += rng.choice([0, 0, 1, ms(1), ms(3)])
        category = rng.choice(focus if rng.random() < 0.5
                              else STREAM_CATEGORIES)
        data = {}
        if category in ("task.acquire", "task.release"):
            data["resource"] = rng.choice(["R", "Q", "S"])
        elif category == "e2e.ok" and rng.random() < 0.8:
            data["counter"] = rng.randrange(16)
        subject = "PDU" if category.startswith(("e2e.", "com.")) \
            and rng.random() < 0.8 else rng.choice(subjects)
        tr.log(time, category, subject, **data)
    return tr


def feed_every_record(invariants, trace):
    """The reference: every record to every invariant, in order."""
    for record in trace:
        for invariant in invariants:
            invariant.observe(record)
    violations = []
    for invariant in invariants:
        invariant.finish()
        violations.extend(invariant.violations)
    return sorted(violations, key=lambda v: (v.time, v.invariant, v.subject))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_routing_matches_feeding_every_record(rng):
    trace = random_stream(rng)
    assert InvariantChecker(routed_invariants()).run(trace) \
        == feed_every_record(routed_invariants(), trace)


def test_random_streams_break_each_invariant():
    """The streams above reach a violation of every invariant, and on
    each the routed checker reports exactly the reference's violations."""
    broken = set()
    for seed in range(300):
        trace = random_stream(random.Random(seed))
        expected = feed_every_record(routed_invariants(), trace)
        assert InvariantChecker(routed_invariants()).run(trace) == expected
        broken.update(v.invariant for v in expected)
    assert broken == {inv.name for inv in routed_invariants()}
