"""Tests for the shared priority-assignment function and the simulator
event counter (small public APIs added for the timing report)."""

from repro.core.rte import SPORADIC_PRIORITY, assign_rm_priorities
from repro.core.runnable import (DataReceivedEvent, Runnable, TimingEvent)
from repro.sim import Simulator
from repro.units import ms


def make_runnable(name, trigger):
    return Runnable(name, trigger, lambda ctx: None, wcet=1000)


def test_rate_monotonic_levels():
    plan = [
        ("a", make_runnable("fast", TimingEvent(ms(5)))),
        ("a", make_runnable("mid", TimingEvent(ms(20)))),
        ("b", make_runnable("slow", TimingEvent(ms(100)))),
    ]
    priorities = assign_rm_priorities({}, plan)
    assert priorities["a.fast"] > priorities["a.mid"] > \
        priorities["b.slow"]
    assert priorities["b.slow"] == 1


def test_explicit_overrides_win():
    plan = [("a", make_runnable("fast", TimingEvent(ms(5))))]
    priorities = assign_rm_priorities({"a.fast": 77}, plan)
    assert priorities["a.fast"] == 77


def test_event_activated_runnables_get_sporadic_priority():
    plan = [
        ("a", make_runnable("periodic", TimingEvent(ms(10)))),
        ("b", make_runnable("reactive",
                            DataReceivedEvent("in", "v"))),
    ]
    # DataReceivedEvent validation happens at component level; the bare
    # Runnable is fine for priority assignment.
    priorities = assign_rm_priorities({}, plan)
    assert priorities["b.reactive"] == SPORADIC_PRIORITY
    assert priorities["a.periodic"] < SPORADIC_PRIORITY


def test_deterministic_for_equal_periods():
    plan = [
        ("a", make_runnable("x", TimingEvent(ms(10)))),
        ("b", make_runnable("y", TimingEvent(ms(10)))),
    ]
    first = assign_rm_priorities({}, plan)
    second = assign_rm_priorities({}, list(plan))
    assert first == second
    assert len(set(first.values())) == 2  # distinct levels


def test_simulator_executed_counter():
    sim = Simulator()
    for delay in (1, 2, 3):
        sim.schedule(delay, lambda: None)
    cancelled = sim.schedule(4, lambda: None)
    sim.cancel(cancelled)
    sim.run_until(10)
    assert sim.executed == 3  # cancelled events do not count
