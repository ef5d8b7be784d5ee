"""Unit tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, lambda: fired.append(30))
    sim.schedule(10, lambda: fired.append(10))
    sim.schedule(20, lambda: fired.append(20))
    sim.run()
    assert fired == [10, 20, 30]


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]


def test_same_time_ties_broken_by_priority_then_insertion():
    sim = Simulator()
    fired = []
    sim.schedule(5, lambda: fired.append("late"), priority=10)
    sim.schedule(5, lambda: fired.append("first"), priority=0)
    sim.schedule(5, lambda: fired.append("second"), priority=0)
    sim.run()
    assert fired == ["first", "second", "late"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10, lambda: fired.append("x"))
    sim.cancel(handle)
    sim.run()
    assert fired == []
    assert sim.pending == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(10, lambda: None)
    sim.cancel(handle)
    sim.cancel(handle)
    assert sim.run() == 0


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(50, lambda: None)


def test_run_until_leaves_future_events_pending():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: fired.append(10))
    sim.schedule(100, lambda: fired.append(100))
    sim.run_until(50)
    assert fired == [10]
    assert sim.now == 50
    assert sim.pending == 1
    sim.run_until(200)
    assert fired == [10, 100]


def test_run_until_executes_events_at_exact_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(50, lambda: fired.append(50))
    sim.run_until(50)
    assert fired == [50]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        if sim.now < 30:
            sim.schedule(10, chain)

    sim.schedule(10, chain)
    sim.run()
    assert fired == [10, 20, 30]


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(10, lambda: (fired.append(10), sim.stop()))
    sim.schedule(20, lambda: fired.append(20))
    sim.run()
    assert fired == [10]
    assert sim.pending == 1


def test_run_max_events_limits_execution():
    def endless_chain():
        sim = Simulator()

        def forever():
            sim.schedule(1, forever)

        sim.schedule(1, forever)
        return sim

    for max_events in (500, 1, 0):
        sim = endless_chain()
        assert sim.run(max_events=max_events) == max_events
        assert sim.executed == max_events
        assert sim.pending == 1
    sim = endless_chain()
    with pytest.raises(SimulationError):
        sim.run(max_events=-1)
    assert sim.executed == 0


def test_zero_delay_event_runs_at_current_time():
    sim = Simulator()
    times = []

    def outer():
        sim.schedule(0, lambda: times.append(sim.now))

    sim.schedule(7, outer)
    sim.run()
    assert times == [7]


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                max_size=60))
def test_arbitrary_delays_fire_sorted(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(d))
    sim.run()
    assert fired == sorted(delays)
    assert sim.now == max(delays)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1000),
                          st.integers(min_value=0, max_value=5)),
                min_size=2, max_size=40))
def test_time_priority_ordering_invariant(specs):
    """Events must observe non-decreasing (time, priority) order."""
    sim = Simulator()
    observed = []
    for t, prio in specs:
        sim.schedule(t, lambda t=t, p=prio: observed.append((t, p)),
                     priority=prio)
    sim.run()
    assert observed == sorted(observed)
