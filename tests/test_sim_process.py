"""Unit tests for generator-based processes and signals."""

import pytest

from repro.errors import SimulationError
from repro.sim import Delay, Signal, Simulator, Wait, all_done, spawn


def test_process_runs_segments_at_right_times():
    sim = Simulator()
    times = []

    def proc():
        times.append(sim.now)
        yield Delay(10)
        times.append(sim.now)
        yield Delay(15)
        times.append(sim.now)

    spawn(sim, proc())
    sim.run()
    assert times == [0, 10, 25]


def test_process_result_captured():
    sim = Simulator()

    def proc():
        yield Delay(5)
        return "finished"

    p = spawn(sim, proc())
    sim.run()
    assert p.done
    assert p.result == "finished"


def test_signal_wakes_waiting_process_with_value():
    sim = Simulator()
    sig = Signal("go")
    got = []

    def waiter():
        value = yield Wait(sig)
        got.append((sim.now, value))

    spawn(sim, waiter())
    sim.schedule(40, lambda: sig.fire("payload"))
    sim.run()
    assert got == [(40, "payload")]


def test_signal_wakes_all_waiters_once():
    sim = Simulator()
    sig = Signal()
    woken = []

    def waiter(i):
        yield Wait(sig)
        woken.append(i)

    for i in range(3):
        spawn(sim, waiter(i))
    sim.schedule(10, sig.fire)
    sim.schedule(20, sig.fire)  # nobody left waiting
    sim.run()
    assert sorted(woken) == [0, 1, 2]
    assert sig.fire_count == 2


def test_signal_is_not_sticky():
    """A fire before the wait is not remembered (broadcast semantics)."""
    sim = Simulator()
    sig = Signal()
    woken = []

    def late_waiter():
        yield Delay(50)
        yield Wait(sig)
        woken.append(sim.now)

    spawn(sim, late_waiter())
    sim.schedule(10, sig.fire)
    sim.run_until(1000)
    assert woken == []
    assert sig.waiter_count == 1


def test_kill_stops_process():
    sim = Simulator()
    ticks = []

    def proc():
        while True:
            yield Delay(10)
            ticks.append(sim.now)

    p = spawn(sim, proc())
    sim.schedule(35, p.kill)
    sim.run_until(100)
    assert ticks == [10, 20, 30]
    assert p.done


def test_kill_releases_the_signal_the_process_waits_on():
    """A killed waiter no longer counts as blocked on its signal, and a
    later fire does not reach it."""
    sim = Simulator()
    sig = Signal("go")
    woken = []

    def waiter():
        yield Wait(sig)
        woken.append(sim.now)

    p = spawn(sim, waiter())
    sim.run()
    assert sig.waiter_count == 1
    p.kill()
    assert sig.waiter_count == 0
    sig.fire()
    assert woken == [] and p.done


def test_waiter_killed_by_a_co_waiter_during_fire_stays_dead():
    sim = Simulator()
    sig = Signal()
    woken = []
    procs = {}

    def killer():
        yield Wait(sig)
        woken.append("killer")
        procs["victim"].kill()

    def victim():
        yield Wait(sig)
        woken.append("victim")

    procs["killer"] = spawn(sim, killer())
    procs["victim"] = spawn(sim, victim())
    sim.run()
    sig.fire()
    assert woken == ["killer"]
    assert procs["victim"].done and sig.waiter_count == 0


def test_process_bad_yield_raises():
    sim = Simulator()

    def proc():
        yield "nonsense"

    spawn(sim, proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Delay(-5)


def test_all_done_helper():
    sim = Simulator()

    def proc(n):
        yield Delay(n)

    procs = [spawn(sim, proc(n)) for n in (5, 10)]
    assert not all_done(procs)
    sim.run()
    assert all_done(procs)
