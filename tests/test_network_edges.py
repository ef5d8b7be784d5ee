"""Edge-case tests for the network models and OSEK resources."""

import pytest

from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.network import (CanBus, CanFrameSpec, ERROR_FRAME_BITS,
                           FlexRayBus, FlexRayConfig,
                           StaticSlotAssignment, TtEthernetSwitch,
                           TtFrameSpec, frame_time)
from repro.osek import OsekResource, TaskSpec
from repro.osek.task import Job, Task
from repro.sim import Simulator
from repro.units import bit_time, ms, us

BITRATE = 500_000
TBIT = bit_time(BITRATE)


# ----------------------------------------------------------------------
# CAN edges
# ----------------------------------------------------------------------
def test_can_repeated_errors_keep_retrying_until_success():
    sim = Simulator()
    failures = {"left": 3}

    def error_model(spec, msg):
        if failures["left"] > 0:
            failures["left"] -= 1
            return True
        return False

    bus = CanBus(sim, BITRATE, error_model=error_model)
    tx = bus.attach("A")
    bus.attach("B")
    tx.send(CanFrameSpec("F", 0x10, dlc=4))
    sim.run()
    assert bus.error_count == 3
    assert bus.frames_delivered == 1
    expected = 3 * ERROR_FRAME_BITS * TBIT + frame_time(4, BITRATE)
    assert bus.latencies("F") == [expected]


def test_can_zero_dlc_frame():
    sim = Simulator()
    bus = CanBus(sim, BITRATE)
    tx = bus.attach("A")
    bus.attach("B")
    tx.send(CanFrameSpec("EMPTY", 0x1, dlc=0))
    sim.run()
    assert bus.latencies("EMPTY") == [55 * TBIT]


def test_can_same_id_from_two_nodes_fifo_by_enqueue():
    """Two nodes sharing an id (bad practice but possible): the model
    breaks the tie deterministically by enqueue order."""
    sim = Simulator()
    bus = CanBus(sim, BITRATE)
    a = bus.attach("A")
    b = bus.attach("B")
    a.send(CanFrameSpec("first", 0x100, dlc=1))
    b.send(CanFrameSpec("second", 0x100, dlc=1))
    sim.run()
    order = [r.subject for r in bus.trace.records("can.tx_start")]
    assert order == ["first", "second"]


def test_can_flush_clears_backlog():
    sim = Simulator()
    bus = CanBus(sim, BITRATE)
    tx = bus.attach("A")
    bus.attach("B")
    for i in range(5):
        tx.send(CanFrameSpec(f"F{i}", 0x100 + i, dlc=8))
    # One frame is mid-transmission; four are queued.
    sim.run_until(frame_time(8, BITRATE) // 2)
    assert tx.flush() == 4
    sim.run()
    assert bus.frames_delivered == 1


# ----------------------------------------------------------------------
# FlexRay edges
# ----------------------------------------------------------------------
def test_flexray_sender_buffer_overwritten_not_queued():
    """Static slots carry state, not events: the newest write wins."""
    sim = Simulator()
    bus = FlexRayBus(sim, FlexRayConfig(slot_length=us(100),
                                        n_static_slots=2))
    tx = bus.attach("A")
    rx = bus.attach("B")
    bus.assign_slot(StaticSlotAssignment(2, "A", "F"))
    got = []
    rx.on_receive(lambda name, msg, slot: got.append(msg.payload))
    bus.start()
    tx.send_static(2, payload="old")
    sim.schedule(us(50), lambda: tx.send_static(2, payload="new"))
    sim.run_until(us(250))
    assert got == ["new"]


def test_flexray_empty_dynamic_segment_is_harmless():
    sim = Simulator()
    bus = FlexRayBus(sim, FlexRayConfig(slot_length=us(100),
                                        n_static_slots=1,
                                        minislot_length=us(10),
                                        n_minislots=5))
    bus.attach("A")
    bus.start()
    sim.run_until(3 * bus.config.cycle_length)
    assert bus.cycle == 3


def test_flexray_double_start_rejected():
    sim = Simulator()
    bus = FlexRayBus(sim, FlexRayConfig(slot_length=us(100),
                                        n_static_slots=1))
    bus.start()
    with pytest.raises(ConfigurationError):
        bus.start()


# ----------------------------------------------------------------------
# TT-Ethernet edges
# ----------------------------------------------------------------------
def test_tte_saturated_port_raises_for_best_effort():
    sim = Simulator()
    sw = TtEthernetSwitch(sim, bitrate_bps=100_000_000)
    sw.attach("A")
    sw.attach("B")
    # TT stream occupying essentially the whole period.
    sw.schedule_tt(TtFrameSpec("S", "A", ["B"], offset=0,
                               period=8160, size_bytes=64))
    sw.start()
    with pytest.raises(ConfigurationError):
        sw.send_be("A", "B", size_bytes=1500)


def test_tte_duplicate_attach_rejected():
    sim = Simulator()
    sw = TtEthernetSwitch(sim)
    sw.attach("A")
    with pytest.raises(ConfigurationError):
        sw.attach("A")


# ----------------------------------------------------------------------
# OSEK resource misuse
# ----------------------------------------------------------------------
def test_resource_double_acquire_and_foreign_release():
    resource = OsekResource("R", ceiling=5)
    task = Task(TaskSpec("T", wcet=ms(1), period=ms(10)))
    other = Task(TaskSpec("U", wcet=ms(1), period=ms(10)))
    job = Job(task, 0, 0)
    intruder = Job(other, 0, 1)
    resource.acquire(job)
    with pytest.raises(SchedulingError):
        resource.acquire(intruder)
    with pytest.raises(SchedulingError):
        resource.release(intruder)
    resource.release(job)
    assert resource.holder is None
    assert job.effective_priority == task.spec.priority


def test_resource_nested_ceilings_restore_correctly():
    low = OsekResource("LOW", ceiling=3)
    high = OsekResource("HIGH", ceiling=9)
    task = Task(TaskSpec("T", wcet=ms(1), period=ms(10), priority=1))
    job = Job(task, 0, 0)
    low.acquire(job)
    assert job.effective_priority == 3
    high.acquire(job)
    assert job.effective_priority == 9
    low.release(job)
    assert job.effective_priority == 9  # still holding HIGH
    high.release(job)
    assert job.effective_priority == 1


# ----------------------------------------------------------------------
# Simulator edges
# ----------------------------------------------------------------------
def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run_until(100)
    with pytest.raises(SimulationError):
        sim.run_until(50)
