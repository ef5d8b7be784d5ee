"""Tests for the CAN bus model: arbitration, timing, errors."""

import pytest
from hypothesis import given, settings, strategies as st

from can_reference import ReferenceCanBus
from repro.errors import ConfigurationError
from repro.network import CanBus, CanFrameSpec, frame_bits, frame_time
from repro.sim import Simulator
from repro.units import bit_time, ms, us


BITRATE = 500_000
TBIT = bit_time(BITRATE)  # 2000 ns


def test_frame_bits_standard_8_bytes():
    # g=34, s=8: 34+64+13 + floor(97/4) = 111 + 24 = 135 bits.
    assert frame_bits(8) == 135


def test_frame_bits_standard_0_bytes():
    # 34+0+13 + floor(33/4) = 47 + 8 = 55 bits.
    assert frame_bits(0) == 55


def test_frame_bits_extended():
    # g=54, s=8: 54+64+13 + floor(117/4) = 131 + 29 = 160 bits.
    assert frame_bits(8, extended=True) == 160


def test_frame_bits_no_stuffing():
    assert frame_bits(8, worst_case_stuffing=False) == 111


@given(st.integers(min_value=0, max_value=8))
def test_frame_bits_monotone_in_dlc(dlc):
    if dlc > 0:
        assert frame_bits(dlc) > frame_bits(dlc - 1)


def test_frame_time_at_500k():
    assert frame_time(8, BITRATE) == 135 * TBIT == 270_000


def test_dlc_out_of_range():
    with pytest.raises(ConfigurationError):
        frame_bits(9)
    with pytest.raises(ConfigurationError):
        CanFrameSpec("X", 1, dlc=9)


def test_can_id_range_checked():
    with pytest.raises(ConfigurationError):
        CanFrameSpec("X", 0x800)
    CanFrameSpec("X", 0x800, extended=True)  # fine when extended


def test_single_frame_latency_is_wire_time():
    sim = Simulator()
    bus = CanBus(sim, BITRATE)
    tx = bus.attach("A")
    bus.attach("B")
    spec = CanFrameSpec("F", can_id=0x100, dlc=8)
    tx.send(spec)
    sim.run()
    assert bus.latencies("F") == [frame_time(8, BITRATE)]


def test_broadcast_reaches_all_other_nodes_not_sender():
    sim = Simulator()
    bus = CanBus(sim, BITRATE)
    tx = bus.attach("A")
    received = {"B": [], "C": []}
    for node in ("B", "C"):
        bus.attach(node).on_receive(
            lambda spec, msg, node=node: received[node].append(msg.name))
    got_own = []
    tx.on_receive(lambda spec, msg: got_own.append(msg.name))
    tx.send(CanFrameSpec("F", 0x10))
    sim.run()
    assert received == {"B": ["F"], "C": ["F"]}
    assert got_own == []


def test_lowest_id_wins_arbitration():
    sim = Simulator()
    bus = CanBus(sim, BITRATE)
    a = bus.attach("A")
    b = bus.attach("B")
    # Both enqueue at t=0; lower id must be on the wire first.
    a.send(CanFrameSpec("HIGH_ID", 0x300, dlc=8))
    b.send(CanFrameSpec("LOW_ID", 0x050, dlc=8))
    sim.run()
    starts = bus.trace.records("can.tx_start")
    assert [r.subject for r in starts] == ["LOW_ID", "HIGH_ID"]


def test_transmission_is_non_preemptive():
    """A higher-priority frame arriving mid-transmission waits."""
    sim = Simulator()
    bus = CanBus(sim, BITRATE)
    a = bus.attach("A")
    b = bus.attach("B")
    a.send(CanFrameSpec("LOW_PRIO", 0x400, dlc=8))
    dur = frame_time(8, BITRATE)
    sim.schedule(dur // 2,
                 lambda: b.send(CanFrameSpec("URGENT", 0x001, dlc=8)))
    sim.run()
    starts = bus.trace.records("can.tx_start")
    assert [r.subject for r in starts] == ["LOW_PRIO", "URGENT"]
    assert starts[1].time == dur  # waits for bus idle


def test_queueing_delay_grows_with_lower_priority():
    sim = Simulator()
    bus = CanBus(sim, BITRATE)
    node = bus.attach("A")
    bus.attach("B")
    msgs = [node.send(CanFrameSpec(f"F{i}", 0x100 + i, dlc=8))
            for i in range(3)]
    sim.run()
    dur = frame_time(8, BITRATE)
    assert [m.queueing_delay for m in msgs] == [0, dur, 2 * dur]
    assert [m.latency for m in msgs] == [dur, 2 * dur, 3 * dur]


def test_error_model_triggers_retransmission():
    sim = Simulator()
    fail_first = {"left": 1}

    def error_model(spec, msg):
        if fail_first["left"] > 0:
            fail_first["left"] -= 1
            return True
        return False

    bus = CanBus(sim, BITRATE, error_model=error_model)
    tx = bus.attach("A")
    bus.attach("B")
    tx.send(CanFrameSpec("F", 0x10, dlc=8))
    sim.run()
    assert bus.error_count == 1
    assert len(bus.trace.records("can.error")) == 1
    # Retransmission succeeds after the 31-bit error recovery.
    lat = bus.latencies("F")
    assert lat == [31 * TBIT + frame_time(8, BITRATE)]


def test_bus_off_controller_sends_nothing():
    sim = Simulator()
    bus = CanBus(sim, BITRATE)
    tx = bus.attach("A")
    bus.attach("B")
    tx.send(CanFrameSpec("BEFORE", 0x10))
    tx.set_bus_off()
    tx.send(CanFrameSpec("AFTER", 0x11))
    sim.run()
    # Pending queue flushed at bus-off: nothing is delivered.
    assert bus.frames_delivered == 0
    assert len(bus.trace.records("can.tx_rejected")) == 1


def test_duplicate_node_rejected():
    sim = Simulator()
    bus = CanBus(sim, BITRATE)
    bus.attach("A")
    with pytest.raises(ConfigurationError):
        bus.attach("A")


def test_utilization_reflects_load():
    sim = Simulator()
    bus = CanBus(sim, BITRATE)
    tx = bus.attach("A")
    bus.attach("B")
    spec = CanFrameSpec("P", 0x10, dlc=8)

    def periodic():
        tx.send(spec)
        sim.schedule(ms(1), periodic)

    periodic()
    sim.run_until(ms(100))
    expected = frame_time(8, BITRATE) / ms(1)
    assert bus.utilization() == pytest.approx(expected, rel=0.05)


def test_back_to_back_frames_from_competing_nodes_interleave_by_id():
    sim = Simulator()
    bus = CanBus(sim, BITRATE)
    nodes = [bus.attach(f"N{i}") for i in range(3)]
    for i, node in enumerate(nodes):
        node.send(CanFrameSpec(f"F{i}", 0x100 - i, dlc=1))
    sim.run()
    order = [r.subject for r in bus.trace.records("can.tx_start")]
    assert order == ["F2", "F1", "F0"]


@st.composite
def can_scripts(draw):
    """2-4 nodes, frames sent at random instants (ids shared across
    nodes), transmission attempts the error model destroys, and an
    optional bus-off window on one node."""
    nodes = draw(st.integers(2, 4))
    sends = draw(st.lists(
        st.tuples(st.integers(0, 3000), st.integers(0, nodes - 1),
                  st.integers(0, 6), st.integers(0, 8)),
        min_size=1, max_size=40))
    destroyed = draw(st.sets(st.integers(0, 60), max_size=10))
    bus_off = draw(st.none() | st.tuples(
        st.integers(0, nodes - 1), st.integers(0, 3000),
        st.integers(1, 2000)))
    return nodes, sends, destroyed, bus_off


def run_can_script(bus_class, script):
    nodes, sends, destroyed, bus_off = script
    attempts = []

    def error_model(spec, msg):
        attempts.append(spec.name)
        return len(attempts) - 1 in destroyed

    sim = Simulator()
    bus = bus_class(sim, BITRATE, error_model=error_model)
    controllers = [bus.attach(f"N{i}") for i in range(nodes)]
    for index, (at_us, node, can_id, dlc) in enumerate(sends):
        spec = CanFrameSpec(f"F{index}", can_id, dlc=dlc)
        sim.schedule_at(us(at_us), lambda c=controllers[node], s=spec:
                        c.send(s, payload=0))
    if bus_off is not None:
        node, start_us, length_us = bus_off
        controller = controllers[node]
        sim.schedule_at(us(start_us), lambda: controller.set_bus_off(True))
        sim.schedule_at(us(start_us + length_us),
                        lambda: controller.set_bus_off(False))
    sim.run()
    return {"digest": bus.trace.digest(), "events": sim.executed,
            "delivered": bus.frames_delivered, "errors": bus.error_count,
            "attempts": attempts,
            "nodes": [(c.tx_count, c.rx_count) for c in controllers]}


@settings(max_examples=200, deadline=None)
@given(can_scripts())
def test_arbitration_matches_the_reference(script):
    assert run_can_script(CanBus, script) \
        == run_can_script(ReferenceCanBus, script)
