"""Tests for the FlexRay model: static TDMA and dynamic minislots."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from flexray_reference import ReferenceFlexRayBus

from repro import obs
from repro.errors import ConfigurationError, ProtocolError
from repro.network import (DynamicFrameSpec, FlexRayBus, FlexRayConfig,
                           StaticSlotAssignment)
from repro.sim import Simulator
from repro.units import ms, us


def make_bus(n_static=4, slot=us(100), minislots=0, minislot_len=us(10),
             nit=0):
    sim = Simulator()
    cfg = FlexRayConfig(slot_length=slot, n_static_slots=n_static,
                        minislot_length=minislot_len if minislots else 0,
                        n_minislots=minislots, nit_length=nit)
    bus = FlexRayBus(sim, cfg)
    return sim, bus


def test_cycle_length_composition():
    cfg = FlexRayConfig(slot_length=us(100), n_static_slots=4,
                        minislot_length=us(10), n_minislots=20,
                        nit_length=us(50))
    assert cfg.static_segment_length == us(400)
    assert cfg.dynamic_segment_length == us(200)
    assert cfg.cycle_length == us(650)


def test_static_frame_delivered_at_slot_end_every_cycle():
    sim, bus = make_bus()
    a = bus.attach("A")
    bus.attach("B")
    bus.assign_slot(StaticSlotAssignment(2, "A", "F"))
    bus.start()

    # Keep the buffer filled.
    def refill():
        a.send_static(2, payload="v")
        sim.schedule(us(400), refill)

    refill()
    sim.run_until(ms(1) + us(350))
    cycle = bus.config.cycle_length
    rx = bus.trace.times("flexray.rx", "F")
    assert rx[0] == 2 * us(100)
    assert rx[1] == cycle + 2 * us(100)


def test_empty_buffer_sends_null_frame():
    sim, bus = make_bus()
    bus.attach("A")
    bus.attach("B")
    bus.assign_slot(StaticSlotAssignment(1, "A", "F"))
    bus.start()
    sim.run_until(us(450))
    assert len(bus.trace.records("flexray.null_frame", "F")) == 1
    assert bus.latencies("F") == []


def test_send_static_requires_slot_ownership():
    sim, bus = make_bus()
    a = bus.attach("A")
    b = bus.attach("B")
    bus.assign_slot(StaticSlotAssignment(1, "A", "F"))
    with pytest.raises(ProtocolError):
        b.send_static(1)
    with pytest.raises(ProtocolError):
        a.send_static(3)  # unassigned slot


def test_slot_exclusivity_and_range_checked():
    sim, bus = make_bus(n_static=2)
    bus.attach("A")
    bus.attach("B")
    bus.assign_slot(StaticSlotAssignment(1, "A", "F"))
    with pytest.raises(ConfigurationError):
        bus.assign_slot(StaticSlotAssignment(1, "B", "G"))
    with pytest.raises(ConfigurationError):
        bus.assign_slot(StaticSlotAssignment(3, "B", "G"))
    with pytest.raises(ConfigurationError):
        bus.assign_slot(StaticSlotAssignment(2, "NOPE", "G"))


def test_cycle_multiplexing_base_and_repetition():
    sim, bus = make_bus()
    a = bus.attach("A")
    bus.attach("B")
    bus.assign_slot(StaticSlotAssignment(1, "A", "F", base_cycle=1,
                                         repetition=2))
    bus.start()

    def refill():
        a.send_static(1, payload="v")
        sim.schedule(us(100), refill)

    refill()
    cycle = bus.config.cycle_length
    sim.run_until(4 * cycle)
    rx = bus.trace.times("flexray.rx", "F")
    # Active only in odd cycles.
    assert rx == [cycle + us(100), 3 * cycle + us(100)]


def test_repetition_must_be_power_of_two():
    with pytest.raises(ConfigurationError):
        StaticSlotAssignment(1, "A", "F", repetition=3)
    with pytest.raises(ConfigurationError):
        StaticSlotAssignment(1, "A", "F", base_cycle=2, repetition=2)


def test_static_latency_independent_of_other_slot_load():
    """The composability property: slot 2's timing never changes, however
    much traffic slot 1's owner generates."""

    def run(slot1_busy):
        sim, bus = make_bus()
        a = bus.attach("A")
        v = bus.attach("V")
        bus.assign_slot(StaticSlotAssignment(1, "A", "NOISE"))
        bus.assign_slot(StaticSlotAssignment(2, "V", "VICTIM"))
        bus.start()
        if slot1_busy:
            def noise():
                a.send_static(1, payload="x")
                sim.schedule(us(100), noise)
            noise()

        def victim():
            v.send_static(2, payload="v")
            sim.schedule(us(400), victim)

        victim()
        sim.run_until(ms(2))
        return bus.trace.times("flexray.rx", "VICTIM")

    assert run(False) == run(True)


def test_dynamic_segment_orders_by_frame_id():
    sim, bus = make_bus(minislots=30)
    a = bus.attach("A")
    b = bus.attach("B")
    bus.start()
    # Enqueue in "wrong" order during the static segment of cycle 0.
    a.queue_dynamic(DynamicFrameSpec("LATE", frame_id=9, size_bytes=2))
    b.queue_dynamic(DynamicFrameSpec("EARLY", frame_id=5, size_bytes=2))
    sim.run_until(bus.config.cycle_length)
    rx = bus.trace.records("flexray.rx_dynamic")
    assert [r.subject for r in rx] == ["EARLY", "LATE"]


def test_dynamic_queue_keeps_frame_id_then_enqueue_order():
    sim, bus = make_bus(minislots=30)
    a = bus.attach("A")
    for name, frame_id in (("C", 3), ("A1", 1), ("B", 2), ("A2", 1),
                           ("D", 4), ("B2", 2)):
        a.queue_dynamic(DynamicFrameSpec(name, frame_id, size_bytes=2))
    assert [entry[2].name for entry in a._dynamic_queue] \
        == ["A1", "A2", "B", "B2", "C", "D"]


def test_dynamic_frame_postponed_when_minislots_exhausted():
    sim, bus = make_bus(minislots=12)
    a = bus.attach("A")
    bus.attach("B")
    bus.start()
    # 10 Mbit/s: (8B*8+80)*100ns = 14.4 us -> 2 minislots of 10 us each.
    a.queue_dynamic(DynamicFrameSpec("F1", 1, size_bytes=8))
    a.queue_dynamic(DynamicFrameSpec("F2", 2, size_bytes=8))
    a.queue_dynamic(DynamicFrameSpec("F3", 3, size_bytes=8))
    a.queue_dynamic(DynamicFrameSpec("F4", 4, size_bytes=8))
    a.queue_dynamic(DynamicFrameSpec("F5", 5, size_bytes=8))
    a.queue_dynamic(DynamicFrameSpec("F6", 6, size_bytes=8))
    a.queue_dynamic(DynamicFrameSpec("F7", 7, size_bytes=8))
    # F6's reception lands exactly at the cycle boundary (12 minislots
    # consumed), so run through the full first cycle.
    sim.run_until(bus.config.cycle_length)
    first_cycle = [r.subject for r in bus.trace.records("flexray.rx_dynamic")]
    assert first_cycle == ["F1", "F2", "F3", "F4", "F5", "F6"]
    sim.run_until(2 * bus.config.cycle_length)
    all_rx = [r.subject for r in bus.trace.records("flexray.rx_dynamic")]
    assert all_rx == first_cycle + ["F7"]


def test_fault_model_drops_slot():
    sim, bus = make_bus()
    a = bus.attach("A")
    bus.attach("B")
    bus.assign_slot(StaticSlotAssignment(1, "A", "F"))
    bus.fault_model = lambda assignment, cycle: cycle == 0
    bus.start()

    def refill():
        a.send_static(1, payload="x")
        sim.schedule(us(100), refill)

    refill()
    sim.run_until(2 * bus.config.cycle_length - 1)
    assert len(bus.trace.records("flexray.slot_lost", "F")) == 1
    assert len(bus.trace.records("flexray.rx", "F")) == 1


def test_payload_capacity():
    cfg = FlexRayConfig(slot_length=us(100), n_static_slots=2)
    # 100us at 10Mbit/s = 1000 bits; (1000-80)/8 = 115 bytes.
    assert cfg.payload_capacity_bytes() == 115


def test_config_validation():
    with pytest.raises(ConfigurationError):
        FlexRayConfig(slot_length=0, n_static_slots=2)
    with pytest.raises(ConfigurationError):
        FlexRayConfig(slot_length=us(10), n_static_slots=2, n_minislots=5,
                      minislot_length=0)
    with pytest.raises(ConfigurationError):
        FlexRayConfig(slot_length=us(100), n_static_slots=2,
                      nit_length=-ms(1))
    with pytest.raises(ConfigurationError):
        FlexRayConfig(slot_length=us(100), n_static_slots=2, bitrate_bps=0)
    # Above 1 Gbit/s a bit lasts under 1 ns and rounds down to 0 ns.
    with pytest.raises(ConfigurationError, match="under 1 ns"):
        FlexRayConfig(slot_length=us(100), n_static_slots=2,
                      bitrate_bps=2_000_000_000)
    assert FlexRayConfig(slot_length=us(100), n_static_slots=2,
                         bitrate_bps=1_000_000_000).payload_capacity_bytes() \
        == (us(100) - 80) // 8


def test_minislots_for_rounds_the_frame_time_up():
    cfg = FlexRayConfig(slot_length=us(100), n_static_slots=2,
                        minislot_length=us(10), n_minislots=20)
    # (0*8+80)*100ns = 8us -> 1; (8*8+80)*100ns = 14.4us -> 2;
    # (15*8+80)*100ns = 20us exactly -> 2, not 3.
    assert [cfg.minislots_for(size) for size in (0, 8, 15, 16)] \
        == [1, 2, 2, 3]


def test_slot_assigned_after_start_transmits_from_the_next_cycle():
    sim, bus = make_bus()
    a = bus.attach("A")
    bus.attach("B")
    bus.start()
    cycle = bus.config.cycle_length

    def late():
        bus.assign_slot(StaticSlotAssignment(3, "A", "LATE"))
        a.send_static(3, payload="v")

    sim.schedule_at(us(50), late)
    sim.run_until(2 * cycle)
    assert bus.trace.times("flexray.rx", "LATE") == [cycle + 3 * us(100)]


# ----------------------------------------------------------------------
# Parity with the reference cycle engine
# ----------------------------------------------------------------------
@st.composite
def flexray_scripts(draw):
    """A random cluster and its traffic.

    1-8 static slots, each owned with random ``base_cycle`` /
    ``repetition`` or left unassigned; 0-4 dynamic frames of 0-254 bytes
    over at most 12 minislots, so frames are postponed (or never fit);
    a periodic writer per slot and frame at a random offset and period;
    fault models swapped in and out mid-run; rx callbacks on some nodes
    only, some of which forward static frames into the dynamic segment
    (so a reception at the segment start races the arbitration); and
    one unassigned slot assigned while the bus runs.
    """
    nodes = draw(st.integers(2, 4))
    node = st.integers(0, nodes - 1)
    # Mostly frames that fit the segment; some that never will.
    size = st.integers(0, 24) | st.integers(0, 254)
    n_static = draw(st.integers(1, 8))
    n_minislots = draw(st.integers(0, 12))
    config = {
        "slot_length": us(draw(st.integers(5, 40))),
        "n_static_slots": n_static,
        "minislot_length": us(draw(st.integers(1, 8))) if n_minislots else 0,
        "n_minislots": n_minislots,
        "nit_length": us(draw(st.integers(0, 20))),
        "bitrate_bps": draw(st.sampled_from(
            [10_000_000, 5_000_000, 2_500_000])),
    }
    cycle = FlexRayConfig(**config).cycle_length
    timing = st.tuples(st.integers(0, 2 * cycle),            # offset
                       st.integers(cycle // 4, 3 * cycle))   # period

    def multiplexed():
        repetition = draw(st.sampled_from([1, 2, 4, 8, 64]))
        return draw(st.integers(0, repetition - 1)), repetition

    slots = {}
    for slot in range(1, n_static + 1):
        if draw(st.booleans()):
            slots[slot] = (draw(node), *multiplexed(), draw(timing))
    late = None
    free = [slot for slot in range(1, n_static + 1) if slot not in slots]
    if free:
        late = (draw(st.sampled_from(free)), draw(node), *multiplexed(),
                draw(timing), draw(st.integers(0, 4 * cycle)))
    frames = draw(st.lists(
        st.tuples(st.integers(1, 8), size, node, timing), max_size=4))
    faults = draw(st.lists(
        st.tuples(st.integers(0, 8 * cycle), st.none() | st.integers(2, 5)),
        max_size=4))
    receivers = draw(st.dictionaries(node, st.none() | st.tuples(
        st.integers(1, 8), size)))
    horizon = draw(st.integers(1, 24)) * cycle + draw(st.integers(0, cycle))
    return (nodes, config, slots, late, frames, faults, receivers, horizon)


def run_flexray_script(bus_class, script):
    nodes, config, slots, late, frames, faults, receivers, horizon = script
    sim = Simulator()
    bus = bus_class(sim, FlexRayConfig(**config))
    controllers = [bus.attach(f"N{i}") for i in range(nodes)]
    calls = []
    consulted = []

    def writer(index, write, offset, period):
        payloads = itertools.count()

        def fire():
            try:
                write((index, next(payloads)))
            except ProtocolError:
                calls.append(("refused", sim.now, index))
            sim.schedule(period, fire)

        sim.schedule_at(offset, fire)

    def static_writer(slot, owner, offset, period):
        writer(slot, lambda payload: controllers[owner].send_static(
            slot, payload), offset, period)

    for slot, (owner, base, repetition, (offset, period)) in slots.items():
        bus.assign_slot(StaticSlotAssignment(slot, f"N{owner}", f"S{slot}",
                                             base, repetition))
        static_writer(slot, owner, offset, period)
    if late is not None:
        slot, owner, base, repetition, (offset, period), at = late
        sim.schedule_at(at, lambda: bus.assign_slot(StaticSlotAssignment(
            slot, f"N{owner}", f"S{slot}", base, repetition)))
        static_writer(slot, owner, offset, period)
    for index, (frame_id, size, owner, (offset, period)) in \
            enumerate(frames):
        spec = DynamicFrameSpec(f"D{index}", frame_id, size)
        writer(-1 - index, lambda payload, c=controllers[owner], s=spec:
               c.queue_dynamic(s, payload), offset, period)

    def fault_model(modulus):
        def lost(assignment, cycle):
            consulted.append((sim.now, assignment.slot, cycle))
            return (assignment.slot + cycle) % modulus == 0
        return lost

    for at, modulus in faults:
        model = None if modulus is None else fault_model(modulus)
        sim.schedule_at(at, lambda m=model: setattr(bus, "fault_model", m))

    def receive(receiver, forward):
        controller = controllers[receiver]
        spec = None if forward is None \
            else DynamicFrameSpec(f"FWD{receiver}", *forward)

        def on_frame(name, msg, slot):
            calls.append((sim.now, receiver, name, msg.sender, msg.payload,
                          slot, msg.tx_start, msg.latency))
            if spec is not None and slot is not None:
                controller.queue_dynamic(spec, (name, msg.payload))

        controller.on_receive(on_frame)

    for receiver, forward in sorted(receivers.items()):
        receive(receiver, forward)

    with obs.capture() as telemetry:
        bus.start()
        sim.run_until(horizon)
    return {"digest": bus.trace.digest(), "events": sim.executed,
            "cycle": bus.cycle, "tx": [c.tx_count for c in controllers],
            "calls": calls, "consulted": consulted,
            "counters": telemetry.snapshot()["metrics"]["counters"]}


@settings(max_examples=200, deadline=None)
@given(flexray_scripts())
def test_cycle_engine_matches_the_reference(script):
    assert run_flexray_script(FlexRayBus, script) \
        == run_flexray_script(ReferenceFlexRayBus, script)


def run_generated(monkeypatch, bus_class, seed, size):
    import repro.verify.oracle as oracle
    from repro.verify.generator import generate
    from repro.verify.resilience import (standard_scenarios,
                                         verify_resilience)

    monkeypatch.setattr(oracle, "FlexRayBus", bus_class)
    system = generate(seed, size)
    built = oracle.build_system(system)
    assert type(built.flexray_bus) is bus_class
    built.sim.run_until(built.horizon)
    verdict = oracle.verify_system(system)
    system.faults = [scenario for scenario in standard_scenarios(system)
                     if scenario.kind == "flexray-slot-loss"]
    [slot_loss] = verify_resilience(system)
    assert slot_loss.detected
    return (built.trace.digest(), built.sim.executed, verdict.to_dict(),
            slot_loss.to_dict())


@pytest.mark.parametrize("size", ["small", "medium", "large"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_systems_match_the_reference(monkeypatch, seed, size):
    """Same trace digest, event count and verdict (differential checks
    plus the FlexRay slot-loss scenario, whose fault model is swapped in
    mid-run) with the oracle's bus swapped for the reference engine."""
    assert run_generated(monkeypatch, FlexRayBus, seed, size) \
        == run_generated(monkeypatch, ReferenceFlexRayBus, seed, size)
