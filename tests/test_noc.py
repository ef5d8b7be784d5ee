"""Tests for the MPSoC/NoC platform and the four composability
requirements of the paper's Section 4."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError, ProtocolError
from repro.noc import (MeshTopology, Mpsoc, SharedBusInterconnect, TdmaNoc)
from repro.sim import Simulator
from repro.units import ms, us


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------
def test_mesh_indexing_roundtrip():
    mesh = MeshTopology(3, 2)
    assert mesh.size == 6
    for index in range(mesh.size):
        x, y = mesh.position(index)
        assert mesh.index(x, y) == index


def test_mesh_hops_manhattan():
    mesh = MeshTopology(3, 3)
    assert mesh.hops(0, 8) == 4  # (0,0) -> (2,2)
    assert mesh.hops(4, 4) == 0


def test_xy_route_x_then_y():
    mesh = MeshTopology(3, 3)
    route = mesh.xy_route(0, 8)
    assert route == [1, 2, 5, 8]


def test_mesh_validation():
    with pytest.raises(ConfigurationError):
        MeshTopology(0, 3)
    mesh = MeshTopology(2, 2)
    with pytest.raises(ConfigurationError):
        mesh.position(4)
    with pytest.raises(ConfigurationError):
        mesh.index(2, 0)


@given(st.integers(min_value=2, max_value=5),
       st.integers(min_value=2, max_value=5), st.data())
def test_route_length_equals_hops(w, h, data):
    mesh = MeshTopology(w, h)
    src = data.draw(st.integers(min_value=0, max_value=mesh.size - 1))
    dst = data.draw(st.integers(min_value=0, max_value=mesh.size - 1))
    assert len(mesh.xy_route(src, dst)) == mesh.hops(src, dst)


# ----------------------------------------------------------------------
# Shared bus
# ----------------------------------------------------------------------
def shared_bus_mpsoc(arbitration="priority"):
    sim = Simulator()
    bus = SharedBusInterconnect(sim, MeshTopology(2, 2),
                                bandwidth_bps=1_000_000_000,
                                arbitration=arbitration)
    mpsoc = Mpsoc(sim, bus)
    return sim, bus, mpsoc


def test_shared_bus_delivers_message():
    sim, bus, mpsoc = shared_bus_mpsoc()
    got = []
    mpsoc.cores[1].on_receive(lambda msg: got.append(msg.payload))
    mpsoc.cores[0].send(mpsoc.cores[1], payload="hi", size_bytes=125)
    sim.run()
    assert got == ["hi"]
    # 125 bytes at 1 Gbit/s = 1000 ns + 50 ns overhead.
    assert bus.latencies("noc.rx_bus") == [1050]


def test_shared_bus_serializes_transactions():
    sim, bus, mpsoc = shared_bus_mpsoc()
    mpsoc.cores[0].send(mpsoc.cores[1], size_bytes=125)
    mpsoc.cores[2].send(mpsoc.cores[3], size_bytes=125)
    sim.run()
    lats = bus.latencies("noc.rx_bus")
    assert lats == [1050, 2100]  # second waits for the first


def test_shared_bus_priority_arbitration():
    sim, bus, mpsoc = shared_bus_mpsoc("priority")
    # Fill the bus, then enqueue low before high.
    mpsoc.cores[0].send(mpsoc.cores[1], size_bytes=125, priority=0)
    mpsoc.cores[2].send(mpsoc.cores[1], payload="low", size_bytes=125,
                        priority=1)
    mpsoc.cores[3].send(mpsoc.cores[1], payload="high", size_bytes=125,
                        priority=9)
    order = []
    mpsoc.cores[1].on_receive(lambda msg: order.append(msg.payload))
    sim.run()
    assert order == [None, "high", "low"]


def test_shared_bus_interference():
    """A hot sender inflates a victim's latency (the federated failure
    mode the TT NoC exists to remove)."""

    def victim_latency(with_aggressor):
        sim, bus, mpsoc = shared_bus_mpsoc()
        if with_aggressor:
            # ~81% bus load at higher priority than the victim.
            mpsoc.cores[2].send_periodic(mpsoc.cores[3], period=us(5),
                                         size_bytes=500, priority=9)
        mpsoc.cores[0].send_periodic(mpsoc.cores[1], period=us(100),
                                     size_bytes=32, priority=1)
        sim.run_until(ms(1))
        lats = [r.data["latency"] for r in bus.trace.records("noc.rx_bus")
                if r.subject == "core0->core1"]
        return max(lats)

    assert victim_latency(True) > victim_latency(False)


def test_interface_violations_rejected():
    sim, bus, mpsoc = shared_bus_mpsoc()
    with pytest.raises(ProtocolError):
        bus.send(0, 0)  # self-send
    with pytest.raises(ProtocolError):
        bus.send(0, 1, size_bytes=0)
    with pytest.raises(ProtocolError):
        bus.send(0, 1, size_bytes=10_000)
    with pytest.raises(ConfigurationError):
        bus.send(0, 99)


# ----------------------------------------------------------------------
# TDMA NoC
# ----------------------------------------------------------------------
def tt_mpsoc():
    sim = Simulator()
    noc = TdmaNoc(sim, MeshTopology(2, 2), slot_length=us(1),
                  hop_latency=100)
    mpsoc = Mpsoc(sim, noc)
    mpsoc.start()
    return sim, noc, mpsoc


def test_tt_noc_delivers_in_own_slot():
    sim, noc, mpsoc = tt_mpsoc()
    got = []
    mpsoc.cores[1].on_receive(lambda msg: got.append(sim.now))
    mpsoc.cores[0].send(mpsoc.cores[1], size_bytes=32)
    sim.run_until(ms(1))
    # Core 0's slot ends at 1 us; 1 hop of 100 ns.
    assert got == [us(1) + 100]


def test_tt_noc_latency_bound_holds():
    sim, noc, mpsoc = tt_mpsoc()
    bound = noc.worst_case_latency(3, 0)
    mpsoc.cores[3].send_periodic(mpsoc.cores[0], period=us(7),
                                 size_bytes=32)
    sim.run_until(ms(1))
    lats = noc.latencies("noc.rx_tt", "core3->core0")
    assert lats and max(lats) <= bound


def test_tt_noc_non_interference():
    """Requirement 3: the victim's latency series is identical with and
    without aggressor traffic."""

    def run(with_aggressor):
        sim, noc, mpsoc = tt_mpsoc()
        mpsoc.cores[0].send_periodic(mpsoc.cores[1], period=us(16),
                                     size_bytes=32)
        if with_aggressor:
            mpsoc.cores[2].start_babbling(mpsoc.cores[1], interval=us(1))
        sim.run_until(ms(1))
        return noc.latencies("noc.rx_tt", "core0->core1")

    assert run(False) == run(True)


def test_tt_noc_gate_contains_faulty_core():
    """Requirement 4: gating a babbler stops its traffic entirely while
    others continue unaffected."""
    sim, noc, mpsoc = tt_mpsoc()
    mpsoc.cores[2].start_babbling(mpsoc.cores[1], interval=us(1))
    mpsoc.cores[0].send_periodic(mpsoc.cores[1], period=us(16),
                                 size_bytes=32)
    sim.schedule(us(100), lambda: noc.gate(2))
    sim.run_until(ms(1))
    babble_rx = [r for r in noc.trace.records("noc.rx_tt", "core2->core1")]
    assert all(r.time <= us(110) for r in babble_rx)  # none after gating
    assert noc.gated_drops > 0
    victim_rx = noc.latencies("noc.rx_tt", "core0->core1")
    assert len(victim_rx) >= 50  # victim service continued


def test_tt_noc_prefix_latencies_skip_gated_drops():
    """``noc.gated_drop`` records carry no latency; a latency query over
    them skips them rather than raising KeyError."""
    sim, noc, mpsoc = tt_mpsoc()
    mpsoc.cores[2].start_babbling(mpsoc.cores[1], interval=us(1))
    sim.schedule(us(100), lambda: noc.gate(2))
    sim.run_until(ms(1))
    assert noc.trace.records("noc.gated_drop", "core2->core1")
    assert noc.latencies("noc.rx_tt", "core2->core1")
    assert noc.latencies("noc.gated_drop", "core2->core1") == []


def test_tt_noc_stability_of_prior_services():
    """Requirement 2: integrating a new sender leaves existing cores'
    delivery times bit-identical."""

    def run(extra_core_active):
        sim, noc, mpsoc = tt_mpsoc()
        mpsoc.cores[0].send_periodic(mpsoc.cores[3], period=us(20),
                                     size_bytes=64)
        if extra_core_active:
            mpsoc.cores[1].send_periodic(mpsoc.cores[2], period=us(5),
                                         size_bytes=64)
        sim.run_until(ms(1))
        return noc.trace.times("noc.rx_tt", "core0->core3")

    assert run(False) == run(True)


def test_tt_noc_queue_drains_fifo():
    sim, noc, mpsoc = tt_mpsoc()
    order = []
    mpsoc.cores[1].on_receive(lambda msg: order.append(msg.payload))
    for i in range(3):
        mpsoc.cores[0].send(mpsoc.cores[1], payload=i)
    sim.run_until(ms(1))
    assert order == [0, 1, 2]
    # One message per round: deliveries a round apart.
    times = noc.trace.times("noc.rx_tt", "core0->core1")
    assert times[1] - times[0] == noc.round_length


def test_mpsoc_core_lookup_and_validation():
    sim = Simulator()
    noc = TdmaNoc(sim, MeshTopology(2, 2))
    mpsoc = Mpsoc(sim, noc, core_names=["a", "b", "c", "d"])
    assert mpsoc.core("c").index == 2
    with pytest.raises(ConfigurationError):
        mpsoc.core("nope")
    with pytest.raises(ConfigurationError):
        Mpsoc(sim, noc, core_names=["x"])
