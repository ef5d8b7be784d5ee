"""Tests for the XCP-like measurement & calibration service."""

import pytest

from repro.errors import ConfigurationError, MeasurementError
from repro.meas.service import (CALIBRATION_DTC, CALIBRATION_EVENT, DaqList,
                                MeasurementService, attach_world,
                                default_daq, samples_digest)
from repro.units import ms
from repro.verify.generator import generate as generate_system
from repro.verify.oracle import build_system


@pytest.fixture
def live():
    """A freshly built small system with an attached service."""
    system = generate_system(seed=7, size="small")
    built = build_system(system)
    service = MeasurementService.attach(built, system)
    return built, system, service


def test_connection_gate(live):
    __, __, service = live
    with pytest.raises(MeasurementError):
        service.read("sim.now")
    service.connect()
    assert service.read("sim.now") == 0
    service.disconnect()
    with pytest.raises(MeasurementError):
        service.poll()


def test_read_measurements_and_characteristics(live):
    built, system, service = live
    service.connect()
    built.sim.run_until(ms(50))
    polled = service.poll()
    assert polled["sim.now"] == ms(50)
    assert polled["sim.executed"] > 0
    busy = [v for k, v in polled.items() if k.endswith("busy_ns")]
    assert busy and all(v >= 0 for v in busy)
    # Characteristics read through the configuration set.
    assert service.read("calib.chain.timeout") \
        == service.config.get("chain.timeout")
    assert service.read("calib.dem.debounce_threshold") == 1


def test_write_measurement_is_read_only(live):
    __, __, service = live
    service.connect()
    with pytest.raises(MeasurementError):
        service.write("sim.now", 5)


def test_pre_compile_write_refused_value_intact(live):
    __, __, service = live
    service.connect()
    old = service.read("calib.chain.data_id")
    with pytest.raises(ConfigurationError) as excinfo:
        service.write("calib.chain.data_id", old + 1)
    assert "pre-compile" in str(excinfo.value)
    assert service.read("calib.chain.data_id") == old
    assert service.writes_refused == 1 and service.writes_applied == 0
    # Refused writes must not confirm the calibration DEM event.
    assert not service.dem.event(CALIBRATION_EVENT).confirmed


def test_link_time_write_refused(live):
    __, __, service = live
    service.connect()
    with pytest.raises(ConfigurationError) as excinfo:
        service.write("calib.can.bitrate_bps", 250_000)
    assert "link-time" in str(excinfo.value)


def test_post_build_write_applied_and_freeze_frame_logged(live):
    built, system, service = live
    service.connect()
    built.sim.run_until(ms(10))
    old = service.read("calib.chain.timeout")
    new = old * 2
    service.write("calib.chain.timeout", new)
    assert service.read("calib.chain.timeout") == new
    # The applier poked the live receiver profile (shared object).
    assert built.receiver.profile.timeout == new
    # DEM confirmed with a freeze frame naming the write.
    event = service.dem.event(CALIBRATION_EVENT)
    assert event.confirmed and event.dtc == CALIBRATION_DTC
    frame = event.freeze_frame
    assert frame["parameter"] == "chain.timeout"
    assert frame["old"] == old and frame["new"] == new
    assert frame["address"] \
        == service.registry.entry("calib.chain.timeout").address
    assert frame["time"] == ms(10)
    # And the service trace carries the audit record.
    records = service.trace.records("meas.write")
    assert [r.subject for r in records] == ["chain.timeout"]


def test_validator_rejected_write_keeps_prior_value(live):
    __, __, service = live
    service.connect()
    with pytest.raises(ConfigurationError):
        service.write("calib.chain.timeout", -1)
    assert service.writes_refused == 1
    assert service.read("calib.chain.timeout") > 0


def test_daq_samples_on_sim_time(live):
    built, system, service = live
    service.connect()
    daq = default_daq(service.registry, period=ms(1))
    service.start_daq(daq)
    built.sim.run_until(ms(10))
    service.detach()
    ticks = sorted({row[0] for row in service.samples})
    # One tick per period from t=0 through the horizon.
    assert ticks == [ms(i) for i in range(11)]
    per_tick = len(daq.entries)
    assert len(service.samples) == 11 * per_tick
    assert not service.connected


def test_daq_digest_is_deterministic():
    digests = []
    for __ in range(2):
        system = generate_system(seed=7, size="small")
        built = build_system(system)
        service = MeasurementService.attach(built, system)
        service.connect()
        service.start_daq(default_daq(service.registry, period=ms(2)))
        built.sim.run_until(ms(40))
        service.detach()
        digests.append(service.samples_digest())
    assert digests[0] == digests[1]


def test_daq_samples_a_characteristic_from_the_configuration_set(live):
    built, system, service = live
    service.connect()
    old = service.read("calib.chain.timeout")
    service.start_daq(DaqList("cal", ("calib.chain.timeout", "sim.now"),
                              period=ms(1)))
    built.sim.schedule_at(ms(2) + 1, lambda: service.write(
        "calib.chain.timeout", old * 2))
    built.sim.run_until(ms(4))
    service.detach()
    sampled = [(row[0], row[3]) for row in service.samples
               if row[2] == "calib.chain.timeout"]
    assert sampled == [(ms(0), old), (ms(1), old), (ms(2), old),
                       (ms(3), old * 2), (ms(4), old * 2)]


def test_daq_validates_names_and_duplicates(live):
    __, __, service = live
    service.connect()
    with pytest.raises(ConfigurationError):
        service.start_daq(DaqList("bad", ("no.such.entry",), period=ms(1)))
    service.start_daq(DaqList("d", ("sim.now",), period=ms(1)))
    with pytest.raises(MeasurementError):
        service.start_daq(DaqList("d", ("sim.now",), period=ms(1)))
    with pytest.raises(MeasurementError):
        service.stop_daq("never-started")


def test_daq_list_validation():
    with pytest.raises(ConfigurationError):
        DaqList("d", ("x",), period=0)
    with pytest.raises(ConfigurationError):
        DaqList("d", (), period=ms(1))
    with pytest.raises(ConfigurationError):
        DaqList("d", ("x",), period=ms(1), offset=-1)


def test_samples_digest_orders_canonically():
    rows_a = [[0, "d", "x", 1], [1, "d", "x", 2]]
    assert samples_digest(rows_a) == samples_digest(list(rows_a))
    assert samples_digest(rows_a) != samples_digest(rows_a[::-1])


def test_attach_world_generic_measurements():
    class World:
        pass

    from repro.sim import Simulator, Trace

    world = World()
    world.sim = Simulator()
    world.trace = Trace()
    world.trace.log(0, "a", "b")
    service = attach_world(world, node="MEAS:test")
    service.connect()
    polled = service.poll()
    assert polled["sim.now"] == 0
    assert polled["trace.records"] == 1
    assert service.config is None  # no calibration plane on worlds
