"""Tests for basic software services."""

import pytest

from repro.errors import ConfigurationError
from repro.bsw import (AWAKE, BUS_SLEEP, CanGateway, CLEAR_DTC,
                       DiagnosticServer, ErrorEvent, ErrorManager, FAILED,
                       ModeMachine, NEGATIVE_RESPONSE, NmCluster,
                       NvramManager, PASSED, READ_DATA, READ_DTC,
                       READY_TO_SLEEP, WatchdogManager)
from repro.network import CanBus, CanFrameSpec
from repro.sim import Simulator
from repro.units import ms, us


# ----------------------------------------------------------------------
# Mode management
# ----------------------------------------------------------------------
def brake_modes():
    machine = ModeMachine("brakes", ["normal", "degraded", "safe_stop"],
                          "normal")
    machine.allow_chain("normal", "degraded", "safe_stop")
    machine.allow("degraded", "normal")
    return machine


def test_mode_switch_follows_declared_transitions():
    machine = brake_modes()
    assert machine.request("degraded")
    assert machine.current == "degraded"
    assert machine.request("normal")
    assert machine.request("degraded")
    assert machine.request("safe_stop")


def test_undeclared_transition_denied():
    machine = brake_modes()
    assert not machine.request("safe_stop")  # normal -> safe_stop missing
    assert machine.current == "normal"
    assert len(machine.trace.records("mode.denied")) == 1


def test_mode_entry_exit_callbacks_and_history():
    machine = brake_modes()
    calls = []
    machine.on_exit("normal", lambda: calls.append("exit-normal"))
    machine.on_entry("degraded", lambda: calls.append("enter-degraded"))
    machine.request("degraded")
    assert calls == ["exit-normal", "enter-degraded"]
    assert [m for __, m in machine.history] == ["normal", "degraded"]


def test_mode_request_current_is_noop():
    machine = brake_modes()
    assert machine.request("normal")
    assert len(machine.history) == 1


def test_mode_validation():
    with pytest.raises(ConfigurationError):
        ModeMachine("m", [], "x")
    with pytest.raises(ConfigurationError):
        ModeMachine("m", ["a", "a"], "a")
    with pytest.raises(ConfigurationError):
        ModeMachine("m", ["a"], "b")
    machine = brake_modes()
    with pytest.raises(ConfigurationError):
        machine.allow("normal", "ghost")


# ----------------------------------------------------------------------
# Error manager
# ----------------------------------------------------------------------
def test_debounce_confirms_after_threshold():
    dem = ErrorManager("ECU1")
    dem.register(ErrorEvent("sensor_open", dtc=0x1234, threshold=3))
    dem.report("sensor_open", FAILED)
    dem.report("sensor_open", FAILED)
    assert not dem.event("sensor_open").confirmed
    dem.report("sensor_open", FAILED)
    assert dem.event("sensor_open").confirmed
    assert dem.stored_dtcs() == [0x1234]


def test_debounce_passed_heals():
    dem = ErrorManager("ECU1")
    dem.register(ErrorEvent("e", dtc=1, threshold=2))
    changes = []
    dem.on_status_change(lambda ev, confirmed: changes.append(confirmed))
    dem.report("e", FAILED)
    dem.report("e", FAILED)
    dem.report("e", PASSED)
    dem.report("e", PASSED)
    assert changes == [True, False]
    # Healed, but the occurrence stays in diagnostic memory.
    assert dem.stored_dtcs() == [1]


def test_intermittent_fault_below_threshold_never_confirms():
    dem = ErrorManager("ECU1")
    dem.register(ErrorEvent("e", dtc=1, threshold=3))
    for __ in range(10):
        dem.report("e", FAILED)
        dem.report("e", PASSED)
        dem.report("e", PASSED)
    assert not dem.event("e").confirmed
    assert dem.stored_dtcs() == []


def test_freeze_frame_captured_with_context():
    dem = ErrorManager("ECU1", now=lambda: 42)
    dem.register(ErrorEvent("e", dtc=1, threshold=1))
    dem.report("e", FAILED, context={"speed": 88})
    frame = dem.event("e").freeze_frame
    assert frame["speed"] == 88 and frame["time"] == 42


def test_clear_dtcs():
    dem = ErrorManager("ECU1")
    dem.register(ErrorEvent("e", dtc=1, threshold=1))
    dem.report("e", FAILED)
    assert dem.clear_dtcs() == 1
    assert dem.stored_dtcs() == []


def test_snapshot_seq_increases_across_freeze_frame_refreshes():
    dem = ErrorManager("ECU1", now=lambda: 7)
    dem.register(ErrorEvent("a", dtc=1, threshold=1))
    dem.register(ErrorEvent("b", dtc=2, threshold=1))
    dem.report("a", FAILED)                      # confirm: seq 1
    seq_confirm = dem.snapshot()["a"]["seq"]
    dem.report("a", FAILED, context={"n": 1})    # refresh: seq 2
    seq_refresh1 = dem.snapshot()["a"]["seq"]
    dem.report("a", FAILED, context={"n": 2})    # refresh: seq 3
    seq_refresh2 = dem.snapshot()["a"]["seq"]
    # The simulated clock never moved, but the sequence numbers still
    # order the refreshes.
    assert seq_confirm < seq_refresh1 < seq_refresh2
    # Manager-wide monotonicity: a second event continues the sequence.
    dem.report("b", FAILED)
    assert dem.snapshot()["b"]["seq"] > seq_refresh2
    # Healing is a state change too.
    dem.report("a", PASSED)
    assert dem.snapshot()["a"]["seq"] > dem.snapshot()["b"]["seq"]


def test_snapshot_seq_zero_before_any_state_change():
    dem = ErrorManager("ECU1")
    dem.register(ErrorEvent("e", dtc=1, threshold=3))
    dem.report("e", FAILED)  # below threshold: no confirm, no seq
    assert dem.snapshot()["e"]["seq"] == 0


def test_error_manager_emits_dlt_on_confirm_and_heal():
    from repro import obs

    obs.disable()
    obs.reset()
    dem = ErrorManager("ECU1", now=lambda: 10)
    dem.register(ErrorEvent("e", dtc=0x42, threshold=1))
    obs.enable()
    try:
        dem.report("e", FAILED)
        dem.report("e", PASSED)
    finally:
        obs.disable()
    records = obs.dlt_channel().records
    assert [(r.severity, r.message) for r in records] == [
        ("error", "dem.confirmed"), ("info", "dem.healed")]
    assert all(r.app_id == "DEM" and r.ecu == "ECU1" for r in records)
    assert records[0].payload["dtc"] == 0x42
    obs.reset()


def test_error_manager_validation():
    dem = ErrorManager("ECU1")
    dem.register(ErrorEvent("e", dtc=1))
    with pytest.raises(ConfigurationError):
        dem.register(ErrorEvent("e", dtc=2))
    with pytest.raises(ConfigurationError):
        dem.report("ghost", FAILED)
    with pytest.raises(ConfigurationError):
        dem.report("e", "maybe")
    with pytest.raises(ConfigurationError):
        ErrorEvent("bad", dtc=1, threshold=0)


# ----------------------------------------------------------------------
# NVRAM
# ----------------------------------------------------------------------
def test_nvram_write_read_roundtrip():
    nv = NvramManager("ECU1")
    nv.define("calib", 16, default=b"\x01\x02")
    assert nv.read("calib")[:2] == b"\x01\x02"
    nv.write("calib", b"hello")
    assert nv.read("calib")[:5] == b"hello"


def test_nvram_corruption_recovered_from_mirror():
    failures = []
    nv = NvramManager("ECU1", on_failure=lambda b, o: failures.append(o))
    nv.define("crit", 8, redundant=True)
    nv.write("crit", b"DATA")
    nv.block("crit").corrupt(offset=0)
    assert nv.read("crit")[:4] == b"DATA"
    assert failures == ["recovered"]
    assert nv.recoveries == 1
    # Primary was repaired: subsequent reads are clean.
    assert nv.read("crit")[:4] == b"DATA"
    assert failures == ["recovered"]


def test_nvram_double_corruption_falls_back_to_defaults():
    failures = []
    nv = NvramManager("ECU1", on_failure=lambda b, o: failures.append(o))
    nv.define("crit", 8, redundant=True, default=b"\xAA")
    nv.write("crit", b"DATA")
    nv.block("crit").corrupt(offset=0)
    nv.block("crit").corrupt(offset=0, mirror=True)
    assert nv.read("crit")[0] == 0xAA
    assert failures == ["lost"]


def test_nvram_non_redundant_loss():
    nv = NvramManager("ECU1")
    nv.define("plain", 4)
    nv.write("plain", b"ab")
    nv.block("plain").corrupt(offset=1)
    assert nv.read("plain") == b"\x00" * 4
    assert nv.losses == 1


def test_nvram_validation():
    nv = NvramManager("ECU1")
    nv.define("b", 4)
    with pytest.raises(ConfigurationError):
        nv.define("b", 4)
    with pytest.raises(ConfigurationError):
        nv.write("b", b"toolong")
    with pytest.raises(ConfigurationError):
        nv.read("ghost")
    with pytest.raises(ConfigurationError):
        nv.block("b").corrupt(mirror=True)


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------
def test_watchdog_happy_path_no_violation():
    sim = Simulator()
    wdg = WatchdogManager(sim)
    wdg.supervise("task", window=ms(10))

    def kick():
        wdg.kick("task")
        sim.schedule(ms(5), kick)

    kick()
    sim.run_until(ms(100))
    assert wdg.status("task") == {"violated": False, "missed_windows": 0}


def test_watchdog_detects_silence():
    sim = Simulator()
    violations = []
    wdg = WatchdogManager(sim, on_violation=violations.append)
    wdg.supervise("task", window=ms(10), tolerance=1)

    # Kick twice then go silent.
    sim.schedule(ms(2), lambda: wdg.kick("task"))
    sim.schedule(ms(12), lambda: wdg.kick("task"))
    sim.run_until(ms(100))
    assert violations == ["task"]
    # Tolerance 1: violation after the 2nd consecutive missed window
    # (windows end at 30 and 40 ms).
    assert wdg.trace.records("wdg.violation")[0].time == ms(40)


def test_watchdog_tolerance_resets_on_kick():
    sim = Simulator()
    violations = []
    wdg = WatchdogManager(sim, on_violation=violations.append)
    wdg.supervise("task", window=ms(10), tolerance=1)
    # Miss one window, then resume kicking: no violation.
    for t in range(15, 100, 5):
        sim.schedule(ms(t), lambda: wdg.kick("task"))
    sim.run_until(ms(100))
    assert violations == []


def test_watchdog_validation():
    sim = Simulator()
    wdg = WatchdogManager(sim)
    wdg.supervise("e", window=ms(1))
    with pytest.raises(ConfigurationError):
        wdg.supervise("e", window=ms(1))
    with pytest.raises(ConfigurationError):
        wdg.kick("ghost")


# ----------------------------------------------------------------------
# Network management
# ----------------------------------------------------------------------
def test_bus_sleeps_when_all_release():
    sim = Simulator()
    nm = NmCluster(sim, ["a", "b"], nm_cycle=ms(1), sleep_timeout=ms(5))
    sim.schedule(ms(10), nm.node("a").release_network)
    sim.schedule(ms(20), nm.node("b").release_network)
    sim.run_until(ms(50))
    assert nm.bus_asleep
    assert nm.node("a").state == BUS_SLEEP
    sleep_time = nm.trace.records("nm.bus_sleep")[0].time
    assert sleep_time >= ms(24)  # last alive ~19-20ms + timeout 5ms


def test_bus_stays_awake_while_any_node_requests():
    sim = Simulator()
    nm = NmCluster(sim, ["a", "b"], nm_cycle=ms(1), sleep_timeout=ms(5))
    nm.node("a").release_network()
    sim.run_until(ms(50))
    assert not nm.bus_asleep
    assert nm.node("a").state == READY_TO_SLEEP
    assert nm.node("b").state == AWAKE


def test_wakeup_from_sleep():
    sim = Simulator()
    nm = NmCluster(sim, ["a", "b"], nm_cycle=ms(1), sleep_timeout=ms(5))
    nm.node("a").release_network()
    nm.node("b").release_network()
    sim.run_until(ms(20))
    assert nm.bus_asleep
    nm.node("a").request_network()
    sim.run_until(ms(40))
    assert not nm.bus_asleep
    assert nm.wake_count == 1
    assert nm.node("a").state == AWAKE
    assert nm.node("b").state == READY_TO_SLEEP


def test_nm_validation():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        NmCluster(sim, [], ms(1), ms(5))
    with pytest.raises(ConfigurationError):
        NmCluster(sim, ["a"], ms(5), ms(5))


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------
def test_diag_read_and_clear_dtcs():
    dem = ErrorManager("ECU1")
    dem.register(ErrorEvent("e", dtc=0xC0FFEE, threshold=1))
    dem.report("e", FAILED)
    diag = DiagnosticServer(dem)
    response = diag.handle(READ_DTC)
    assert response["service"] == READ_DTC + 0x40
    assert response["dtcs"] == [0xC0FFEE]
    assert diag.handle(CLEAR_DTC)["cleared"] == 1
    assert diag.handle(READ_DTC)["dtcs"] == []


def test_diag_read_data_by_identifier():
    dem = ErrorManager("ECU1")
    diag = DiagnosticServer(dem)
    diag.publish_data(0xF190, lambda: 777)
    response = diag.handle(READ_DATA, 0xF190)
    assert response["value"] == 777
    missing = diag.handle(READ_DATA, 0xDEAD)
    assert missing["service"] == NEGATIVE_RESPONSE


def test_diag_unsupported_service():
    diag = DiagnosticServer(ErrorManager("E"))
    response = diag.handle(0x99)
    assert response["service"] == NEGATIVE_RESPONSE
    assert response["rejected"] == 0x99


def test_diag_duplicate_data_id():
    diag = DiagnosticServer(ErrorManager("E"))
    diag.publish_data(1, lambda: 0)
    with pytest.raises(ConfigurationError):
        diag.publish_data(1, lambda: 0)


# ----------------------------------------------------------------------
# Gateway
# ----------------------------------------------------------------------
def test_gateway_forwards_between_buses():
    sim = Simulator()
    bus_a = CanBus(sim, 500_000, name="CAN-A")
    bus_b = CanBus(sim, 500_000, name="CAN-B")
    sender = bus_a.attach("sender")
    receiver = bus_b.attach("receiver")
    gw = CanGateway(sim, "GW", {"a": bus_a, "b": bus_b},
                    processing_delay=us(100))
    spec = CanFrameSpec("wheel_speed", 0x120, dlc=8)
    gw.route("wheel_speed", "a", {"b": spec})
    got = []
    receiver.on_receive(lambda s, m: got.append((sim.now, m.payload)))
    sender.send(spec, payload=55)
    sim.run()
    assert len(got) == 1
    assert got[0][1] == 55
    # Latency: one frame on A + gateway delay + one frame on B.
    assert got[0][0] == 2 * 270_000 + us(100)
    assert gw.forwarded == 1


def test_gateway_id_translation():
    sim = Simulator()
    bus_a = CanBus(sim, 500_000, name="A")
    bus_b = CanBus(sim, 500_000, name="B")
    sender = bus_a.attach("s")
    bus_b.attach("r")
    gw = CanGateway(sim, "GW", {"a": bus_a, "b": bus_b})
    in_spec = CanFrameSpec("sig", 0x100, dlc=8)
    out_spec = CanFrameSpec("sig", 0x300, dlc=8)
    gw.route("sig", "a", {"b": out_spec})
    sender.send(in_spec, payload=1)
    sim.run()
    tx_b = bus_b.trace.records("can.tx_start", "sig")
    assert tx_b and tx_b[0].data["can_id"] == 0x300


def test_gateway_ignores_unrouted_frames():
    sim = Simulator()
    bus_a = CanBus(sim, 500_000, name="A")
    bus_b = CanBus(sim, 500_000, name="B")
    sender = bus_a.attach("s")
    bus_b.attach("r")
    gw = CanGateway(sim, "GW", {"a": bus_a, "b": bus_b})
    sender.send(CanFrameSpec("noise", 0x100, dlc=8))
    sim.run()
    assert gw.forwarded == 0
    assert bus_b.frames_delivered == 0


def test_gateway_validation():
    sim = Simulator()
    bus_a = CanBus(sim, 500_000, name="A")
    bus_b = CanBus(sim, 500_000, name="B")
    with pytest.raises(ConfigurationError):
        CanGateway(sim, "GW", {"a": bus_a, "b": bus_a})
    gw = CanGateway(sim, "GW", {"a": bus_a, "b": bus_b})
    with pytest.raises(ConfigurationError):
        gw.route("f", "c", {"b": CanFrameSpec("f", 1)})
