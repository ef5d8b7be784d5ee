"""Cross-module integration tests: whole-system scenarios that exercise
several subsystems through their public APIs together."""

import pytest

from repro.bsw import (CanGateway, ErrorEvent, ErrorManager, FAILED,
                       ModeMachine, PASSED)
from repro.com import (CanComAdapter, ComStack, PERIODIC, SignalSpec,
                       pack_sequentially)
from repro.core import (Composition, DataReceivedEvent,
                        SenderReceiverInterface, SwComponent, SystemModel,
                        TimingEvent, UINT16)
from repro.core.metamodel import export_system, import_system
from repro.faults import (Fault, FaultInjector, TIMING_OVERRUN, TaskAdapter)
from repro.legacy import CanOverlay
from repro.network import CanBus, CanFrameSpec
from repro.osek import TaskSpec
from repro.sim import Simulator
from repro.units import ms, us

SPEED_IF = SenderReceiverInterface("speed_if", {"v": UINT16})


# ----------------------------------------------------------------------
# RTE + BSW: communication failure drives modes via the error manager
# ----------------------------------------------------------------------
def test_com_timeout_to_degraded_mode_chain():
    """Sensor ECU dies mid-run; the receiver's COM deadline monitor
    feeds the DEM, which debounces and trips the mode machine."""
    sim = Simulator()
    bus = CanBus(sim, 500_000)
    tx = ComStack(sim, CanComAdapter(
        bus.attach("SENSOR"), {"P": CanFrameSpec("P", 0x100)}), "SENSOR")
    rx = ComStack(sim, CanComAdapter(bus.attach("BODY"), {}), "BODY")
    pdu = pack_sequentially("P", 8, [SignalSpec("speed", 16,
                                                timeout=ms(15))])
    tx.add_tx_pdu(pack_sequentially(
        "P", 8, [SignalSpec("speed", 16, timeout=ms(15))]),
        mode=PERIODIC, period=ms(5))
    rx.add_rx_pdu(pdu)

    dem = ErrorManager("BODY", now=lambda: sim.now)
    dem.register(ErrorEvent("speed_lost", dtc=0xBEEF, threshold=2))
    modes = ModeMachine("body", ["normal", "degraded"], "normal")
    modes.allow("normal", "degraded")
    modes.bind_clock(lambda: sim.now)
    dem.on_status_change(
        lambda event, confirmed: confirmed and modes.request("degraded"))

    def monitor():
        dem.report("speed_lost",
                   FAILED if "speed" in rx.timed_out else PASSED)
        sim.schedule(ms(5), monitor)

    monitor()
    sim.schedule(ms(50), bus.controllers["SENSOR"].set_bus_off)
    sim.run_until(ms(120))
    assert modes.current == "degraded"
    switch = modes.trace.records("mode.switch")[0]
    # Sensor died at 50; timeout 15; debounce 2 x 5 ms monitor.
    assert ms(65) <= switch.time <= ms(90)
    assert dem.stored_dtcs() == [0xBEEF]


# ----------------------------------------------------------------------
# OS timing protection + fault injection on a deployed system
# ----------------------------------------------------------------------
def test_timing_protection_contains_overrun_in_deployed_system():
    """A QM task with an injected WCET overrun on a mixed-criticality
    ECU must not disturb the ASIL task, thanks to execution budgets."""
    sim = Simulator()
    from repro.osek import EcuKernel, FixedPriorityScheduler
    kernel = EcuKernel(sim, FixedPriorityScheduler())
    qm = kernel.add_task(TaskSpec("qm_infotainment", wcet=ms(2),
                                  period=ms(10), priority=5,
                                  budget=ms(3), criticality="QM"))
    kernel.add_task(TaskSpec("asil_brakes", wcet=ms(3), period=ms(10),
                             priority=1, criticality="D"))
    injector = FaultInjector(sim, kernel.trace)
    injector.inject(TaskAdapter(kernel, qm),
                    Fault(TIMING_OVERRUN, "qm_infotainment",
                          start=ms(30), duration=ms(40),
                          params={"factor": 20.0}))
    sim.run_until(ms(100))
    # The ASIL task never misses, before, during or after the fault.
    assert kernel.deadline_misses("asil_brakes") == 0
    assert max(kernel.response_times("asil_brakes")) <= ms(6)
    # The overruns were caught by timing protection.
    assert len(kernel.trace.records("task.budget_overrun",
                                    "qm_infotainment")) >= 3


# ----------------------------------------------------------------------
# Gateway: COM stacks across two buses
# ----------------------------------------------------------------------
def test_com_signal_crosses_gateway_between_domains():
    sim = Simulator()
    powertrain = CanBus(sim, 500_000, name="PT")
    body = CanBus(sim, 500_000, name="BODY")
    spec = CanFrameSpec("P", 0x120, dlc=8)
    tx = ComStack(sim, CanComAdapter(
        powertrain.attach("ENGINE"), {"P": spec}), "ENGINE")
    rx = ComStack(sim, CanComAdapter(body.attach("DASH"), {}), "DASH")
    gateway = CanGateway(sim, "CGW", {"a": powertrain, "b": body},
                         processing_delay=us(150))
    gateway.route("P", "a", {"b": spec})
    tx.add_tx_pdu(pack_sequentially("P", 8, [SignalSpec("rpm", 16)]),
                  mode=PERIODIC, period=ms(10))
    rx.add_rx_pdu(pack_sequentially("P", 8, [SignalSpec("rpm", 16)]))
    got = []
    rx.on_signal("rpm", lambda v: got.append((sim.now, v)))
    tx.write_signal("rpm", 3000)
    sim.run_until(ms(35))
    assert [v for __, v in got] == [3000, 3000, 3000]
    # Latency includes two wire times plus the gateway delay.
    first_rx = got[0][0]
    assert first_rx >= ms(10) + 2 * 270_000 + us(150)
    assert gateway.forwarded == 3


# ----------------------------------------------------------------------
# Legacy overlay under the COM stack (API compatibility in depth)
# ----------------------------------------------------------------------
def test_com_stack_runs_unmodified_over_the_tt_overlay():
    """ComStack only needs the controller API, so the whole COM layer —
    PDUs, update bits, timeouts — rehosts onto the TT overlay."""
    sim = Simulator()
    overlay = CanOverlay(sim, ["A", "B"], slot_length=us(500),
                         slot_capacity_bytes=32)
    tx = ComStack(sim, CanComAdapter(
        overlay.attach("A"), {"P": CanFrameSpec("P", 0x100)}), "A")
    rx = ComStack(sim, CanComAdapter(overlay.attach("B"), {}), "B")
    layout = [SignalSpec("speed", 16, timeout=ms(20))]
    tx.add_tx_pdu(pack_sequentially("P", 8, list(layout)),
                  mode=PERIODIC, period=ms(5))
    rx.add_rx_pdu(pack_sequentially("P", 8, list(layout)))
    overlay.start()
    tx.write_signal("speed", 77)
    sim.run_until(ms(30))
    assert rx.read_signal("speed") == 77
    assert rx.signal_age("speed") is not None
    assert "speed" not in rx.timed_out


def test_overlay_message_payloads_are_com_payload_ints():
    """Regression guard: the overlay must carry the packed integer
    payloads COM produces (not stringify/transform them)."""
    sim = Simulator()
    overlay = CanOverlay(sim, ["A", "B"], slot_length=us(500))
    got = []
    overlay.attach("B").on_receive(lambda s, m: got.append(m.payload))
    overlay.attach("A").send(CanFrameSpec("F", 0x10, dlc=8),
                             payload=0xDEADBEEF)
    overlay.start()
    sim.run_until(ms(5))
    assert got == [0xDEADBEEF]


# ----------------------------------------------------------------------
# Meta-model round trip of a deployed system produces identical traces
# ----------------------------------------------------------------------
def sample(ctx):
    ctx.state["n"] = ctx.state.get("n", 0) + 1
    ctx.write("out", "v", ctx.state["n"])


def react(ctx):
    ctx.write("cmd", "v", ctx.read("in", "v") * 2)


BEHAVIORS = {"Src.sample": sample, "Dst.react": react}


def build_model():
    src = SwComponent("Src")
    src.provide("out", SPEED_IF)
    src.runnable("sample", TimingEvent(ms(10)), sample, wcet=us(100))
    dst = SwComponent("Dst")
    dst.require("in", SPEED_IF)
    dst.provide("cmd", SenderReceiverInterface("cmd_if", {"v": UINT16}))
    dst.runnable("react", DataReceivedEvent("in", "v"), react,
                 wcet=us(200))
    app = Composition("App")
    app.add(src.instantiate("src"))
    app.add(dst.instantiate("dst"))
    app.connect("src", "out", "dst", "in")
    system = SystemModel("roundtrip")
    system.add_ecu("E1")
    system.add_ecu("E2")
    system.set_root(app)
    system.map("src", "E1")
    system.map("dst", "E2")
    system.configure_bus("can")
    return system


def run_system(system):
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(95))
    completions = [(r.time, r.subject)
                   for r in runtime.trace.records("task.complete")]
    return completions, runtime.value_of("dst", "cmd", "v")


def test_exported_system_behaves_identically_after_import():
    original = build_model()
    rebuilt = import_system(export_system(original), BEHAVIORS)
    trace_a, value_a = run_system(original)
    trace_b, value_b = run_system(rebuilt)
    assert trace_a == trace_b
    assert value_a == value_b == 20  # 10 samples, doubled


# ----------------------------------------------------------------------
# Analysis vs deployed system: WCRT bounds hold for RTE-generated tasks
# ----------------------------------------------------------------------
def test_rta_bounds_hold_for_rte_generated_taskset():
    from repro.analysis.rta import analyze
    system = build_model()
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(200))
    for ecu_name, kernel in runtime.kernels.items():
        periodic = [t.spec for t in kernel.tasks.values()
                    if t.spec.period is not None]
        if not periodic:
            continue
        result = analyze(periodic)
        assert result.schedulable
        for spec in periodic:
            observed = kernel.response_times(spec.name)
            assert observed and max(observed) <= result.wcrt[spec.name]
