"""Trace pins of RTE-built systems.

Each system below is built by the RTE generator and run for a fixed
horizon; the record count and the trace digest are pinned.  Any change
to how the RTE derives tasks, priorities, PDUs, signal layouts, CAN ids,
bus schedules, receivers or gateway routes moves a digest here, so these
pins are the parity gate for refactoring the generator.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core import (ClientServerInterface, Composition,
                        DataReceivedEvent, InitEvent, Operation,
                        OperationInvokedEvent, SenderReceiverInterface,
                        SwComponent, SystemModel, TimingEvent, UINT8,
                        UINT16)
from repro.sim import Simulator
from repro.units import ms, us

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def quickstart_system(bus_kind):
    spec = importlib.util.spec_from_file_location(
        "quickstart_pins", EXAMPLES / "quickstart.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.deploy(bus_kind)


DATA_IF = SenderReceiverInterface("d", {"v": UINT16})
PAIR_IF = SenderReceiverInterface("pair", {"hi": UINT8, "lo": UINT16})
ACT_IF = ClientServerInterface(
    "act", {"set": Operation("set", {"level": UINT8}),
            "trim": Operation("trim", {"a": UINT8, "b": UINT16})})


def multidomain_system():
    """Two CAN domains behind the auto gateway: a data PDU with a
    same-domain and a cross-domain receiver, a two-element PDU with a
    pinned id, a same-ECU route, an init runnable and a remote void
    call whose request PDUs cross the gateway."""
    engine = SwComponent("Engine")
    engine.provide("out", DATA_IF)
    engine.provide("pair", PAIR_IF)

    def tick(ctx):
        ctx.state["n"] = ctx.state.get("n", 0) + 1
        ctx.write("out", "v", ctx.state["n"])
        ctx.write("pair", "hi", ctx.state["n"] % 256)
        ctx.write("pair", "lo", 3 * ctx.state["n"])

    engine.runnable("tick", TimingEvent(ms(10)), tick, wcet=us(150))
    engine.runnable("boot", InitEvent(), lambda ctx: None, wcet=us(20))

    sink = SwComponent("Sink")
    sink.require("in", DATA_IF)
    sink.runnable("on_data", DataReceivedEvent("in", "v"),
                  lambda ctx: ctx.state.__setitem__(
                      "last", ctx.read("in", "v")),
                  wcet=us(100))
    pair_sink = SwComponent("PairSink")
    pair_sink.require("in", PAIR_IF)
    pair_sink.runnable("on_pair", DataReceivedEvent("in", "lo"),
                       lambda ctx: None, wcet=us(80))

    server = SwComponent("Actuator")
    server.provide("srv", ACT_IF)
    server.runnable("apply", OperationInvokedEvent("srv", "set"),
                    lambda ctx, level: None, wcet=us(50))
    server.runnable("trim", OperationInvokedEvent("srv", "trim"),
                    lambda ctx, a, b: None, wcet=us(60))
    client = SwComponent("Commander")
    client.require("act", ACT_IF)

    def command(ctx):
        ctx.state["n"] = ctx.state.get("n", 0) + 1
        ctx.call("act", "set", level=ctx.state["n"] % 256)
        if ctx.state["n"] % 2:
            ctx.call("act", "trim", a=1, b=ctx.state["n"])

    client.runnable("tick", TimingEvent(ms(20), offset=ms(1)), command,
                    wcet=us(100))

    app = Composition("App")
    app.add(engine.instantiate("engine"))
    app.add(sink.instantiate("pt_local"))
    app.add(sink.instantiate("same_ecu"))
    app.add(sink.instantiate("dash"))
    app.add(pair_sink.instantiate("gauge"))
    app.add(server.instantiate("a"))
    app.add(client.instantiate("cmd"))
    app.connect("engine", "out", "pt_local", "in")
    app.connect("engine", "out", "same_ecu", "in")
    app.connect("engine", "out", "dash", "in")
    app.connect("engine", "pair", "gauge", "in")
    app.connect("a", "srv", "cmd", "act")
    system = SystemModel("pins-multidomain")
    system.add_ecu("ENGINE", domain="powertrain")
    system.add_ecu("TRANS", domain="powertrain")
    system.add_ecu("DASH", domain="body")
    system.set_root(app)
    system.map("engine", "ENGINE")
    system.map("same_ecu", "ENGINE")
    system.map("cmd", "ENGINE")
    system.map("pt_local", "TRANS")
    system.map("dash", "DASH")
    system.map("gauge", "DASH")
    system.map("a", "DASH")
    system.configure_domain_bus("powertrain", "can", bitrate_bps=500_000)
    system.configure_domain_bus("body", "can", bitrate_bps=125_000)
    system.set_can_id("engine.pair", 0x080)
    return system


def single_domain_system(bus_kind):
    """The multi-domain system's PDUs on one FlexRay or TTEthernet
    domain: their slot and stream order covers the request PDUs."""
    system = multidomain_system()
    for ecu in system.ecus.values():
        ecu.domain = "default"
    system.domain_buses.clear()
    system.configure_bus(bus_kind)
    return system


def queued_system():
    """Queued and state elements on one PDU across CAN, plus a queued
    same-ECU route."""
    mixed_if = SenderReceiverInterface(
        "mixed", {"event": UINT16, "level": UINT16}, queued={"event"})
    src = SwComponent("Src")
    src.provide("out", mixed_if)

    def emit(ctx):
        ctx.state["n"] = ctx.state.get("n", 0) + 1
        ctx.write("out", "level", ctx.state["n"])
        for code in range(ctx.state["n"] % 3 + 1):
            ctx.write("out", "event", 10 * ctx.state["n"] + code)

    src.runnable("emit", TimingEvent(ms(10)), emit, wcet=us(50))
    dst = SwComponent("Dst")
    dst.require("in", mixed_if)

    def drain(ctx):
        while ctx.receive("in", "event") is not None:
            ctx.state["level"] = ctx.read("in", "level")

    dst.runnable("drain", DataReceivedEvent("in", "event"), drain,
                 wcet=us(50))
    app = Composition("App")
    app.add(src.instantiate("p"))
    app.add(dst.instantiate("remote"))
    app.add(dst.instantiate("local"))
    app.connect("p", "out", "remote", "in")
    app.connect("p", "out", "local", "in")
    system = SystemModel("pins-queued")
    system.add_ecu("E1")
    system.add_ecu("E2")
    system.set_root(app)
    system.map("p", "E1")
    system.map("local", "E1")
    system.map("remote", "E2")
    system.configure_bus("can")
    return system


PINS = {
    # name: (system factory, horizon, records, digest prefix)
    "quickstart-can": (lambda: quickstart_system("can"), ms(200),
                       322, "76f6576c464e"),
    "quickstart-flexray": (lambda: quickstart_system("flexray"), ms(200),
                           2263, "45fa1b4322c3"),
    "quickstart-tte": (lambda: quickstart_system("tte"), ms(200),
                       302, "c04b6f87e3db"),
    "multidomain-can": (multidomain_system, ms(200),
                        1150, "b4b5c2702d3e"),
    "single-domain-flexray": (lambda: single_domain_system("flexray"),
                              ms(100), 1559, "9a01af86d630"),
    "single-domain-tte": (lambda: single_domain_system("tte"), ms(100),
                          388, "cc441dacee06"),
    "queued-can": (queued_system, ms(100), 332, "8cda00ec2951"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_rte_trace_is_pinned(name):
    factory, horizon, records, digest = PINS[name]
    system = factory()
    assert system.validate() == []
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(horizon)
    assert (len(runtime.trace), runtime.trace.digest()[:12]) == \
        (records, digest)
