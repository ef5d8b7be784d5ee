"""Trace pins of VFB runs.

Each composition below runs on the Virtual Functional Bus for a fixed
horizon; the record count and the trace digest are pinned.  Any change
to the order of runnable executions, writes, deliveries, queue
overflows or synchronous server calls moves a digest here, so these
pins are the parity gate for refactoring the VFB and the port contract
it shares with the RTE.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core import (ClientServerInterface, Composition,
                        DataReceivedEvent, InitEvent, Operation,
                        OperationInvokedEvent, SenderReceiverInterface,
                        SwComponent, TimingEvent, UINT8, UINT16,
                        VfbSimulation)
from repro.sim import Simulator
from repro.units import ms

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def quickstart_app():
    spec = importlib.util.spec_from_file_location(
        "quickstart_vfb_pins", EXAMPLES / "quickstart.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_composition()


def queued_app():
    """A queued and a state element on one port: one receiver drains
    its FIFO on every delivery, the other never does and overflows."""
    mixed_if = SenderReceiverInterface(
        "mixed", {"event": UINT16, "level": UINT16}, queued={"event"})
    src = SwComponent("Src")
    src.provide("out", mixed_if)

    def emit(ctx):
        ctx.state["n"] = ctx.state.get("n", 0) + 1
        ctx.write("out", "level", ctx.state["n"])
        for code in range(ctx.state["n"] % 4 + 1):
            ctx.write("out", "event", 10 * ctx.state["n"] + code)

    src.runnable("emit", TimingEvent(ms(10)), emit)
    dst = SwComponent("Dst")
    dst.require("in", mixed_if)
    dst.provide("echo", SenderReceiverInterface("echo", {"v": UINT16}))

    def drain(ctx):
        code = ctx.receive("in", "event")
        while code is not None:
            ctx.write("echo", "v", code + ctx.read("in", "level"))
            code = ctx.receive("in", "event")

    dst.runnable("drain", DataReceivedEvent("in", "event"), drain)
    sink = SwComponent("Sink")
    sink.require("in", mixed_if)
    app = Composition("App")
    app.add(src.instantiate("p"))
    app.add(dst.instantiate("c"))
    app.add(sink.instantiate("full"))
    app.connect("p", "out", "c", "in")
    app.connect("p", "out", "full", "in")
    return app


def client_server_app():
    """A nested composition exposes a server through a delegation port;
    its handlers write data that a monitor receives, and a client calls
    it from an init and a periodic runnable."""
    calib_if = ClientServerInterface(
        "calib", {"get": Operation("get", {"index": UINT8},
                                   returns=UINT16),
                  "set": Operation("set", {"index": UINT8,
                                           "value": UINT16})})
    level_if = SenderReceiverInterface("level", {"v": UINT16})
    server = SwComponent("CalibServer")
    server.provide("srv", calib_if)
    server.provide("changed", level_if)

    def get(ctx, index):
        return ctx.state.get(index, 100 + index)

    def put(ctx, index, value):
        ctx.state[index] = value
        ctx.write("changed", "v", value)

    server.runnable("get", OperationInvokedEvent("srv", "get"), get)
    server.runnable("set", OperationInvokedEvent("srv", "set"), put)
    inner = Composition("Calibration")
    inner.add(server.instantiate("store"))
    inner.delegate("srv", "store", "srv")
    inner.delegate("changed", "store", "changed")

    client = SwComponent("Client")
    client.require("cal", calib_if)

    def boot(ctx):
        ctx.call("cal", "set", index=1, value=7)

    def tick(ctx):
        ctx.state["n"] = ctx.state.get("n", 0) + 1
        got = ctx.call("cal", "get", index=ctx.state["n"] % 3)
        ctx.call("cal", "set", index=ctx.state["n"] % 3, value=got + 1)

    client.runnable("boot", InitEvent(), boot)
    client.runnable("tick", TimingEvent(ms(5), offset=ms(1)), tick)
    monitor = SwComponent("Monitor")
    monitor.require("in", level_if)
    monitor.runnable("seen", DataReceivedEvent("in", "v"),
                     lambda ctx: ctx.state.__setitem__(
                         "last", ctx.read("in", "v")))
    app = Composition("App")
    app.add(inner.instantiate("calib"))
    app.add(client.instantiate("cli"))
    app.add(monitor.instantiate("mon"))
    app.connect("calib", "srv", "cli", "cal")
    app.connect("calib", "changed", "mon", "in")
    return app


PINS = {
    # name: (composition factory, horizon, records, digest prefix)
    "quickstart": (quickstart_app, ms(100), 55, "fb9c34400f70"),
    "queued": (queued_app, ms(100), 122, "127c7a465a8a"),
    "client-server": (client_server_app, ms(50), 54, "6b8a3572a54a"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_vfb_trace_is_pinned(name):
    factory, horizon, records, digest = PINS[name]
    sim = Simulator()
    vfb = VfbSimulation(sim, factory())
    vfb.start()
    sim.run_until(horizon)
    assert (len(vfb.trace), vfb.trace.digest()[:12]) == (records, digest)
