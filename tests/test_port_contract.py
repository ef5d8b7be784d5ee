"""The port contract runnable code sees through ``ctx``: the VFB and a
deployed RTE refuse the same misuse with the same error."""

import pytest

from repro.core import (ClientServerInterface, Composition, InitEvent,
                        Operation, OperationInvokedEvent,
                        SenderReceiverInterface, SwComponent, SystemModel,
                        UINT8, UINT16, VfbSimulation)
from repro.errors import CompositionError, ConfigurationError
from repro.sim import Simulator
from repro.units import ms

STATE_IF = SenderReceiverInterface("state", {"v": UINT8})
EVENT_IF = SenderReceiverInterface("events", {"code": UINT16},
                                   queued={"code"})
CALIB_IF = ClientServerInterface(
    "calib", {"get": Operation("get", {"index": UINT8}, returns=UINT16)})

RULES = {
    # rule: (misuse, error type, message)
    "write-required-port": (lambda ctx: ctx.write("in", "v", 1),
                            ConfigurationError,
                            "probe.in is not a provided sender-receiver "
                            "port"),
    "unknown-element": (lambda ctx: ctx.write("out", "w", 1),
                        ConfigurationError, "probe.out has no element 'w'"),
    "out-of-range": (lambda ctx: ctx.write("out", "v", 256),
                     ConfigurationError, "type uint8: 256 outside 0..255"),
    "read-queued": (lambda ctx: ctx.read("events", "code"),
                    ConfigurationError,
                    "probe.events.code is queued; use ctx.receive() "
                    "instead of ctx.read()"),
    "receive-state": (lambda ctx: ctx.receive("in", "v"),
                      ConfigurationError,
                      "probe.in.v is not a queued element of a required "
                      "port"),
    "wrong-call-args": (lambda ctx: ctx.call("cal", "get", wrong=1),
                        ConfigurationError,
                        "call get: expected args ['index'], got ['wrong']"),
    "unknown-operation": (lambda ctx: ctx.call("cal", "set"),
                          ConfigurationError,
                          "probe.cal has no operation 'set'"),
    "unconnected-client": (lambda ctx: ctx.call("loose", "get", index=1),
                           CompositionError,
                           "probe.loose is not connected to a server"),
}


def probe_app(misuse, errors):
    """A probe whose init runnable tries ``misuse`` once, next to a
    calibration server its ``cal`` port is connected to."""
    probe = SwComponent("Probe")
    probe.require("in", STATE_IF)
    probe.require("events", EVENT_IF)
    probe.provide("out", STATE_IF)
    probe.require("cal", CALIB_IF)
    probe.require("loose", CALIB_IF)

    def attempt(ctx):
        try:
            misuse(ctx)
        except (CompositionError, ConfigurationError) as exc:
            errors.append((type(exc), str(exc)))

    probe.runnable("attempt", InitEvent(), attempt)
    server = SwComponent("Server")
    server.provide("srv", CALIB_IF)
    server.runnable("get", OperationInvokedEvent("srv", "get"),
                    lambda ctx, index: index)
    app = Composition("App")
    app.add(probe.instantiate("probe"))
    app.add(server.instantiate("server"))
    app.connect("server", "srv", "probe", "cal")
    return app


def run_on_vfb(app, sim):
    VfbSimulation(sim, app).start()


def run_on_rte(app, sim):
    system = SystemModel("one-ecu")
    system.add_ecu("E")
    system.set_root(app)
    system.map_all("E")
    system.build(sim)


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("runtime", [run_on_vfb, run_on_rte],
                         ids=["vfb", "rte"])
def test_both_runtimes_refuse_a_port_misuse_alike(runtime, rule):
    misuse, error, message = RULES[rule]
    errors = []
    sim = Simulator()
    runtime(probe_app(misuse, errors), sim)
    sim.run_until(ms(1))
    assert errors == [(error, message)]
