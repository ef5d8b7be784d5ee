"""Tests for multi-domain deployments: per-domain buses with automatic
gateway routing (the simulated federated architecture of E5)."""

import pytest

from repro.errors import ConfigurationError
from repro.bsw import CanGateway
from repro.core import (Composition, DataReceivedEvent,
                        SenderReceiverInterface, SwComponent, SystemModel,
                        TimingEvent, UINT16)
from repro.core.metamodel import export_system, import_system
from repro.network import CanBus, CanFrameSpec
from repro.sim import Simulator
from repro.units import ms, us

DATA_IF = SenderReceiverInterface("d", {"v": UINT16})


def producer(name="Producer", period=ms(10)):
    comp = SwComponent(name)
    comp.provide("out", DATA_IF)

    def tick(ctx):
        ctx.state["n"] = ctx.state.get("n", 0) + 1
        ctx.write("out", "v", ctx.state["n"])

    comp.runnable("tick", TimingEvent(period), tick, wcet=us(100))
    return comp


def consumer(name="Consumer"):
    comp = SwComponent(name)
    comp.require("in", DATA_IF)
    comp.runnable("on_data", DataReceivedEvent("in", "v"),
                  lambda ctx: ctx.state.__setitem__(
                      "last", ctx.read("in", "v")),
                  wcet=us(100))
    return comp


def federated_system():
    """Powertrain and body domains, one cross-domain signal."""
    app = Composition("App")
    app.add(producer().instantiate("engine_tx"))
    app.add(consumer().instantiate("pt_local"))
    app.add(consumer().instantiate("dash"))
    app.connect("engine_tx", "out", "pt_local", "in")
    app.connect("engine_tx", "out", "dash", "in")
    system = SystemModel("federated")
    system.add_ecu("ENGINE", domain="powertrain")
    system.add_ecu("TRANS", domain="powertrain")
    system.add_ecu("DASH", domain="body")
    system.set_root(app)
    system.map("engine_tx", "ENGINE")
    system.map("pt_local", "TRANS")
    system.map("dash", "DASH")
    system.configure_domain_bus("powertrain", "can", bitrate_bps=500_000)
    system.configure_domain_bus("body", "can", bitrate_bps=125_000)
    return system


def test_federated_system_survives_metamodel_roundtrip():
    """Every domain's bus and every ECU's domain are exported, so the
    rebuilt system validates and runs the original's trace."""
    original = federated_system()
    instances, __ = original.root.flatten()
    behaviors = {f"{instance.component.name}.{runnable.name}":
                 runnable.function
                 for instance in instances
                 for runnable in instance.component.runnables}
    rebuilt = import_system(export_system(original), behaviors)
    assert rebuilt.domain_buses == original.domain_buses
    assert {name: ecu.domain for name, ecu in rebuilt.ecus.items()} == \
        {name: ecu.domain for name, ecu in original.ecus.items()}
    assert rebuilt.validate() == []
    traces = []
    for system in (federated_system(), rebuilt):
        sim = Simulator()
        runtime = system.build(sim)
        sim.run_until(ms(100))
        traces.append((len(runtime.trace), runtime.trace.digest()))
    assert traces[0] == traces[1]


def test_validation_requires_every_involved_domain_bus():
    system = federated_system()
    system.domain_buses.pop("body")
    issues = system.validate()
    assert any("domain 'body'" in issue for issue in issues)


def test_validation_rejects_non_can_cross_domain():
    system = federated_system()
    system.configure_domain_bus("body", "flexray")
    issues = system.validate()
    assert any("only supports CAN domains" in issue for issue in issues)


def test_cross_domain_signal_flows_through_gateway():
    system = federated_system()
    assert system.validate() == []
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(100))
    # Same-domain consumer got the data directly...
    assert runtime.value_of("pt_local", "in", "v") == 10
    # ...and the cross-domain consumer got it through the gateway.
    assert runtime.value_of("dash", "in", "v") >= 9
    assert runtime.gateway is not None
    assert runtime.gateway.forwarded >= 9
    # Two physical buses exist and both carried the frame.
    assert set(runtime.buses) == {"powertrain", "body"}
    assert runtime.buses["powertrain"].frames_delivered >= 10
    assert runtime.buses["body"].frames_delivered >= 9


def test_gateway_adds_latency_vs_same_domain():
    system = federated_system()
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(100))
    pt_rx = [r.time for r in
             runtime.buses["powertrain"].records("can.rx",
                                                 "engine_tx.out")]
    body_rx = [r.time for r in
               runtime.buses["body"].records("can.rx", "engine_tx.out")]
    # Gateway hop: body reception lags powertrain by delay + body wire
    # time (slower 125k bus).
    assert body_rx[0] > pt_rx[0] + us(100)


def test_single_domain_systems_unchanged():
    """Backward compatibility: default-domain systems keep runtime.bus
    and build no gateway."""
    app = Composition("App")
    app.add(producer().instantiate("p"))
    app.add(consumer().instantiate("c"))
    app.connect("p", "out", "c", "in")
    system = SystemModel("single")
    system.add_ecu("E1")
    system.add_ecu("E2")
    system.set_root(app)
    system.map("p", "E1")
    system.map("c", "E2")
    system.configure_bus("can")
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(50))
    assert runtime.gateway is None
    assert runtime.bus is not None
    assert runtime.value_of("c", "in", "v") == 5


def test_mixed_domains_without_cross_traffic_need_no_gateway():
    app = Composition("App")
    app.add(producer("P1").instantiate("p1"))
    app.add(consumer("C1").instantiate("c1"))
    app.add(producer("P2").instantiate("p2"))
    app.add(consumer("C2").instantiate("c2"))
    app.connect("p1", "out", "c1", "in")
    app.connect("p2", "out", "c2", "in")
    system = SystemModel("islands")
    system.add_ecu("A1", domain="a")
    system.add_ecu("A2", domain="a")
    system.add_ecu("B1", domain="b")
    system.add_ecu("B2", domain="b")
    system.set_root(app)
    system.map("p1", "A1")
    system.map("c1", "A2")
    system.map("p2", "B1")
    system.map("c2", "B2")
    system.configure_domain_bus("a", "can")
    system.configure_domain_bus("b", "flexray")
    assert system.validate() == []
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(60))
    assert runtime.gateway is None
    assert runtime.value_of("c1", "in", "v") >= 5
    assert runtime.value_of("c2", "in", "v") >= 4


def test_remote_void_call_crosses_domains():
    """C/S request PDUs are gateway-routed like data PDUs."""
    from repro.core import ClientServerInterface, Operation, UINT8
    from repro.core import OperationInvokedEvent
    act_if = ClientServerInterface(
        "act", {"set": Operation("set", {"level": UINT8})})
    server = SwComponent("Actuator")
    server.provide("srv", act_if)
    levels = []
    server.runnable("apply", OperationInvokedEvent("srv", "set"),
                    lambda ctx, level: levels.append((ctx.now, level)),
                    wcet=us(50))
    client = SwComponent("Commander")
    client.require("act", act_if)

    def tick(ctx):
        ctx.state["n"] = ctx.state.get("n", 0) + 1
        ctx.call("act", "set", level=ctx.state["n"] % 256)

    client.runnable("tick", TimingEvent(ms(20)), tick, wcet=us(100))
    app = Composition("App")
    app.add(server.instantiate("a"))
    app.add(client.instantiate("cmd"))
    app.connect("a", "srv", "cmd", "act")
    system = SystemModel("cs-domains")
    system.add_ecu("BODY_ECU", domain="body")
    system.add_ecu("PT_ECU", domain="powertrain")
    system.map("a", "BODY_ECU")
    system.map("cmd", "PT_ECU")
    system.set_root(app)
    system.configure_domain_bus("body", "can")
    system.configure_domain_bus("powertrain", "can")
    assert system.validate() == []
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(100))
    assert [level for __, level in levels] == [1, 2, 3, 4, 5]
    assert runtime.gateway.forwarded == 5
    # Calls executed after the double wire + gateway hop.
    assert all(t % ms(20) > us(500) for t, __ in levels)


def test_multicangateway_validation():
    sim = Simulator()
    bus_a = CanBus(sim, 500_000, name="A")
    bus_b = CanBus(sim, 500_000, name="B")
    with pytest.raises(ConfigurationError):
        CanGateway(sim, "GW", {"a": bus_a})
    gw = CanGateway(sim, "GW", {"a": bus_a, "b": bus_b})
    spec = CanFrameSpec("f", 0x100)
    gw.route("f", "a", {"b": spec})
    with pytest.raises(ConfigurationError):
        gw.route("f", "a", {"b": spec})  # duplicate
    with pytest.raises(ConfigurationError):
        gw.route("g", "a", {"a": spec})  # self-domain
    with pytest.raises(ConfigurationError):
        gw.route("h", "ghost", {"b": spec})
