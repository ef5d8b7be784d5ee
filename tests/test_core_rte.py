"""Tests for RTE generation and deployed-system semantics.

The central property: component code written against ``ctx`` runs
unchanged on the VFB and on any deployment (1 ECU, N ECUs over CAN or
FlexRay) — only timing differs.
"""

import inspect

import pytest

from repro.errors import ConfigurationError
from repro.core import (Composition, DataReceivedEvent, InitEvent,
                        ClientServerInterface, Operation,
                        OperationInvokedEvent, SenderReceiverInterface,
                        SwComponent, SystemModel, TimingEvent, UINT8, UINT16,
                        VfbSimulation)
from repro.sim import Simulator
from repro.units import ms, us

SPEED_IF = SenderReceiverInterface("speed_if", {"value": UINT16})
CMD_IF = SenderReceiverInterface("cmd_if", {"value": UINT16})


def sensor_component():
    sensor = SwComponent("Sensor")
    sensor.provide("out", SPEED_IF)

    def sample(ctx):
        ctx.state.setdefault("count", 0)
        ctx.state["count"] += 1
        ctx.write("out", "value", ctx.state["count"] * 10)

    sensor.runnable("sample", TimingEvent(ms(10)), sample, wcet=us(200))
    return sensor


def controller_component():
    controller = SwComponent("Controller")
    controller.require("in", SPEED_IF)
    controller.provide("cmd", CMD_IF)

    def on_speed(ctx):
        ctx.write("cmd", "value", ctx.read("in", "value") + 1)

    controller.runnable("on_speed", DataReceivedEvent("in", "value"),
                        on_speed, wcet=us(300))
    return controller


def two_node_system(bus="can"):
    comp = Composition("Sys")
    comp.add(sensor_component().instantiate("s"))
    comp.add(controller_component().instantiate("c"))
    comp.connect("s", "out", "c", "in")
    system = SystemModel("demo")
    system.add_ecu("ECU1")
    system.add_ecu("ECU2")
    system.set_root(comp)
    system.map("s", "ECU1")
    system.map("c", "ECU2")
    system.configure_bus(bus)
    return system


def test_validate_catches_unmapped_instances():
    system = two_node_system()
    del system.mapping["c"]
    issues = system.validate()
    assert any("not mapped" in issue for issue in issues)
    with pytest.raises(ConfigurationError):
        system.build(Simulator())


def test_validate_requires_bus_for_cross_ecu():
    system = two_node_system()
    system.configure_bus(None)
    issues = system.validate()
    assert any("needs a bus in domain" in issue for issue in issues)


def test_single_ecu_deployment_no_bus_needed():
    comp = Composition("Sys")
    comp.add(sensor_component().instantiate("s"))
    comp.add(controller_component().instantiate("c"))
    comp.connect("s", "out", "c", "in")
    system = SystemModel("single")
    system.add_ecu("ECU1")
    system.set_root(comp)
    system.map_all("ECU1")
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(25))
    assert runtime.bus is None
    # Sensor samples at 0,10,20; chain completes locally.
    assert runtime.value_of("c", "cmd", "value") == 31


def test_cross_ecu_data_flows_over_can():
    system = two_node_system("can")
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(25))
    assert runtime.value_of("c", "in", "value") == 30
    assert runtime.value_of("c", "cmd", "value") == 31
    # The value actually crossed the CAN bus.
    assert runtime.bus.frames_delivered >= 3


def test_cross_ecu_data_flows_over_flexray():
    system = two_node_system("flexray")
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(30))
    # FlexRay adds cycle latency; at least two samples must be through.
    assert runtime.value_of("c", "cmd", "value") >= 21
    assert len(runtime.trace.records("flexray.rx")) >= 2


def test_rte_and_vfb_produce_same_functional_values():
    """Transferability: identical component code, same steady-state
    values, on the VFB and on a 2-ECU CAN deployment."""
    comp = Composition("Sys")
    comp.add(sensor_component().instantiate("s"))
    comp.add(controller_component().instantiate("c"))
    comp.connect("s", "out", "c", "in")
    sim_v = Simulator()
    vfb = VfbSimulation(sim_v, comp)
    vfb.start()
    sim_v.run_until(ms(50))

    system = two_node_system("can")
    sim_r = Simulator()
    runtime = system.build(sim_r)
    sim_r.run_until(ms(50) + ms(5))  # allow bus+task latency to settle

    assert runtime.value_of("c", "cmd", "value") == \
        vfb.value_of("c", "cmd", "value")


def test_deployment_adds_latency_vfb_does_not():
    system = two_node_system("can")
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(10) - 1)  # exactly one sample at t=0
    write_time = runtime.trace.records("rte.write", "s.out.value")[0].time
    rx = runtime.trace.records("can.rx")
    assert len(rx) == 1
    assert rx[0].time > write_time  # wire time elapsed


def test_rate_monotonic_default_priorities():
    fast = SwComponent("Fast")
    fast.provide("out", SPEED_IF)
    fast.runnable("tick", TimingEvent(ms(5)), lambda ctx: None, wcet=us(100))
    slow = SwComponent("Slow")
    slow.provide("out", SPEED_IF)
    slow.runnable("tick", TimingEvent(ms(50)), lambda ctx: None,
                  wcet=us(100))
    comp = Composition("Sys")
    comp.add(fast.instantiate("f"))
    comp.add(slow.instantiate("sl"))
    system = SystemModel("prio")
    system.add_ecu("E")
    system.set_root(comp)
    system.map_all("E")
    sim = Simulator()
    runtime = system.build(sim)
    tasks = runtime.kernels["E"].tasks
    assert tasks["f.tick"].spec.priority > tasks["sl.tick"].spec.priority


def test_explicit_priority_overrides_rm():
    system = two_node_system("can")
    system.ecus["ECU1"].set_priority("s.sample", 42)
    sim = Simulator()
    runtime = system.build(sim)
    assert runtime.kernels["ECU1"].tasks["s.sample"].spec.priority == 42


def test_init_runnable_activated_once():
    comp_type = SwComponent("C")
    comp_type.provide("out", SPEED_IF)
    runs = []
    comp_type.runnable("boot", InitEvent(),
                       lambda ctx: runs.append(ctx.now), wcet=us(50))
    comp = Composition("Sys")
    comp.add(comp_type.instantiate("i"))
    system = SystemModel("init")
    system.add_ecu("E")
    system.set_root(comp)
    system.map_all("E")
    sim = Simulator()
    system.build(sim)
    sim.run_until(ms(100))
    assert runs == [us(50)]  # executed at task completion


def test_intra_ecu_client_server_synchronous():
    calib_if = ClientServerInterface(
        "calib", {"get": Operation("get", {"index": UINT8},
                                   returns=UINT16)})
    server = SwComponent("Server")
    server.provide("srv", calib_if)
    server.runnable("h", OperationInvokedEvent("srv", "get"),
                    lambda ctx, index: 100 + index, wcet=us(10))
    client = SwComponent("Client")
    client.require("cal", calib_if)
    results = []
    client.runnable("tick", TimingEvent(ms(10)),
                    lambda ctx: results.append(ctx.call("cal", "get",
                                                        index=7)),
                    wcet=us(100))
    comp = Composition("Sys")
    comp.add(server.instantiate("srv"))
    comp.add(client.instantiate("cli"))
    comp.connect("srv", "srv", "cli", "cal")
    system = SystemModel("cs")
    system.add_ecu("E")
    system.set_root(comp)
    system.map_all("E")
    sim = Simulator()
    system.build(sim)
    sim.run_until(ms(15))
    assert results == [107, 107]


def test_remote_client_server_with_return_rejected():
    calib_if = ClientServerInterface(
        "calib", {"get": Operation("get", returns=UINT16)})
    server = SwComponent("Server")
    server.provide("srv", calib_if)
    server.runnable("h", OperationInvokedEvent("srv", "get"),
                    lambda ctx: 1, wcet=us(10))
    client = SwComponent("Client")
    client.require("cal", calib_if)
    client.runnable("tick", TimingEvent(ms(10)), lambda ctx: None,
                    wcet=us(10))
    comp = Composition("Sys")
    comp.add(server.instantiate("srv"))
    comp.add(client.instantiate("cli"))
    comp.connect("srv", "srv", "cli", "cal")
    system = SystemModel("cs")
    system.add_ecu("E1")
    system.add_ecu("E2")
    system.set_root(comp)
    system.map("srv", "E1")
    system.map("cli", "E2")
    system.configure_bus("can")
    issues = system.validate()
    assert any("return values" in issue for issue in issues)


def test_remote_void_call_executes_on_server_ecu():
    actuate_if = ClientServerInterface(
        "act", {"set": Operation("set", {"level": UINT8})})
    server = SwComponent("Actuator")
    server.provide("srv", actuate_if)
    levels = []
    server.runnable("apply", OperationInvokedEvent("srv", "set"),
                    lambda ctx, level: levels.append((ctx.now, level)),
                    wcet=us(50))
    client = SwComponent("Commander")
    client.require("act", actuate_if)

    def tick(ctx):
        ctx.state.setdefault("n", 0)
        ctx.state["n"] += 1
        ctx.call("act", "set", level=ctx.state["n"])

    client.runnable("tick", TimingEvent(ms(10)), tick, wcet=us(100))
    comp = Composition("Sys")
    comp.add(server.instantiate("a"))
    comp.add(client.instantiate("cmd"))
    comp.connect("a", "srv", "cmd", "act")
    system = SystemModel("remote_cs")
    system.add_ecu("E1")
    system.add_ecu("E2")
    system.set_root(comp)
    system.map("a", "E1")
    system.map("cmd", "E2")
    system.configure_bus("can")
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(35))
    assert [level for __, level in levels] == [1, 2, 3, 4]
    # Executed on the server ECU, after bus latency.
    assert all(t > 0 for t, __ in levels)


def test_snapshot_semantics_inputs_fixed_at_task_start():
    """A task started before a new value arrives must compute with the
    old value (implicit/buffered communication)."""
    producer = SwComponent("P")
    producer.provide("out", SPEED_IF)
    producer.runnable("tick", TimingEvent(ms(10), offset=ms(1)),
                      lambda ctx: ctx.write("out", "value", 99),
                      wcet=us(100))
    consumer = SwComponent("C")
    consumer.require("in", SPEED_IF)
    seen = []
    # Long-running low-priority task: starts at 0, completes at 5 ms,
    # after the producer wrote at ~1.1 ms.
    consumer.runnable("slow", TimingEvent(ms(20)),
                      lambda ctx: seen.append(ctx.read("in", "value")),
                      wcet=ms(5))
    comp = Composition("Sys")
    comp.add(producer.instantiate("p"))
    comp.add(consumer.instantiate("c"))
    comp.connect("p", "out", "c", "in")
    system = SystemModel("snap")
    system.add_ecu("E")
    system.ecus["E"].set_priority("p.tick", 10)
    system.ecus["E"].set_priority("c.slow", 1)
    system.set_root(comp)
    system.map_all("E")
    sim = Simulator()
    system.build(sim)
    sim.run_until(ms(8))
    assert seen == [0]  # snapshot taken at t=0, before the write


def test_can_id_override_is_used():
    system = two_node_system("can")
    system.set_can_id("s.out", 0x42)
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(5))
    starts = runtime.trace.records("can.tx_start", "s.out")
    assert starts and starts[0].data["can_id"] == 0x42


def wide_system(elements=None, args=None):
    """``s`` on ECU1 sends sender-receiver ``elements`` (name -> type)
    and calls a void operation with ``args`` on ``srv`` (ECU2)."""
    comp = Composition("Sys")
    system = SystemModel("wide")
    system.add_ecu("ECU1")
    system.add_ecu("ECU2")
    sender = SwComponent("Sender")
    sender.runnable("tick", TimingEvent(ms(10)), lambda ctx: None,
                    wcet=us(100))
    comp.add(sender.instantiate("s"))
    system.map("s", "ECU1")
    if elements is not None:
        data_if = SenderReceiverInterface("wide_if", elements)
        sender.provide("out", data_if)
        sink = SwComponent("Sink")
        sink.require("in", data_if)
        comp.add(sink.instantiate("c"))
        comp.connect("s", "out", "c", "in")
        system.map("c", "ECU2")
    if args is not None:
        op_if = ClientServerInterface("op_if",
                                      {"set": Operation("set", args)})
        sender.require("act", op_if)
        server = SwComponent("Server")
        server.provide("srv", op_if)
        server.runnable("apply", OperationInvokedEvent("srv", "set"),
                        lambda ctx, **kwargs: None, wcet=us(50))
        comp.add(server.instantiate("srv"))
        comp.connect("srv", "srv", "s", "act")
        system.map("srv", "ECU2")
    system.set_root(comp)
    system.configure_bus("can")
    return system


def test_validate_rejects_a_port_wider_than_one_can_frame():
    # Four UINT16 elements take 4 x (16 + 1) = 68 bits with update bits.
    system = wide_system(elements={f"e{i}": UINT16 for i in range(4)})
    assert system.validate() == [
        "port s.out needs 68 bits with update bits; exceeds one 8-byte "
        "CAN frame — split the interface"]
    fits = wide_system(elements={f"e{i}": UINT16 for i in range(3)})
    assert fits.validate() == []


def test_validate_rejects_a_request_wider_than_one_can_frame():
    # Six UINT16 args and the fire bit need 97 bits: a 13-byte I-PDU.
    system = wide_system(args={f"a{i}": UINT16 for i in range(6)})
    assert system.validate() == [
        "client-server request cs.s.act.set needs 97 bits with its fire "
        "bit; exceeds one 8-byte CAN frame — split the operation"]
    with pytest.raises(ConfigurationError):
        system.build(Simulator())
    # On FlexRay the request is one static-slot payload: no 8-byte rule.
    system.configure_bus("flexray")
    assert system.validate() == []


def test_validate_rejects_two_pdus_sharing_a_can_id():
    system = wide_system(elements={"v": UINT16},
                         args={"level": UINT8})
    system.set_can_id("s.out", 0x200)
    system.set_can_id("cs.s.act.set", 0x200)
    assert system.validate() == [
        "PDUs cs.s.act.set, s.out share CAN id 0x200"]
    system.set_can_id("cs.s.act.set", 0x201)
    assert system.validate() == []


@pytest.mark.parametrize("kind, params, issue", [
    ("flexray", {"n_static_slots": 1},
     "domain 'default': FlexRay needs >= 2 static slots, configured 1"),
    ("tte", {"tt_period": us(5)},
     "domain 'default': 2 TT streams do not fit a 5000 ns period"),
], ids=["flexray", "tte"])
def test_validate_reports_a_bus_without_room_for_its_pdus(kind, params,
                                                          issue):
    # Two PDUs from ECU1: the data port and the request of `set`.
    from repro.core.rte import RteBuilder

    system = wide_system(elements={"v": UINT16}, args={"level": UINT8})
    system.configure_bus(kind, **params)
    assert system.validate() == [issue]
    # The generator enforces the same rule with the same words.
    with pytest.raises(ConfigurationError) as err:
        RteBuilder(system).build(Simulator())
    assert str(err.value) == issue
    system.configure_bus(kind)
    assert system.validate() == []


@pytest.mark.parametrize("server_ecu", ["E1", "E2"],
                         ids=["same-ecu", "cross-ecu"])
def test_validate_reports_a_server_operation_without_runnable(server_ecu):
    """A connected operation needs a server runnable in either
    placement: a synchronous call would fail mid-simulation, a request
    PDU would have no task to activate."""
    actuate_if = ClientServerInterface(
        "act", {"set": Operation("set", {"level": UINT8})})
    server = SwComponent("Actuator")
    server.provide("srv", actuate_if)
    server.runnable("poll", TimingEvent(ms(10)), lambda ctx: None,
                    wcet=us(50))
    client = SwComponent("Commander")
    client.require("act", actuate_if)
    client.runnable("tick", TimingEvent(ms(10)),
                    lambda ctx: ctx.call("act", "set", level=1),
                    wcet=us(100))
    comp = Composition("Sys")
    comp.add(server.instantiate("srv"))
    comp.add(client.instantiate("cmd"))
    comp.connect("srv", "srv", "cmd", "act")
    system = SystemModel("unhandled")
    system.add_ecu("E1")
    system.add_ecu("E2")
    system.set_root(comp)
    system.map("cmd", "E1")
    system.map("srv", server_ecu)
    system.configure_bus("can")
    assert system.validate() == [
        "server srv declares no runnable for srv.set"]
    with pytest.raises(ConfigurationError, match="declares no runnable"):
        system.build(Simulator())


def test_plan_tasks_are_the_deployed_tasks():
    """The plan's TaskSpecs are what the kernels get: priorities,
    partitions, budgets and the sporadic activation queue."""
    from repro.core.rte import SPORADIC_QUEUE, rte_plan

    system = two_node_system("can")
    system.ecus["ECU1"].set_partition("s.sample", "P1")
    system.ecus["ECU2"].set_budget("c.on_speed", us(400))
    plan = rte_plan(system)
    runtime = system.build(Simulator())
    assert [(task.ecu, task.spec.name) for task in plan.tasks] == [
        ("ECU1", "s.sample"), ("ECU2", "c.on_speed")]
    for task in plan.tasks:
        deployed = runtime.kernels[task.ecu].tasks[task.spec.name].spec
        assert deployed == task.spec
    sample, on_speed = (task.spec for task in plan.tasks)
    assert sample.partition == "P1" and sample.period == ms(10)
    assert on_speed.budget == us(400)
    assert on_speed.max_activations == SPORADIC_QUEUE
    assert list(plan.pdus) == ["s.out"]
    assert plan.pdus["s.out"].targets[0][0] == "ECU2"


@pytest.mark.parametrize("kind, params", [
    ("can", {"bitrate": 125_000}),
    ("tte", {"period": 1}),
    ("flexray", {"bitrate": 10_000_000}),
    (None, {"bitrate_bps": 500_000}),
], ids=["can", "tte", "flexray", "none"])
def test_configure_bus_refuses_a_parameter_its_kind_never_reads(kind,
                                                                params):
    system = two_node_system()
    (unread,) = params
    with pytest.raises(ConfigurationError,
                       match=f"bus kind {kind!r} reads no parameter "
                             f"{unread};"):
        system.configure_bus(kind, **params)
    assert system.domain_buses == {"default": ("can", {})}


BITRATE_RANGE = "is outside 1..1000000000 (a bit time of at least 1 ns)"


@pytest.mark.parametrize("kind, params, issue", [
    ("can", {"bitrate_bps": 0}, f"bitrate_bps 0 {BITRATE_RANGE}"),
    ("can", {"bitrate_bps": 1_000_000_001},
     f"bitrate_bps 1000000001 {BITRATE_RANGE}"),
    ("tte", {"bitrate_bps": 0}, f"bitrate_bps 0 {BITRATE_RANGE}"),
    ("tte", {"switch_delay": -1}, "switch_delay -1 is negative"),
    ("tte", {"tt_period": 0}, "tt_period 0 is not positive"),
    ("flexray", {"bitrate_bps": 0}, f"bitrate_bps 0 {BITRATE_RANGE}"),
    ("flexray", {"slot_length": 0},
     "FlexRay slot_length 0: static segment must be non-empty"),
    ("flexray", {"n_minislots": 4},
     "FlexRay n_minislots 4: minislots need a positive length"),
], ids=["can-bitrate-0", "can-bitrate-fast", "tte-bitrate-0",
        "tte-switch-delay", "tte-period", "flexray-bitrate-0",
        "flexray-slot-length", "flexray-minislots"])
def test_configure_bus_refuses_a_value_its_bus_cannot_run(kind, params,
                                                          issue):
    """Refused where it is configured, naming the domain, instead of a
    bare ``ValueError`` from ``validate`` or ``build`` or a simulation
    of an impossible bus."""
    system = two_node_system()
    with pytest.raises(ConfigurationError) as err:
        system.configure_domain_bus("default", kind, **params)
    assert str(err.value) == f"domain 'default': {issue}"
    assert system.domain_buses == {"default": ("can", {})}


@pytest.mark.parametrize("bitrate", [1, 1_000_000_000])
def test_configure_bus_takes_the_bitrate_range_edges(bitrate):
    system = two_node_system()
    for kind in ("tte", "flexray", "can"):
        system.configure_bus(kind, bitrate_bps=bitrate)
        assert system.domain_buses == {
            "default": (kind, {"bitrate_bps": bitrate})}
    assert system.validate() == []


def test_flexray_bus_parameters_are_the_config_keywords():
    from repro.core.rte import BUS_PARAMS
    from repro.network import FlexRayConfig

    assert BUS_PARAMS["flexray"] == tuple(
        inspect.signature(FlexRayConfig).parameters)
