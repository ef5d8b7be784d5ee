"""Tests for data types, interfaces, ports, components, compositions."""

import pytest

from repro.errors import CompositionError, ConfigurationError
from repro.core.component import SwComponent
from repro.core.composition import Composition, Endpoint
from repro.core.interface import (ClientServerInterface, Operation,
                                  SenderReceiverInterface)
from repro.core.runnable import (DataReceivedEvent, OperationInvokedEvent,
                                 TimingEvent)
from repro.core.types import BOOL, DataType, UINT8, UINT16
from repro.units import ms


def sr_iface(name="speed_if", width=16):
    return SenderReceiverInterface(name, {"value": DataType("t", width)})


def cs_iface(name="calib_if"):
    return ClientServerInterface(
        name, {"get": Operation("get", {"index": UINT8}, returns=UINT16)})


# ----------------------------------------------------------------------
# DataType
# ----------------------------------------------------------------------
def test_datatype_range_validation():
    t = DataType("t", 4)
    assert t.max_value == 15
    t.validate(15)
    with pytest.raises(ConfigurationError):
        t.validate(16)
    with pytest.raises(ConfigurationError):
        t.validate(-1)
    with pytest.raises(ConfigurationError):
        t.validate(True)  # bool is not an application int


def test_datatype_physical_conversion():
    rpm = DataType("rpm", 16, scale=0.25, offset=0.0, unit="rpm")
    assert rpm.to_physical(400) == 100.0
    assert rpm.from_physical(100.0) == 400


def test_datatype_width_bounds():
    with pytest.raises(ConfigurationError):
        DataType("t", 0)
    with pytest.raises(ConfigurationError):
        DataType("t", 65)


def test_datatype_compatibility_by_width():
    assert UINT8.compatible_with(DataType("other8", 8))
    assert not UINT8.compatible_with(UINT16)


# ----------------------------------------------------------------------
# Interfaces
# ----------------------------------------------------------------------
def test_sr_interface_structural_compatibility():
    a = SenderReceiverInterface("A", {"x": UINT8, "y": UINT16})
    b = SenderReceiverInterface("B", {"x": DataType("t", 8), "y": UINT16})
    c = SenderReceiverInterface("C", {"x": UINT8})
    assert a.compatible_with(b)
    assert not a.compatible_with(c)
    assert not a.compatible_with(cs_iface())


def test_cs_interface_compatibility():
    a = cs_iface("A")
    b = cs_iface("B")
    assert a.compatible_with(b)
    c = ClientServerInterface(
        "C", {"get": Operation("get", {"index": UINT16}, returns=UINT16)})
    assert not a.compatible_with(c)
    d = ClientServerInterface(
        "D", {"get": Operation("get", {"index": UINT8}, returns=None)})
    assert not a.compatible_with(d)


def test_interface_requires_content():
    with pytest.raises(ConfigurationError):
        SenderReceiverInterface("E", {})
    with pytest.raises(ConfigurationError):
        ClientServerInterface("E", {})
    with pytest.raises(ConfigurationError):
        ClientServerInterface("E", {"a": Operation("b")})


# ----------------------------------------------------------------------
# Components
# ----------------------------------------------------------------------
def test_component_port_and_runnable_registration():
    comp = SwComponent("Sensor")
    comp.provide("out", sr_iface())
    comp.runnable("sample", TimingEvent(ms(10)), lambda ctx: None)
    assert "out" in comp.ports
    with pytest.raises(ConfigurationError):
        comp.provide("out", sr_iface())
    with pytest.raises(ConfigurationError):
        comp.runnable("sample", TimingEvent(ms(10)), lambda ctx: None)


def test_data_received_trigger_validated_against_ports():
    comp = SwComponent("C")
    comp.require("in", sr_iface())
    comp.runnable("ok", DataReceivedEvent("in", "value"), lambda ctx: None)
    with pytest.raises(ConfigurationError):
        comp.runnable("bad_port", DataReceivedEvent("nope", "value"),
                      lambda ctx: None)
    with pytest.raises(ConfigurationError):
        comp.runnable("bad_elem", DataReceivedEvent("in", "nope"),
                      lambda ctx: None)


def test_operation_invoked_trigger_validated():
    comp = SwComponent("Server")
    comp.provide("srv", cs_iface())
    comp.runnable("handler", OperationInvokedEvent("srv", "get"),
                  lambda ctx, index: index)
    assert comp.server_runnable("srv", "get") is not None
    assert comp.server_runnable("srv", "nope") is None
    with pytest.raises(ConfigurationError):
        comp.runnable("bad", OperationInvokedEvent("srv", "nope"),
                      lambda ctx: None)


def test_instance_port_lookup():
    comp = SwComponent("C")
    comp.provide("out", sr_iface())
    inst = comp.instantiate("c1")
    assert inst.port("out").is_provided
    with pytest.raises(CompositionError):
        inst.port("missing")


# ----------------------------------------------------------------------
# Composition
# ----------------------------------------------------------------------
def build_sensor_controller():
    sensor = SwComponent("Sensor")
    sensor.provide("out", sr_iface())
    controller = SwComponent("Controller")
    controller.require("in", sr_iface())
    comp = Composition("Sys")
    comp.add(sensor.instantiate("s"))
    comp.add(controller.instantiate("c"))
    return comp


def test_connect_valid_sr():
    comp = build_sensor_controller()
    comp.connect("s", "out", "c", "in")
    assert len(comp.connectors) == 1


def test_connect_direction_enforced():
    comp = build_sensor_controller()
    with pytest.raises(CompositionError):
        comp.connect("c", "in", "s", "out")


def test_connect_incompatible_interfaces_rejected():
    sensor = SwComponent("Sensor")
    sensor.provide("out", sr_iface(width=16))
    controller = SwComponent("Controller")
    controller.require("in", sr_iface(width=8))
    comp = Composition("Sys")
    comp.add(sensor.instantiate("s"))
    comp.add(controller.instantiate("c"))
    with pytest.raises(CompositionError):
        comp.connect("s", "out", "c", "in")


def test_single_writer_rule():
    sensor = SwComponent("Sensor")
    sensor.provide("out", sr_iface())
    controller = SwComponent("Controller")
    controller.require("in", sr_iface())
    comp = Composition("Sys")
    comp.add(sensor.instantiate("s1"))
    comp.add(sensor.instantiate("s2"))
    comp.add(controller.instantiate("c"))
    comp.connect("s1", "out", "c", "in")
    with pytest.raises(CompositionError):
        comp.connect("s2", "out", "c", "in")


def test_single_server_rule():
    # A client port connected to two servers: the RTE would derive a
    # request PDU per server and keep one, and calls would reach only
    # the last server.
    server = SwComponent("Server")
    server.provide("srv", cs_iface())
    client = SwComponent("Client")
    client.require("cal", cs_iface())
    comp = Composition("Sys")
    comp.add(server.instantiate("s1"))
    comp.add(server.instantiate("s2"))
    comp.add(client.instantiate("c"))
    comp.add(client.instantiate("d"))
    comp.connect("s1", "srv", "c", "cal")
    with pytest.raises(CompositionError, match="already has a server"):
        comp.connect("s2", "srv", "c", "cal")
    comp.connect("s1", "srv", "d", "cal")  # one server, many clients
    assert len(comp.connectors) == 2


def test_fan_out_allowed():
    sensor = SwComponent("Sensor")
    sensor.provide("out", sr_iface())
    controller = SwComponent("Controller")
    controller.require("in", sr_iface())
    comp = Composition("Sys")
    comp.add(sensor.instantiate("s"))
    comp.add(controller.instantiate("c1"))
    comp.add(controller.instantiate("c2"))
    comp.connect("s", "out", "c1", "in")
    comp.connect("s", "out", "c2", "in")
    assert len(comp.connectors) == 2


def test_duplicate_instance_rejected():
    comp = build_sensor_controller()
    sensor = SwComponent("Sensor")
    sensor.provide("out", sr_iface())
    with pytest.raises(CompositionError):
        comp.add(sensor.instantiate("s"))


def test_unknown_instance_or_port():
    comp = build_sensor_controller()
    with pytest.raises(CompositionError):
        comp.connect("nope", "out", "c", "in")
    with pytest.raises(CompositionError):
        comp.connect("s", "nope", "c", "in")


def test_hierarchy_flatten_with_delegation():
    sensor = SwComponent("Sensor")
    sensor.provide("out", sr_iface())
    inner = Composition("SensorCluster")
    inner.add(sensor.instantiate("left"))
    inner.delegate("cluster_out", "left", "out")

    controller = SwComponent("Controller")
    controller.require("in", sr_iface())
    outer = Composition("Sys")
    outer.add(inner.instantiate("cluster"))
    outer.add(controller.instantiate("c"))
    outer.connect("cluster", "cluster_out", "c", "in")

    instances, connectors = outer.flatten()
    names = sorted(i.name for i in instances)
    assert names == ["c", "cluster.left"]
    assert len(connectors) == 1
    assert connectors[0].source == Endpoint("cluster.left", "out")
    assert connectors[0].target == Endpoint("c", "in")


def test_delegation_of_required_port():
    controller = SwComponent("Controller")
    controller.require("in", sr_iface())
    inner = Composition("Inner")
    inner.add(controller.instantiate("c"))
    inner.delegate("need", "c", "in")

    sensor = SwComponent("Sensor")
    sensor.provide("out", sr_iface())
    outer = Composition("Sys")
    outer.add(sensor.instantiate("s"))
    outer.add(inner.instantiate("sub"))
    outer.connect("s", "out", "sub", "need")
    __, connectors = outer.flatten()
    assert connectors[0].target == Endpoint("sub.c", "in")


def test_delegation_unknown_port_rejected():
    comp = build_sensor_controller()
    with pytest.raises(CompositionError):
        comp.delegate("x", "s", "missing")
