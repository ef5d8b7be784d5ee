"""Tests for the meta-model exchange format: export, check, import."""

import copy

import pytest

from repro.errors import ConfigurationError
from repro.core import (Composition, DataReceivedEvent,
                        SenderReceiverInterface, SwComponent, SystemModel,
                        TimingEvent, UINT16)
from repro.core.metamodel import (check_consistency, export_system,
                                  import_system)
from repro.sim import Simulator
from repro.units import ms, us

SPEED_IF = SenderReceiverInterface("speed_if", {"value": UINT16})


def sample(ctx):
    ctx.state.setdefault("n", 0)
    ctx.state["n"] += 1
    ctx.write("out", "value", ctx.state["n"] * 10)


def on_speed(ctx):
    ctx.write("cmd", "value", ctx.read("in", "value") + 1)


BEHAVIORS = {"Sensor.sample": sample, "Controller.on_speed": on_speed}


def build_system():
    sensor = SwComponent("Sensor")
    sensor.provide("out", SPEED_IF)
    sensor.runnable("sample", TimingEvent(ms(10)), sample, wcet=us(200))
    controller = SwComponent("Controller")
    controller.require("in", SPEED_IF)
    controller.provide("cmd", SenderReceiverInterface(
        "cmd_if", {"value": UINT16}))
    controller.runnable("on_speed", DataReceivedEvent("in", "value"),
                        on_speed, wcet=us(300))
    comp = Composition("Root")
    comp.add(sensor.instantiate("s"))
    comp.add(controller.instantiate("c"))
    comp.connect("s", "out", "c", "in")
    system = SystemModel("demo")
    system.add_ecu("ECU1")
    system.add_ecu("ECU2")
    system.set_root(comp)
    system.map("s", "ECU1")
    system.map("c", "ECU2")
    system.configure_bus("can", bitrate_bps=500_000)
    return system


def test_export_structure():
    doc = export_system(build_system())
    assert doc["format_version"] == 2
    assert "Sensor" in doc["components"]
    assert "speed_if" in doc["interfaces"]
    assert doc["system"]["root"] == "Root"
    assert doc["system"]["ecus"] == {"ECU1": {"domain": "default"},
                                     "ECU2": {"domain": "default"}}
    assert doc["system"]["mapping"] == {"s": "ECU1", "c": "ECU2"}
    assert doc["system"]["buses"] == {
        "default": {"kind": "can", "params": {"bitrate_bps": 500_000}}}


def test_exported_document_is_consistent():
    doc = export_system(build_system())
    assert check_consistency(doc) == []


def test_check_detects_dangling_interface_reference():
    doc = export_system(build_system())
    broken = copy.deepcopy(doc)
    del broken["interfaces"]["speed_if"]
    issues = check_consistency(broken)
    assert any("unknown interface" in issue for issue in issues)


def test_check_detects_unknown_type():
    doc = export_system(build_system())
    broken = copy.deepcopy(doc)
    del broken["types"]["uint16"]
    issues = check_consistency(broken)
    assert any("unknown type" in issue for issue in issues)


def test_check_detects_bad_mapping():
    doc = export_system(build_system())
    broken = copy.deepcopy(doc)
    broken["system"]["mapping"]["s"] = "GHOST"
    issues = check_consistency(broken)
    assert any("GHOST" in issue for issue in issues)


def test_check_detects_connector_to_unknown_instance():
    doc = export_system(build_system())
    broken = copy.deepcopy(doc)
    broken["compositions"]["Root"]["connectors"][0]["target"][0] = "nope"
    issues = check_consistency(broken)
    assert any("unknown instance" in issue for issue in issues)


def test_import_rejects_inconsistent_document():
    doc = export_system(build_system())
    broken = copy.deepcopy(doc)
    del broken["interfaces"]["speed_if"]
    with pytest.raises(ConfigurationError):
        import_system(broken, BEHAVIORS)


def test_import_requires_behaviors():
    doc = export_system(build_system())
    with pytest.raises(ConfigurationError):
        import_system(doc, {})


def test_roundtrip_rebuilds_equivalent_system():
    original = build_system()
    doc = export_system(original)
    rebuilt = import_system(doc, BEHAVIORS)
    assert rebuilt.validate() == []
    assert export_system(rebuilt) == doc  # stable fixed point


def test_roundtrip_system_actually_runs():
    doc = export_system(build_system())
    rebuilt = import_system(doc, BEHAVIORS)
    sim = Simulator()
    runtime = rebuilt.build(sim)
    sim.run_until(ms(25))
    assert runtime.value_of("c", "cmd", "value") == 31


def test_writes_metadata_roundtrips():
    """The timing-relevant `writes` template data survives export/import
    (the meta-model extension the paper's Section 2 demands)."""
    sensor = SwComponent("Sensor")
    sensor.provide("out", SPEED_IF)
    sensor.runnable("sample", TimingEvent(ms(10)), sample, wcet=us(200),
                    writes=[("out", "value")])
    comp = Composition("Root")
    comp.add(sensor.instantiate("s"))
    system = SystemModel("writes")
    system.add_ecu("E")
    system.set_root(comp)
    system.map_all("E")
    doc = export_system(system)
    exported = doc["components"]["Sensor"]["runnables"][0]
    assert exported["writes"] == [["out", "value"]]
    rebuilt = import_system(doc, {"Sensor.sample": sample})
    runnable = rebuilt.root.instances["s"].component.runnables[0]
    assert runnable.writes == [("out", "value")]


def test_hierarchical_composition_roundtrip():
    sensor = SwComponent("Sensor")
    sensor.provide("out", SPEED_IF)
    sensor.runnable("sample", TimingEvent(ms(10)), sample, wcet=us(100))
    inner = Composition("Cluster")
    inner.add(sensor.instantiate("left"))
    inner.delegate("cluster_out", "left", "out")
    controller = SwComponent("Controller")
    controller.require("in", SPEED_IF)
    controller.provide("cmd", SenderReceiverInterface(
        "cmd_if", {"value": UINT16}))
    controller.runnable("on_speed", DataReceivedEvent("in", "value"),
                        on_speed, wcet=us(100))
    outer = Composition("Root")
    outer.add(inner.instantiate("cl"))
    outer.add(controller.instantiate("c"))
    outer.connect("cl", "cluster_out", "c", "in")
    system = SystemModel("hier")
    system.add_ecu("E")
    system.set_root(outer)
    system.map_all("E")

    doc = export_system(system)
    assert "Cluster" in doc["compositions"]
    rebuilt = import_system(doc, BEHAVIORS)
    instances, connectors = rebuilt.root.flatten()
    assert sorted(i.name for i in instances) == ["c", "cl.left"]
