"""Tests for the meta-model exchange format: export, check, import."""

import copy

import pytest

from repro.errors import ConfigurationError
from repro.core import (Composition, DataReceivedEvent, DataType,
                        SenderReceiverInterface, SwComponent, SystemModel,
                        TimingEvent, UINT16)
from repro.core.metamodel import (check_consistency, export_system,
                                  import_system)
from repro.osek import TdmaScheduler, Window
from repro.sim import Simulator
from repro.units import ms, us

import test_system_report
from test_rte_isolation import build_two_supplier_system
from test_rte_trace_pins import PINS

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
    assert doc["format_version"] == 3
    assert "Sensor" in doc["components"]
    assert "speed_if" in doc["interfaces"]
    assert doc["system"]["root"] == "Root"
    no_overrides = {"priorities": {}, "partitions": {}, "budgets": {}}
    assert doc["system"]["ecus"] == {
        "ECU1": {"domain": "default", **no_overrides},
        "ECU2": {"domain": "default", **no_overrides}}
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


#: Marks a key an edit deletes.
DELETE = object()
WCET = (("components", "Sensor", "runnables", 0, "wcet"), "x")
ECU1_DOMAIN = (("system", "ecus", "ECU1", "domain"), DELETE)

#: Damaged exports of ``build_system()``: case -> (edits, rows).  Each
#: edit is ``(key path, new value or DELETE)``; the rows are what
#: ``check_consistency`` lists and ``import_system`` raises.
DAMAGED = {
    "ecu-domain": ([ECU1_DOMAIN],
                   ["system.ecus.ECU1: missing field(s) domain"]),
    "delegations": ([(("compositions", "Root", "delegations"), DELETE)],
                    ["compositions.Root: missing field(s) delegations"]),
    "runnables": ([(("components", "Sensor", "runnables"), DELETE)],
                  ["components.Sensor: missing field(s) runnables"]),
    "buses": ([(("system", "buses"), DELETE)],
              ["system: missing field(s) buses"]),
    "width": ([(("types", "uint16", "width_bits"), DELETE)],
              ["types.uint16: missing field(s) width_bits"]),
    "interfaces-list": ([(("interfaces",), [])],
                        ["document.interfaces: expected object, got list"]),
    "system-null": ([(("system",), None)],
                    ["document.system: expected object, got null"]),
    "direction": ([(("components", "Sensor", "ports", "out", "direction"),
                    "sideways")],
                  ["components.Sensor.ports.out.direction: unknown "
                   "direction 'sideways'"]),
    "wcet": ([WCET],
             ["components.Sensor.runnables[0].wcet: expected int, got str"]),
    "trigger-kind": ([(("components", "Sensor", "runnables", 0, "trigger",
                        "kind"), "bogus")],
                     ["components.Sensor.runnables[0].trigger.kind: "
                      "unknown trigger kind 'bogus'"]),
    "connector-port": ([(("compositions", "Root", "connectors", 0,
                          "target", 1), "nope")],
                       ["compositions.Root: instance c: component "
                        "Controller has no port 'nope'"]),
    "two-faults": ([WCET, ECU1_DOMAIN],
                   ["components.Sensor.runnables[0].wcet: expected int, "
                    "got str",
                    "system.ecus.ECU1: missing field(s) domain"]),
    "composition-cycle": ([(("compositions", "Root", "instances", "r"),
                            {"kind": "composition", "type": "Root"})],
                          ["compositions.Root.instances.r.type: "
                           "composition 'Root' contains itself"]),
    "bus-parameter": ([(("system", "buses", "default", "params"),
                        {"bitrate": 125_000})],
                      ["system.buses.default: bus kind 'can' reads no "
                       "parameter bitrate; it reads bitrate_bps"]),
    "bus-bitrate": ([(("system", "buses", "default", "params",
                       "bitrate_bps"), 0)],
                    ["system.buses.default: domain 'default': bitrate_bps "
                     "0 is outside 1..1000000000 (a bit time of at least "
                     "1 ns)"]),
}


@pytest.mark.parametrize("case", sorted(DAMAGED))
def test_damaged_document_is_refused_by_path(case):
    edits, rows = DAMAGED[case]
    doc = export_system(build_system())
    for (*parents, key), value in edits:
        target = doc
        for parent in parents:
            target = target[parent]
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
    assert check_consistency(doc) == rows
    with pytest.raises(ConfigurationError) as err:
        import_system(doc, BEHAVIORS)
    assert str(err.value).splitlines()[1:] == [f"  {row}" for row in rows]


def behaviors_of(system):
    instances, __ = system.root.flatten()
    return {f"{instance.component.name}.{runnable.name}": runnable.function
            for instance in instances
            for runnable in instance.component.runnables}


def report_system_with_overrides():
    """The timing-report system with priority and budget overrides."""
    system = test_system_report.build_system()
    ecu = system.ecus["E1"]
    ecu.set_priority("sensor.sample", 1)
    ecu.set_priority("hog.burn", 5)
    ecu.set_budget("hog.burn", us(900))
    return system


ROUND_TRIPS = {**PINS, "report-overrides": (
    report_system_with_overrides, ms(100), 207, "5e41e9b3251d")}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_roundtrip_deploys_the_same_system(name):
    """The rebuilt system exports the same document and runs the
    original's pinned trace."""
    factory, horizon, records, digest = ROUND_TRIPS[name]
    original = factory()
    doc = export_system(original)
    rebuilt = import_system(doc, behaviors_of(original))
    assert export_system(rebuilt) == doc
    for system in (original, rebuilt):
        sim = Simulator()
        runtime = system.build(sim)
        sim.run_until(horizon)
        assert (len(runtime.trace), runtime.trace.digest()[:12]) == \
            (records, digest)


def test_export_refuses_a_scheduler_it_cannot_carry():
    def tdma():
        return TdmaScheduler([Window(0, ms(3), "PA"),
                              Window(ms(3), ms(3), "PB")],
                             major_frame=ms(10))

    with pytest.raises(ConfigurationError, match="^ECU 'ECU': "):
        export_system(build_two_supplier_system(tdma))


def test_export_refuses_one_name_for_two_layouts():
    """A 16-bit and an 8-bit ``speed`` would both import as one type."""
    gauge = SwComponent("Gauge")
    gauge.provide("wide", SenderReceiverInterface(
        "wide_if", {"v": DataType("speed", 16)}))
    gauge.provide("narrow", SenderReceiverInterface(
        "narrow_if", {"v": DataType("speed", 8)}))
    gauge.runnable("tick", TimingEvent(ms(10)), sample, wcet=us(100))
    comp = Composition("Root")
    comp.add(gauge.instantiate("g"))
    system = SystemModel("speeds")
    system.add_ecu("E")
    system.set_root(comp)
    system.map_all("E")
    with pytest.raises(ConfigurationError,
                       match="^type 'speed' is bound to two different "
                             "layouts"):
        export_system(system)
