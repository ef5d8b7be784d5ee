"""Meta-model and exchange format.

"The AUTOSAR meta model precisely defines the concepts used to describe a
self-contained system … A direct derivation of the meta model are the
exchange formats (based on templates), which are thus inherently
consistent" (paper, Section 2).

This module is that derivation for our model: every model element exports
to a plain-dict *template*; a full document round-trips through
:func:`export_system` / :func:`import_system` (behaviour functions are
referenced by name and rebound through a registry at import).
:func:`check_consistency` validates a document without instantiating it —
the cross-supplier exchange scenario, where the integrator checks a
supplier's description before accepting it.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError
from repro.core.component import SwComponent
from repro.core.composition import Composition, CompositionInstance
from repro.core.interface import (ClientServerInterface, Operation,
                                  SenderReceiverInterface)
from repro.core.runnable import (DataReceivedEvent, InitEvent,
                                 OperationInvokedEvent, TimingEvent)
from repro.core.system import SystemModel
from repro.core.types import DataType

#: The document layout: since 2, every ECU carries its domain and every
#: domain its bus.
FORMAT_VERSION = 2


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def _export_trigger(trigger) -> dict:
    if isinstance(trigger, TimingEvent):
        return {"kind": "timing", "period": trigger.period,
                "offset": trigger.offset}
    if isinstance(trigger, DataReceivedEvent):
        return {"kind": "data-received", "port": trigger.port,
                "element": trigger.element}
    if isinstance(trigger, OperationInvokedEvent):
        return {"kind": "operation-invoked", "port": trigger.port,
                "operation": trigger.operation}
    if isinstance(trigger, InitEvent):
        return {"kind": "init"}
    raise ConfigurationError(f"cannot export trigger {trigger!r}")


def export_system(system: SystemModel) -> dict:
    """Serialize a system model (structure only; behaviours by name)."""
    if system.root is None:
        raise ConfigurationError("system has no root composition")
    types: dict[str, dict] = {}
    interfaces: dict[str, dict] = {}
    components: dict[str, dict] = {}
    compositions: dict[str, dict] = {}

    def note_type(dtype: DataType) -> str:
        types[dtype.name] = {"width_bits": dtype.width_bits,
                             "initial": dtype.initial,
                             "scale": dtype.scale, "offset": dtype.offset,
                             "unit": dtype.unit}
        return dtype.name

    def note_interface(interface) -> str:
        if isinstance(interface, SenderReceiverInterface):
            interfaces[interface.name] = {
                "kind": "sender-receiver",
                "elements": {el: note_type(t)
                             for el, t in interface.elements.items()},
                "queued": sorted(interface.queued)}
        else:
            interfaces[interface.name] = {
                "kind": "client-server",
                "operations": {
                    op.name: {
                        "args": {a: note_type(t)
                                 for a, t in op.args.items()},
                        "returns": (note_type(op.returns)
                                    if op.returns else None)}
                    for op in interface.operations.values()}}
        return interface.name

    def note_component(component: SwComponent) -> str:
        if component.name in components:
            return component.name
        components[component.name] = {
            "ports": {p.name: {"direction": p.direction,
                               "interface": note_interface(p.interface)}
                      for p in component.ports.values()},
            "runnables": [
                {"name": r.name, "trigger": _export_trigger(r.trigger),
                 "wcet": r.wcet,
                 "writes": [list(w) for w in r.writes],
                 "behavior": f"{component.name}.{r.name}"}
                for r in component.runnables]}
        return component.name

    def note_composition(composition: Composition) -> str:
        if composition.name in compositions:
            return composition.name
        instances = {}
        for name, instance in composition.instances.items():
            if isinstance(instance, CompositionInstance):
                instances[name] = {
                    "kind": "composition",
                    "type": note_composition(instance.composition)}
            else:
                instances[name] = {
                    "kind": "component",
                    "type": note_component(instance.component)}
        compositions[composition.name] = {
            "instances": instances,
            "connectors": [
                {"source": [c.source.instance, c.source.port],
                 "target": [c.target.instance, c.target.port]}
                for c in composition.connectors],
            "delegations": {
                d.name: {"instance": d.inner.instance,
                         "port": d.inner.port}
                for d in composition.delegations.values()}}
        return composition.name

    root_name = note_composition(system.root)
    return {
        "format_version": FORMAT_VERSION,
        "types": types,
        "interfaces": interfaces,
        "components": components,
        "compositions": compositions,
        "system": {
            "name": system.name,
            "root": root_name,
            "ecus": {name: {"domain": ecu.domain}
                     for name, ecu in sorted(system.ecus.items())},
            "mapping": dict(system.mapping),
            "buses": {domain: {"kind": kind, "params": dict(params)}
                      for domain, (kind, params)
                      in sorted(system.domain_buses.items())},
            "can_ids": dict(system.can_ids),
        },
    }


# ----------------------------------------------------------------------
# Consistency checks
# ----------------------------------------------------------------------
def check_consistency(document: dict) -> list[str]:
    """Validate a document's internal references; returns issues."""
    issues: list[str] = []
    if document.get("format_version") != FORMAT_VERSION:
        issues.append(f"unsupported format_version "
                      f"{document.get('format_version')!r}")
    types = document.get("types", {})
    interfaces = document.get("interfaces", {})
    components = document.get("components", {})
    compositions = document.get("compositions", {})

    for name, interface in interfaces.items():
        kind = interface.get("kind")
        if kind == "sender-receiver":
            for element, type_name in interface.get("elements", {}).items():
                if type_name not in types:
                    issues.append(f"interface {name}: element {element} "
                                  f"references unknown type {type_name!r}")
        elif kind == "client-server":
            for op_name, op in interface.get("operations", {}).items():
                for arg, type_name in op.get("args", {}).items():
                    if type_name not in types:
                        issues.append(
                            f"interface {name}.{op_name}: arg {arg} "
                            f"references unknown type {type_name!r}")
                returns = op.get("returns")
                if returns is not None and returns not in types:
                    issues.append(f"interface {name}.{op_name}: unknown "
                                  f"return type {returns!r}")
        else:
            issues.append(f"interface {name}: unknown kind {kind!r}")

    for name, component in components.items():
        for port_name, port in component.get("ports", {}).items():
            if port.get("interface") not in interfaces:
                issues.append(f"component {name}: port {port_name} "
                              f"references unknown interface "
                              f"{port.get('interface')!r}")
        for runnable in component.get("runnables", []):
            trigger = runnable.get("trigger", {})
            if trigger.get("kind") in ("data-received",
                                       "operation-invoked"):
                if trigger.get("port") not in component.get("ports", {}):
                    issues.append(
                        f"component {name}: runnable "
                        f"{runnable.get('name')} triggers on unknown "
                        f"port {trigger.get('port')!r}")

    for name, composition in compositions.items():
        instance_decls = composition.get("instances", {})
        for iname, decl in instance_decls.items():
            registry = (components if decl.get("kind") == "component"
                        else compositions)
            if decl.get("type") not in registry:
                issues.append(f"composition {name}: instance {iname} has "
                              f"unknown type {decl.get('type')!r}")
        for connector in composition.get("connectors", []):
            for role in ("source", "target"):
                inst = connector.get(role, [None, None])[0]
                if inst not in instance_decls:
                    issues.append(f"composition {name}: connector {role} "
                                  f"references unknown instance {inst!r}")

    system = document.get("system", {})
    root = system.get("root")
    if root not in compositions:
        issues.append(f"system root {root!r} is not an exported "
                      f"composition")
    ecus = set(system.get("ecus", []))
    for instance, ecu in system.get("mapping", {}).items():
        if ecu not in ecus:
            issues.append(f"mapping: instance {instance!r} mapped to "
                          f"unknown ECU {ecu!r}")
    return issues


# ----------------------------------------------------------------------
# Import
# ----------------------------------------------------------------------
def import_system(document: dict,
                  behaviors: dict[str, Callable]) -> SystemModel:
    """Rebuild a system model from a document.

    ``behaviors`` maps the exported behaviour references
    (``"Component.runnable"``) back to Python callables.
    """
    issues = check_consistency(document)
    if issues:
        raise ConfigurationError(
            "document fails consistency checks:\n  " + "\n  ".join(issues))
    types = {name: DataType(name, **spec)
             for name, spec in document["types"].items()}
    interfaces = {}
    for name, spec in document["interfaces"].items():
        if spec["kind"] == "sender-receiver":
            interfaces[name] = SenderReceiverInterface(
                name, {el: types[t] for el, t in spec["elements"].items()},
                queued=set(spec.get("queued", [])))
        else:
            interfaces[name] = ClientServerInterface(
                name,
                {op_name: Operation(
                    op_name,
                    {a: types[t] for a, t in op["args"].items()},
                    types[op["returns"]] if op["returns"] else None)
                 for op_name, op in spec["operations"].items()})
    components = {}
    for name, spec in document["components"].items():
        component = SwComponent(name)
        for port_name, port in spec["ports"].items():
            if port["direction"] == "provided":
                component.provide(port_name, interfaces[port["interface"]])
            else:
                component.require(port_name, interfaces[port["interface"]])
        for runnable in spec["runnables"]:
            behavior = behaviors.get(runnable["behavior"])
            if behavior is None:
                raise ConfigurationError(
                    f"no behaviour registered for "
                    f"{runnable['behavior']!r}")
            component.runnable(runnable["name"],
                               _import_trigger(runnable["trigger"]),
                               behavior, wcet=runnable["wcet"],
                               writes=runnable.get("writes"))
        components[name] = component

    compositions: dict[str, Composition] = {}

    def build_composition(name: str) -> Composition:
        if name in compositions:
            return compositions[name]
        spec = document["compositions"][name]
        composition = Composition(name)
        compositions[name] = composition
        for iname, decl in spec["instances"].items():
            if decl["kind"] == "component":
                composition.add(components[decl["type"]].instantiate(iname))
            else:
                composition.add(
                    build_composition(decl["type"]).instantiate(iname))
        for delegation_name, d in spec["delegations"].items():
            composition.delegate(delegation_name, d["instance"], d["port"])
        for connector in spec["connectors"]:
            composition.connect(connector["source"][0],
                                connector["source"][1],
                                connector["target"][0],
                                connector["target"][1])
        return composition

    system_spec = document["system"]
    system = SystemModel(system_spec["name"])
    system.set_root(build_composition(system_spec["root"]))
    for ecu, spec in system_spec["ecus"].items():
        system.add_ecu(ecu, domain=spec["domain"])
    for instance, ecu in system_spec["mapping"].items():
        system.map(instance, ecu)
    for domain, bus in system_spec["buses"].items():
        system.configure_domain_bus(domain, bus["kind"], **bus["params"])
    for pdu, can_id in system_spec.get("can_ids", {}).items():
        system.set_can_id(pdu, can_id)
    return system


def _import_trigger(spec: dict):
    kind = spec["kind"]
    if kind == "timing":
        return TimingEvent(spec["period"], spec["offset"])
    if kind == "data-received":
        return DataReceivedEvent(spec["port"], spec["element"])
    if kind == "operation-invoked":
        return OperationInvokedEvent(spec["port"], spec["operation"])
    if kind == "init":
        return InitEvent()
    raise ConfigurationError(f"unknown trigger kind {kind!r}")
