"""Meta-model and exchange format (paper, Section 2: "a direct derivation of
the meta model are the exchange formats … thus inherently consistent").

:func:`import_system` is the one walk over a document: each record is
checked against its layout (:mod:`repro.records`), each reference resolves
through one lookup, every other rule is its constructor's, and each refused
element is one ``"<path>: <message>"`` row (what references it is skipped).
:func:`check_consistency` is the walk without behaviours and
:func:`export_system` its mirror, refusing what a document cannot carry.
"""

from __future__ import annotations

from copy import copy
from functools import partial
from typing import Callable, Optional

from repro.errors import ConfigurationError, ReproError
from repro.core.component import SwComponent
from repro.core.composition import Composition, CompositionInstance
from repro.core.interface import (ClientServerInterface, Operation,
                                  SenderReceiverInterface)
from repro.core.port import PROVIDED, REQUIRED
from repro.core.runnable import (DataReceivedEvent, InitEvent,
                                 OperationInvokedEvent, TimingEvent)
from repro.core.system import SystemModel
from repro.core.types import DataType
from repro.osek.scheduler import FixedPriorityScheduler
from repro.records import check_record

#: 2 added each ECU's domain and each domain's bus; 3 each ECU's overrides.
FORMAT_VERSION = 3

#: One layout per record; a type's, trigger's or ECU's fields are attributes.
DOCUMENT = {"format_version": "int", "types": "object",
            "interfaces": "object", "components": "object",
            "compositions": "object", "system": "object"}
TYPE = {"width_bits": "int", "initial": "int", "scale": "number",
        "offset": "number", "unit": "str"}
INTERFACES = {
    SenderReceiverInterface.kind: {"elements": "{str}", "queued": "[str]"},
    ClientServerInterface.kind: {"operations": "object"}}
OPERATION = {"args": "{str}", "returns": "str|null"}
COMPONENT = {"ports": "object", "runnables": "list"}
PORT = {"direction": "str", "interface": "str"}
RUNNABLE = {"name": "str", "trigger": "object", "wcet": "int",
            "writes": "[[str, str]]", "behavior": "str"}
#: trigger kind -> (event class, its fields).
TRIGGERS = {
    "timing": (TimingEvent, {"period": "int", "offset": "int"}),
    "data-received": (DataReceivedEvent, {"port": "str", "element": "str"}),
    "operation-invoked": (OperationInvokedEvent,
                          {"port": "str", "operation": "str"}),
    "init": (InitEvent, {})}
COMPOSITION = {"instances": "object", "connectors": "list",
               "delegations": "object"}
INSTANCE = {"kind": "str", "type": "str"}
CONNECTOR = {"source": "[str, str]", "target": "[str, str]"}
DELEGATION = {"instance": "str", "port": "str"}
SYSTEM = {"name": "str", "root": "str", "ecus": "object",
          "mapping": "{str}", "buses": "object", "can_ids": "{int}"}
ECU = {"domain": "str", "priorities": "{int}", "partitions": "{str}",
       "budgets": "{int}"}
BUS = {"kind": "str|null", "params": "{int}"}


def export_system(system: SystemModel) -> dict:
    """The document :func:`import_system` rebuilds ``system`` from."""
    if system.root is None:
        raise ConfigurationError("system has no root composition")
    for name, ecu in system.ecus.items():
        if ecu.scheduler_factory is not FixedPriorityScheduler:
            raise ConfigurationError(
                f"ECU {name!r}: a document carries only the default scheduler")
    document: dict = {"format_version": FORMAT_VERSION, "types": {},
                      "interfaces": {}, "components": {}, "compositions": {}}

    def note(section: str, name: str, layout: dict) -> str:
        if document[section].setdefault(name, layout) != layout:
            raise ConfigurationError(
                f"{section[:-1]} {name!r} is bound to two different layouts")
        return name

    def trigger_layout(trigger) -> dict:
        for kind, (event, fields) in TRIGGERS.items():
            if type(trigger) is event:
                return {"kind": kind,
                        **{f: getattr(trigger, f) for f in fields}}
        raise ConfigurationError(f"cannot export trigger {trigger!r}")

    def note_type(dtype: DataType) -> str:
        return note("types", dtype.name, {f: getattr(dtype, f) for f in TYPE})

    def typed(types: dict) -> dict:
        return {key: note_type(dtype) for key, dtype in types.items()}

    def note_interface(interface) -> str:
        if isinstance(interface, SenderReceiverInterface):
            layout = {"elements": typed(interface.elements),
                      "queued": sorted(interface.queued)}
        else:
            layout = {"operations": {
                op.name: {"args": typed(op.args),
                          "returns": op.returns and note_type(op.returns)}
                for op in interface.operations.values()}}
        return note("interfaces", interface.name,
                    {"kind": interface.kind, **layout})

    def note_component(component: SwComponent) -> str:
        return note("components", component.name, {
            "ports": {p.name: {"direction": p.direction,
                               "interface": note_interface(p.interface)}
                      for p in component.ports.values()},
            "runnables": [
                {"name": r.name, "trigger": trigger_layout(r.trigger),
                 "wcet": r.wcet, "writes": [list(w) for w in r.writes],
                 "behavior": f"{component.name}.{r.name}"}
                for r in component.runnables]})

    def note_composition(composition: Composition) -> str:
        return note("compositions", composition.name, {
            "instances": {
                name: {"kind": "composition",
                       "type": note_composition(instance.composition)}
                if isinstance(instance, CompositionInstance) else
                {"kind": "component",
                 "type": note_component(instance.component)}
                for name, instance in composition.instances.items()},
            "connectors": [
                {"source": [c.source.instance, c.source.port],
                 "target": [c.target.instance, c.target.port]}
                for c in composition.connectors],
            "delegations": {
                d.name: {"instance": d.inner.instance, "port": d.inner.port}
                for d in composition.delegations.values()}})

    document["system"] = {
        "name": system.name,
        "root": note_composition(system.root),
        "ecus": {name: {f: copy(getattr(ecu, f)) for f in ECU}
                 for name, ecu in sorted(system.ecus.items())},
        "mapping": dict(system.mapping),
        "buses": {domain: {"kind": kind, "params": dict(params)}
                  for domain, (kind, params)
                  in sorted(system.domain_buses.items())},
        "can_ids": dict(system.can_ids),
    }
    return document


class _Refused(Exception):
    """Ends the walk of one element (``args``: its row, unless recorded);
    the class itself is the table entry of a refused element."""


def _walk(document, behaviors: Optional[dict]):
    """The system ``document`` builds (None if refused) and its rows."""
    problems: list[str] = []
    types, interfaces, components, compositions = {}, {}, {}, {}

    def attempt(path: str, make, *args):
        """``make(*args)``, or :class:`_Refused` with the rows recorded."""
        try:
            return make(*args)
        except _Refused as refusal:
            problems.extend(refusal.args)
        except ReproError as exc:
            problems.append(f"{path}: {exc}")
        return _Refused

    def shape(path: str, data, layout: dict) -> dict:
        """The fields of ``layout``, read from the record ``data``."""
        if not check_record(path, data, layout, problems):
            raise _Refused
        return {field: data[field] for field in layout}

    def each(path: str, items, layout: dict):
        """``(path, key, record)`` of each record of a map or a list."""
        keyed = isinstance(items, dict)
        for key in items if keyed else range(len(items)):
            where = f"{path}.{key}" if keyed else f"{path}[{key}]"
            yield where, key, shape(where, items[key], layout)

    def lookup(table: dict, what: str, name: str, path: str):
        """The one way a reference resolves."""
        if not isinstance(name, str) or name not in table:
            raise _Refused(f"{path}: unknown {what} {name!r}")
        if table[name] is _Refused:
            raise _Refused
        return table[name]

    def typed(names: dict, path: str) -> dict:
        return {key: lookup(types, "type", name, f"{path}.{key}")
                for key, name in names.items()}

    def new_interface(path, name, spec):
        kind = shape(path, spec, {"kind": "str"})["kind"]
        spec = shape(path, spec, lookup(INTERFACES, "interface kind", kind,
                                        f"{path}.kind"))
        if kind == SenderReceiverInterface.kind:
            return SenderReceiverInterface(
                name, typed(spec["elements"], f"{path}.elements"),
                set(spec["queued"]))
        return ClientServerInterface(name, {
            op_name: Operation(op_name, typed(op["args"], f"{where}.args"),
                               None if op["returns"] is None else lookup(
                                   types, "type", op["returns"],
                                   f"{where}.returns"))
            for where, op_name, op in each(f"{path}.operations",
                                           spec["operations"], OPERATION)})

    def new_component(path, name, spec):
        shape(path, spec, COMPONENT)
        component = SwComponent(name)
        add_port = {PROVIDED: component.provide, REQUIRED: component.require}
        for where, port_name, port in each(f"{path}.ports", spec["ports"],
                                           PORT):
            add = lookup(add_port, "direction", port["direction"],
                         f"{where}.direction")
            add(port_name, lookup(interfaces, "interface", port["interface"],
                                  f"{where}.interface"))
        for where, _, runnable in each(f"{path}.runnables",
                                       spec["runnables"], RUNNABLE):
            at = f"{where}.trigger"
            event, fields = lookup(TRIGGERS, "trigger kind",
                                   runnable["trigger"].get("kind"),
                                   f"{at}.kind")
            component.runnable(
                runnable["name"], event(**shape(at, runnable["trigger"],
                                                fields)),
                None if behaviors is None else lookup(
                    behaviors, "behaviour", runnable["behavior"],
                    f"{where}.behavior"),
                wcet=runnable["wcet"], writes=runnable["writes"])
        return component

    def composition(name: str, path: str) -> Composition:
        """The composition ``name``, built on its first reference (its
        table entry is None while it is being built)."""
        if compositions.get(name, _Refused) is None:
            raise _Refused(f"{path}: composition {name!r} contains itself")
        if name in document["compositions"] and name not in compositions:
            compositions[name] = None
            where = f"compositions.{name}"
            compositions[name] = attempt(where, new_composition, where, name,
                                         document["compositions"][name])
        return lookup(compositions, "composition", name, path)

    def new_composition(path, name, spec):
        shape(path, spec, COMPOSITION)
        built = Composition(name)
        templates = {"component": partial(lookup, components, "component"),
                     "composition": composition}
        for where, instance, decl in each(f"{path}.instances",
                                          spec["instances"], INSTANCE):
            resolve = lookup(templates, "instance kind", decl["kind"],
                             f"{where}.kind")
            built.add(resolve(decl["type"], f"{where}.type")
                      .instantiate(instance))
        for _, port, inner in each(f"{path}.delegations",
                                   spec["delegations"], DELEGATION):
            built.delegate(port, inner["instance"], inner["port"])
        for _, _, connector in each(f"{path}.connectors", spec["connectors"],
                                    CONNECTOR):
            built.connect(*connector["source"], *connector["target"])
        return built

    def new_ecu(path, name, spec):
        spec = shape(path, spec, ECU)
        ecu = system.add_ecu(name, domain=spec["domain"])
        ecu.priorities.update(spec["priorities"])
        ecu.partitions.update(spec["partitions"])
        for task, budget in spec["budgets"].items():
            ecu.set_budget(task, budget)

    if not check_record("document", document, DOCUMENT, problems):
        return None, problems
    if document["format_version"] != FORMAT_VERSION:
        return None, [f"format_version: this build reads {FORMAT_VERSION}, "
                      f"not {document['format_version']!r}"]
    for section, table, make in (
            ("types", types, lambda path, name, spec: DataType(
                name, **shape(path, spec, TYPE))),
            ("interfaces", interfaces, new_interface),
            ("components", components, new_component)):
        for name, spec in document[section].items():
            path = f"{section}.{name}"
            table[name] = attempt(path, make, path, name, spec)
    for name in document["compositions"]:
        path = f"compositions.{name}"
        attempt(path, composition, name, path)
    spec = document["system"]
    if not check_record("system", spec, SYSTEM, problems):
        return None, problems
    system = SystemModel(spec["name"])
    attempt("system.root", lambda: system.set_root(
        composition(spec["root"], "system.root")))
    for name, ecu in spec["ecus"].items():
        path = f"system.ecus.{name}"
        attempt(path, new_ecu, path, name, ecu)
    for instance, ecu in spec["mapping"].items():
        system.map(instance, ecu)
        attempt("system.mapping", lookup, spec["ecus"], "ECU", ecu,
                f"system.mapping.{instance}")
    for domain, bus in spec["buses"].items():
        path = f"system.buses.{domain}"
        attempt(path, lambda: system.configure_domain_bus(
            domain, shape(path, bus, BUS)["kind"], **bus["params"]))
    system.can_ids.update(spec["can_ids"])
    return system, problems


def check_consistency(document) -> list[str]:
    """One ``"<path>: <message>"`` row per refused element of ``document``."""
    return _walk(document, None)[1]


def import_system(document, behaviors: dict[str, Callable]) -> SystemModel:
    """The system ``document`` describes, its behaviours from ``behaviors``
    (``"Component.runnable"`` -> callable)."""
    system, problems = _walk(document, behaviors)
    if problems:
        raise ConfigurationError(
            "document fails consistency checks:\n  " + "\n  ".join(problems))
    return system
