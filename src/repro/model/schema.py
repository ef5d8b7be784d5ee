"""The model document: layout, versioning, validation, digest.

A **model document** is one plain JSON object describing a complete
distributed system, the declarative exchange format of paper §2:

.. code-block:: text

    {
      "format": "repro.model",
      "format_version": 1,
      "meta":    {"name", "description", "seed", "size"},
      "osek":    {"ecus": {<name>: {"scheduler": "fixed-priority",
                                    "tasks": [...]}
                          | {"scheduler": "tdma", "partitions": [...],
                             "major_frame": ..., "tasks": [...]}},
                  "resources": {<name>: {"ceiling": int}},
                  "critical_sections": [...]},
      "com":     {"frames": [{"ipdu", "period", "sender"}, ...],
                  "chains": [<e2e chain>, ...]},
      "network": {"can": {"bitrate_bps", "frame_specs"} | null,
                  "flexray": {...} | null,
                  "ttp": null, "tte": null},
      "resilience": {"scenarios": [{"kind", "start", "duration",
                                    "target"}, ...]}
    }

``format_version`` is explicit and checked first: the loader refuses
unknown versions instead of guessing.  Every ``network`` key must be
present (``null`` for an absent bus).  The ``ttp`` / ``tte`` sections
are *reserved*: only ``null`` is accepted until the corresponding
schedule specs grow an executable view.

:func:`validate_document` is the one definition of a well-formed
system, for documents and ``GeneratedSystem`` objects alike:
:func:`repro.verify.mutate.validate_system` validates a system's
document.  Every problem is a ``"<path>: <message>"`` row (e.g.
``com.chains[0]: producer task 'E9.prod' is not a task of ECU 'E0'``),
so a hand-edited file fails with something actionable, never a
``KeyError`` three layers down.  It works in four parts:

1. **Record tables.**  Every record
   :func:`~repro.model.build.system_from_model` reads (task, critical
   section, CAN frame spec, COM frame, I-PDU, signal mapping, signal,
   FlexRay config, static and dynamic writer, E2E chain, fault
   scenario, and the objects holding them) has one layout below giving
   each field's JSON type; :func:`repro.records.check_record` checks a
   record against it.
2. **References and cross-record rules.**  Every reference resolves: a
   COM frame's sender to a fixed-priority ECU, its I-PDU and a chain's
   PDU to a CAN frame spec, chain producer/consumer and critical
   section tasks to tasks, resources and TDMA partitions to their
   declarations, FlexRay writers to cluster nodes.  And the rules no
   single record can check hold: task names unique in the system and
   priorities unique per ECU; resource ceilings at or above every
   user's priority; no negative or all-zero critical section; unique
   CAN frame names and identifiers, I-PDU names and signal names; each
   COM frame at its spec's period and within its DLC; distinct FlexRay
   nodes, static slots (inside the static segment) and dynamic frame
   ids; writers with ``0 <= offset < period``; no empty TDMA partition.
3. **Value ranges belong to the constructors.**  The validator then
   builds the system (:func:`~repro.model.build.system_from_model`,
   the chain's E2E PDU and profile, the TDMA schedule) and reports a
   :class:`~repro.errors.ConfigurationError` as a row.  Ranges such as
   ``0 < bcet <= wcet``, DLC 0..8, the E2E counter width, max delta and
   data id, the FlexRay repetition and base cycle, a dynamic frame
   that fits the dynamic segment
   (:meth:`~repro.network.flexray.FlexRayConfig.minislots_for`), or a
   major frame long enough for its partitions are written once, there.
4. **Fault scenarios** are checked on the built system by
   :func:`repro.verify.resilience.scenario_problems` (kind, target,
   required subsystem, the 1 s cap, the guaranteed-detection floor).

A document that validates therefore also builds.

:func:`model_digest` is the traceability anchor: a SHA-256 over the
canonical JSON form (sorted keys, no whitespace).  Two documents with
the same digest describe byte-identically the same system; every
derived artifact — verification reports, corpus entries, generated
views — can cite it (the MBSE sync-hash pattern).
"""

from __future__ import annotations

from repro.digest import canonical_digest
from repro.errors import ConfigurationError
from repro.records import check_record, check_records

#: Magic tag every model document carries in its ``format`` field.
FORMAT = "repro.model"
#: The version this build writes.
FORMAT_VERSION = 1
#: The versions this build reads.
SUPPORTED_VERSIONS = (1,)

#: Top-level sections every document must carry (a missing subsystem
#: is declared ``null`` / empty, never omitted).
SECTIONS = ("meta", "osek", "com", "network", "resilience")

#: Reserved network sections: key required, only ``null`` accepted.
RESERVED_NETWORKS = ("ttp", "tte")

SCHEDULERS = ("fixed-priority", "tdma")


class ModelValidationError(ConfigurationError):
    """A model document failed validation; ``problems`` lists every
    ``"<path>: <message>"`` row (the exception text joins them)."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        summary = "; ".join(self.problems[:3])
        if len(self.problems) > 3:
            summary += f"; ... ({len(self.problems)} problems)"
        super().__init__(f"invalid model document: {summary}")


def is_model_document(data) -> bool:
    """True when ``data`` looks like a model document (its ``format``
    tag matches), regardless of whether it validates."""
    return isinstance(data, dict) and data.get("format") == FORMAT


# ----------------------------------------------------------------------
# record tables
# ----------------------------------------------------------------------
#: One layout per record: every field and its JSON type.
TASK = {"name": "str", "wcet": "int", "period": "int", "offset": "int",
        "deadline": "int|null", "priority": "int",
        "partition": "str|null", "max_activations": "int",
        "budget": "int|null", "jitter": "int", "bcet": "int|null",
        "criticality": "str"}
OSEK = {"ecus": "object"}
FP_ECU = {"scheduler": "str", "tasks": "list"}
TDMA_ECU = {"scheduler": "str", "partitions": "[str]",
            "major_frame": "int", "tasks": "list"}
RESOURCE = {"ceiling": "int"}
CRITICAL_SECTION = {"task": "str", "resource": "str", "pre": "int",
                    "duration": "int", "post": "int"}
COM = {"frames": "list", "chains": "list"}
COM_FRAME = {"ipdu": "object", "period": "int", "sender": "str"}
IPDU = {"name": "str", "size_bytes": "int", "mappings": "list"}
SIGNAL_MAPPING = {"signal": "object", "start_bit": "int",
                  "update_bit": "int|null"}
SIGNAL = {"name": "str", "width_bits": "int", "initial": "int",
          "transfer": "str", "timeout": "int|null"}
E2E_CHAIN = {"producer": "str", "producer_ecu": "str", "consumer": "str",
             "consumer_ecu": "str", "signal_name": "str",
             "signal_bits": "int", "pdu_name": "str", "period": "int",
             "data_id": "int", "counter_bits": "int",
             "max_delta_counter": "int", "timeout": "int"}
NETWORK = {"can": "object|null", "flexray": "object|null"}
CAN = {"bitrate_bps": "int", "frame_specs": "list"}
FRAME_SPEC = {"name": "str", "can_id": "int", "dlc": "int", "period": "int",
              "deadline": "int|null", "extended": "bool", "jitter": "int"}
FLEXRAY = {"config": "object", "nodes": "[str]", "static_writers": "list",
           "dynamic_writers": "list"}
FLEXRAY_CONFIG = {"slot_length": "int", "n_static_slots": "int",
                  "minislot_length": "int", "n_minislots": "int",
                  "nit_length": "int", "bitrate_bps": "int"}
STATIC_WRITER = {"slot": "int", "node": "str", "frame_name": "str",
                 "base_cycle": "int", "repetition": "int", "period": "int",
                 "offset": "int"}
DYNAMIC_WRITER = {"name": "str", "frame_id": "int", "size_bytes": "int",
                  "node": "str", "period": "int", "offset": "int"}
RESILIENCE = {"scenarios": "list"}
FAULT_SCENARIO = {"kind": "str", "start": "int", "duration": "int",
                  "target": "str"}


def _duplicates(values) -> list:
    values = list(values)
    return sorted({v for v in values if values.count(v) > 1})


# ----------------------------------------------------------------------
# references and cross-record rules
# ----------------------------------------------------------------------
def _validate_osek(osek, problems: list[str]) -> dict[str, set]:
    """Validate ``osek``; returns {fixed-priority ECU: task names}."""
    fp_tasks: dict[str, set] = {}
    if not check_record("osek", osek, OSEK, problems):
        return fp_tasks
    owner: dict[str, str] = {}      # task name -> its ECU
    priority: dict[str, int] = {}   # fixed-priority task -> priority
    tdma_ecus = []
    for name, ecu in sorted(osek["ecus"].items()):
        path = f"osek.ecus.{name}"
        tdma = isinstance(ecu, dict) and ecu.get("scheduler") == "tdma"
        if not check_record(path, ecu, TDMA_ECU if tdma else FP_ECU,
                            problems):
            continue
        if ecu["scheduler"] not in SCHEDULERS:
            problems.append(
                f"{path}: unknown scheduler {ecu['scheduler']!r}; "
                f"expected one of {', '.join(SCHEDULERS)}")
            continue
        tasks = check_records(f"{path}.tasks", ecu["tasks"], TASK,
                              problems)
        levels: dict[int, str] = {}     # priority -> task, on this ECU
        for where, task in tasks:
            if not task["name"]:
                problems.append(f"{where}: task name must not be empty")
            if task["name"] in owner:
                problems.append(f"{where}: duplicate task name "
                                f"{task['name']!r} (also on ECU "
                                f"{owner[task['name']]!r})")
            if task["priority"] in levels:
                problems.append(
                    f"{where}: task priorities not unique on ECU {name!r} "
                    f"({task['priority']} is also "
                    f"{levels[task['priority']]!r})")
            owner.setdefault(task["name"], name)
            levels.setdefault(task["priority"], task["name"])
        if not tdma:
            fp_tasks[name] = {task["name"] for _, task in tasks}
            priority.update((t["name"], t["priority"]) for _, t in tasks)
            continue
        tdma_ecus.append(name)
        for where, task in tasks:
            if task["partition"] not in ecu["partitions"]:
                problems.append(
                    f"{where}: partition {task['partition']!r} is not one "
                    f"of this ECU's partitions {sorted(ecu['partitions'])}")
        populated = {task["partition"] for _, task in tasks}
        for partition in ecu["partitions"]:
            if partition not in populated:
                problems.append(f"{path}: partition {partition!r} has no "
                                f"tasks")
    if len(tdma_ecus) > 1:
        problems.append(
            f"osek.ecus: at most one tdma ECU is supported, got "
            f"{len(tdma_ecus)} ({', '.join(tdma_ecus)})")

    resources = osek.get("resources") or {}
    if not isinstance(resources, dict):
        problems.append("osek.resources: expected an object")
        resources = {}
    ceilings = {name: resource["ceiling"]
                for name, resource in sorted(resources.items())
                if check_record(f"osek.resources.{name}", resource,
                                RESOURCE, problems)}
    for where, section in check_records(
            "osek.critical_sections", osek.get("critical_sections") or [],
            CRITICAL_SECTION, problems):
        task, resource = section["task"], section["resource"]
        if task not in priority:
            problems.append(f"{where}: task {task!r} is not defined on "
                            f"any fixed-priority ECU")
        if resource not in ceilings:
            problems.append(f"{where}: resource {resource!r} is not "
                            f"declared in osek.resources")
        elif task in priority and ceilings[resource] < priority[task]:
            problems.append(
                f"osek.resources.{resource}: ceiling {ceilings[resource]} "
                f"below the priority {priority[task]} of its user {task!r}")
        parts = (section["pre"], section["duration"], section["post"])
        if min(parts) < 0 or not any(parts):
            problems.append(f"{where}: pre, duration and post must be "
                            f"non-negative and not all zero")
    return fp_tasks


def _validate_network(network, problems: list[str]) -> dict[str, dict]:
    """Validate ``network``; returns the CAN frame specs by name."""
    if isinstance(network, dict):
        for reserved in RESERVED_NETWORKS:
            if reserved not in network:
                problems.append(f"network.{reserved}: reserved section "
                                f"must be present (use null)")
            elif network[reserved] is not None:
                problems.append(
                    f"network.{reserved}: {reserved.upper()} schedules "
                    f"are reserved in format_version {FORMAT_VERSION}; "
                    f"only null is accepted")
    if not check_record("network", network, NETWORK, problems):
        return {}

    specs: dict[str, dict] = {}
    can = network["can"]
    if can is not None and check_record("network.can", can, CAN, problems):
        if can["bitrate_bps"] < 1:
            problems.append("network.can: bitrate_bps must be a "
                            "positive integer")
        shaped = [spec for _, spec in check_records(
            "network.can.frame_specs", can["frame_specs"], FRAME_SPEC,
            problems)]
        specs = {spec["name"]: spec for spec in shaped}
        for dup in _duplicates(spec["name"] for spec in shaped):
            problems.append(f"network.can.frame_specs: duplicate frame "
                            f"name {dup!r}")
        for dup in _duplicates(spec["can_id"] for spec in shaped):
            problems.append(f"network.can.frame_specs: duplicate CAN "
                            f"identifier {dup:#x}")

    flexray = network["flexray"]
    if flexray is None or not check_record("network.flexray", flexray,
                                           FLEXRAY, problems):
        return specs
    config, nodes = flexray["config"], flexray["nodes"]
    n_slots = None
    if check_record("network.flexray.config", config, FLEXRAY_CONFIG,
                    problems):
        n_slots = config["n_static_slots"]
        for knob in ("minislot_length", "n_minislots", "nit_length",
                     "bitrate_bps"):
            if config[knob] < 1:
                problems.append(f"network.flexray.config: {knob} must be "
                                f"a positive integer")
    for dup in _duplicates(nodes):
        problems.append(f"network.flexray.nodes: duplicate node {dup!r}")
    static = check_records("network.flexray.static_writers",
                           flexray["static_writers"], STATIC_WRITER,
                           problems)
    dynamic = check_records("network.flexray.dynamic_writers",
                            flexray["dynamic_writers"], DYNAMIC_WRITER,
                            problems)
    for where, writer in static + dynamic:
        if writer["node"] not in nodes:
            problems.append(f"{where}: node {writer['node']!r} is not in "
                            f"the cluster's node list")
        if not 0 <= writer["offset"] < writer["period"]:
            problems.append(f"{where}: needs 0 <= offset < period (offset "
                            f"{writer['offset']}, period {writer['period']})")
    for where, writer in static:
        if n_slots is not None and not 1 <= writer["slot"] <= n_slots:
            problems.append(f"{where}: slot {writer['slot']} outside the "
                            f"static segment (1..{n_slots})")
    for dup in _duplicates(writer["slot"] for _, writer in static):
        problems.append(f"network.flexray.static_writers: duplicate "
                        f"static slot {dup}")
    for dup in _duplicates(writer["frame_id"] for _, writer in dynamic):
        problems.append(f"network.flexray.dynamic_writers: duplicate "
                        f"dynamic frame id {dup}")
    return specs


def _validate_com(com, problems: list[str], fp_tasks: dict[str, set],
                  specs: dict[str, dict], has_can: bool) -> None:
    if not check_record("com", com, COM, problems):
        return
    mapped: dict[str, str] = {}     # signal name -> its I-PDU
    pdus: set = set()
    for where, frame in check_records("com.frames", com["frames"],
                                      COM_FRAME, problems):
        if frame["sender"] not in fp_tasks:
            problems.append(f"{where}: sender {frame['sender']!r} is not "
                            f"a fixed-priority ECU")
        ipdu = frame["ipdu"]
        if not check_record(f"{where}.ipdu", ipdu, IPDU, problems):
            continue
        name = ipdu["name"]
        spec = specs.get(name)
        if spec is None:
            problems.append(
                f"{where}: I-PDU {name!r} has no matching network.can "
                f"frame spec (signal->frame packing reference is "
                f"dangling)")
        elif ipdu["size_bytes"] > spec["dlc"]:
            problems.append(f"{where}: I-PDU {name!r} payload "
                            f"({ipdu['size_bytes']}B) exceeds dlc "
                            f"{spec['dlc']}")
        if spec is not None and frame["period"] != spec["period"]:
            problems.append(f"{where}: period {frame['period']} != frame "
                            f"spec period {spec['period']}")
        if name in pdus:
            problems.append(f"{where}: duplicate I-PDU name {name!r}")
        pdus.add(name)
        for at, mapping in check_records(f"{where}.ipdu.mappings",
                                         ipdu["mappings"], SIGNAL_MAPPING,
                                         problems):
            signal = mapping["signal"]
            if not check_record(f"{at}.signal", signal, SIGNAL, problems):
                continue
            first = mapped.setdefault(signal["name"], name)
            if first != name:
                problems.append(f"{at}: signal {signal['name']!r} is "
                                f"already mapped into I-PDU {first!r}")

    chains = com["chains"]
    if len(chains) > 1:
        problems.append(f"com.chains: at most one E2E chain is "
                        f"supported, got {len(chains)}")
    for where, chain in check_records("com.chains", chains, E2E_CHAIN,
                                      problems):
        if not has_can:
            problems.append(f"{where}: an E2E chain needs a CAN bus "
                            f"(network.can is null)")
        for role in ("producer", "consumer"):
            ecu = chain[f"{role}_ecu"]
            task = chain[role]
            if ecu not in fp_tasks:
                problems.append(
                    f"{where}: {role} ECU {ecu!r} is not a "
                    f"fixed-priority ECU")
            elif task not in fp_tasks[ecu]:
                problems.append(
                    f"{where}: {role} task {task!r} is not a task of "
                    f"ECU {ecu!r}")
        pdu, signal = chain["pdu_name"], chain["signal_name"]
        if pdu not in specs:
            problems.append(
                f"{where}: chain PDU {pdu!r} has no matching "
                f"network.can frame spec")
        if pdu in pdus:
            problems.append(f"{where}: chain PDU {pdu!r} is also a "
                            f"com.frames I-PDU")
        if signal in mapped:
            problems.append(f"{where}: chain signal {signal!r} is already "
                            f"mapped into I-PDU {mapped[signal]!r}")
        if chain["period"] < 1:
            problems.append(f"{where}: period must be a positive "
                            f"integer")
        elif chain["timeout"] < chain["period"]:
            problems.append(f"{where}: timeout below the chain period")


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _build_problems(doc: dict) -> list[str]:
    """Parts 3 and 4: build the system a well-shaped, well-referenced
    document describes; a constructor's refusal is one row, else every
    fault scenario's problems are."""
    from repro.model.build import at_path, system_from_model
    from repro.verify.resilience import scenario_problems

    try:
        system = system_from_model(doc)
        if system.chain is not None:
            with at_path("com.chains[0]"):
                system.chain.pdu()
        if system.tdma is not None:
            with at_path(f"osek.ecus.{system.tdma.ecu}"):
                system.tdma.scheduler()
    except ConfigurationError as exc:
        return [str(exc)]
    return [f"resilience.scenarios[{i}]: {problem}"
            for i, scenario in enumerate(system.faults)
            for problem in scenario_problems(system, scenario)]


def validate_document(doc) -> list[str]:
    """Every problem of ``doc``, as readable ``"<path>: <message>"``
    rows; an empty list means the document is valid (and builds)."""
    if not isinstance(doc, dict):
        return ["model: document must be a JSON object"]
    problems: list[str] = []
    if doc.get("format") != FORMAT:
        problems.append(
            f"format: expected {FORMAT!r}, got {doc.get('format')!r} "
            f"(is this a repro.model document?)")
    version = doc.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        problems.append(
            f"format_version: unknown version {version!r}; this build "
            f"reads version(s) "
            f"{', '.join(str(v) for v in SUPPORTED_VERSIONS)}")
        # The rest of the layout may legitimately differ in an unknown
        # version — stop here rather than emit misleading noise.
        return problems
    for section in SECTIONS:
        if section not in doc:
            problems.append(f"missing required section {section!r}")
    if problems:
        return problems

    meta = doc["meta"]
    if not isinstance(meta, dict):
        problems.append("meta: expected an object")
    elif not (isinstance(meta.get("name"), str) and meta["name"]):
        problems.append("meta.name: expected a non-empty string")
    fp_tasks = _validate_osek(doc["osek"], problems)
    specs = _validate_network(doc["network"], problems)
    network = doc["network"] if isinstance(doc["network"], dict) else {}
    _validate_com(doc["com"], problems, fp_tasks, specs,
                  isinstance(network.get("can"), dict))
    if check_record("resilience", doc["resilience"], RESILIENCE, problems):
        check_records("resilience.scenarios",
                      doc["resilience"]["scenarios"], FAULT_SCENARIO,
                      problems)
    return problems or _build_problems(doc)


def ensure_valid(doc) -> None:
    """Raise :class:`ModelValidationError` unless ``doc`` validates."""
    problems = validate_document(doc)
    if problems:
        raise ModelValidationError(problems)


# ----------------------------------------------------------------------
# digest
# ----------------------------------------------------------------------
def model_digest(doc: dict) -> str:
    """Deterministic SHA-256 over the canonical form — the model's
    traceability anchor (cited by reports and generated views)."""
    return canonical_digest(doc)
