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
unknown versions instead of guessing.  The ``ttp`` / ``tte`` sections
are *reserved* — the key must be present (so a document always names
every subsystem) but only ``null`` is accepted until the corresponding
schedule specs grow an executable view.

:func:`validate_document` performs structural checks (required
sections, field presence, basic types/ranges) and **reference
integrity** — every cross-reference in the document must resolve:

* ``com.frames[*].sender``  → a fixed-priority ECU in ``osek.ecus``;
* ``com.frames[*].ipdu.name`` and ``com.chains[*].pdu_name``
  (signal→frame packing)     → a ``network.can.frame_specs`` entry;
* ``com.chains[*].producer/consumer`` (task→ECU mapping)
                             → a task on the named ECU;
* ``osek.critical_sections[*].task/resource``
                             → a defined task / resource;
* TDMA ``tasks[*].partition`` → the ECU's partition list;
* ``resilience.scenarios[*]`` → the subsystem they inject into.

Every problem is reported as ``"<path>: <message>"`` (e.g.
``com.chains[0]: producer task 'E9.prod' is not a task of ECU 'E0'``)
so a hand-edited scenario file fails with something actionable, never
a ``KeyError`` three layers down.

:func:`model_digest` is the traceability anchor: a SHA-256 over the
canonical JSON form (sorted keys, no whitespace).  Two documents with
the same digest describe byte-identically the same system; every
derived artifact — verification reports, corpus entries, generated
views — can cite it (the MBSE sync-hash pattern).
"""

from __future__ import annotations

from repro.digest import canonical_digest
from repro.errors import ConfigurationError
from repro.verify.generator import SCENARIO_KINDS

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

#: Every field of a serialized task spec (see
#: :func:`repro.model.convert.task_to_dict`).
TASK_FIELDS = ("name", "wcet", "period", "offset", "deadline", "priority",
               "partition", "max_activations", "budget", "jitter", "bcet",
               "criticality")

#: Every field of a serialized E2E chain.
CHAIN_FIELDS = ("producer", "producer_ecu", "consumer", "consumer_ecu",
                "signal_name", "signal_bits", "pdu_name", "period",
                "data_id", "counter_bits", "max_delta_counter", "timeout")

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
# validation
# ----------------------------------------------------------------------
def _is_int(value, minimum=None) -> bool:
    if not isinstance(value, int) or isinstance(value, bool):
        return False
    return minimum is None or value >= minimum


def _check_tasks(path: str, tasks, problems: list[str],
                 partitions=None) -> list[str]:
    """Validate one ECU's task list; returns the task names."""
    names: list[str] = []
    if not isinstance(tasks, list):
        problems.append(f"{path}.tasks: expected a list of tasks")
        return names
    for i, task in enumerate(tasks):
        where = f"{path}.tasks[{i}]"
        if not isinstance(task, dict):
            problems.append(f"{where}: expected a task object")
            continue
        missing = [f for f in TASK_FIELDS if f not in task]
        if missing:
            problems.append(f"{where}: missing task field(s) "
                            f"{', '.join(missing)}")
            continue
        name = task["name"]
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: task name must be a non-empty "
                            f"string")
            continue
        names.append(name)
        if not _is_int(task["wcet"], 1):
            problems.append(f"{where}: wcet must be a positive integer")
        if not _is_int(task["period"], 1):
            problems.append(f"{where}: period must be a positive integer")
        if not _is_int(task["priority"]):
            problems.append(f"{where}: priority must be an integer")
        if partitions is not None \
                and task["partition"] not in partitions:
            problems.append(
                f"{where}: partition {task['partition']!r} is not one "
                f"of this ECU's partitions {sorted(partitions)}")
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        problems.append(f"{path}: duplicate task name(s) "
                        f"{', '.join(duplicates)}")
    return names


def _validate_osek(osek, problems: list[str]):
    """Validate ``osek``; returns ({ecu: set(task names)} for
    fixed-priority ECUs, set of tdma ECU names, resource names)."""
    fp_tasks: dict[str, set] = {}
    tdma_ecus: set = set()
    resources: set = set()
    if not isinstance(osek, dict):
        problems.append("osek: expected an object")
        return fp_tasks, tdma_ecus, resources
    ecus = osek.get("ecus")
    if not isinstance(ecus, dict):
        problems.append("osek.ecus: expected an object mapping ECU "
                        "names to configurations")
        ecus = {}
    for name, ecu in sorted(ecus.items()):
        path = f"osek.ecus.{name}"
        if not isinstance(ecu, dict):
            problems.append(f"{path}: expected an object")
            continue
        scheduler = ecu.get("scheduler")
        if scheduler not in SCHEDULERS:
            problems.append(
                f"{path}: unknown scheduler {scheduler!r}; expected one "
                f"of {', '.join(SCHEDULERS)}")
            continue
        if scheduler == "tdma":
            tdma_ecus.add(name)
            partitions = ecu.get("partitions")
            if not (isinstance(partitions, list) and partitions):
                problems.append(f"{path}: a tdma ECU needs a non-empty "
                                f"'partitions' list")
                partitions = []
            if not _is_int(ecu.get("major_frame"), 1):
                problems.append(f"{path}: a tdma ECU needs a positive "
                                f"integer 'major_frame'")
            _check_tasks(path, ecu.get("tasks", []), problems,
                         partitions=set(partitions))
        else:
            names = _check_tasks(path, ecu.get("tasks", []), problems)
            fp_tasks[name] = set(names)
    if len(tdma_ecus) > 1:
        problems.append(
            f"osek.ecus: at most one tdma ECU is supported, got "
            f"{len(tdma_ecus)} ({', '.join(sorted(tdma_ecus))})")

    for name, resource in sorted((osek.get("resources") or {}).items()):
        if not (isinstance(resource, dict)
                and _is_int(resource.get("ceiling"))):
            problems.append(f"osek.resources.{name}: expected an object "
                            f"with an integer 'ceiling'")
            continue
        resources.add(name)

    all_tasks = {t for names in fp_tasks.values() for t in names}
    for i, section in enumerate(osek.get("critical_sections") or []):
        where = f"osek.critical_sections[{i}]"
        if not isinstance(section, dict):
            problems.append(f"{where}: expected an object")
            continue
        missing = [f for f in ("task", "resource", "pre", "duration",
                               "post") if f not in section]
        if missing:
            problems.append(f"{where}: missing field(s) "
                            f"{', '.join(missing)}")
            continue
        if section["task"] not in all_tasks:
            problems.append(
                f"{where}: task {section['task']!r} is not defined on "
                f"any fixed-priority ECU")
        if section["resource"] not in resources:
            problems.append(
                f"{where}: resource {section['resource']!r} is not "
                f"declared in osek.resources")
    return fp_tasks, tdma_ecus, resources


def _validate_network(network, problems: list[str]):
    """Validate ``network``; returns (CAN frame-spec names,
    FlexRay static frame names)."""
    can_frames: set = set()
    static_frames: set = set()
    if not isinstance(network, dict):
        problems.append("network: expected an object")
        return can_frames, static_frames
    for reserved in RESERVED_NETWORKS:
        if reserved not in network:
            problems.append(f"network.{reserved}: reserved section must "
                            f"be present (use null)")
        elif network[reserved] is not None:
            problems.append(
                f"network.{reserved}: {reserved.upper()} schedules are "
                f"reserved in format_version {FORMAT_VERSION}; only "
                f"null is accepted")

    can = network.get("can")
    if can is not None:
        if not isinstance(can, dict):
            problems.append("network.can: expected an object or null")
        else:
            if not _is_int(can.get("bitrate_bps"), 1):
                problems.append("network.can: bitrate_bps must be a "
                                "positive integer")
            specs = can.get("frame_specs")
            if not isinstance(specs, list):
                problems.append("network.can.frame_specs: expected a "
                                "list")
                specs = []
            names, ids = [], []
            for i, spec in enumerate(specs):
                where = f"network.can.frame_specs[{i}]"
                if not isinstance(spec, dict) or "name" not in spec \
                        or "can_id" not in spec:
                    problems.append(f"{where}: expected an object with "
                                    f"'name' and 'can_id'")
                    continue
                names.append(spec["name"])
                ids.append(spec["can_id"])
                if not _is_int(spec.get("period"), 1):
                    problems.append(f"{where}: period must be a "
                                    f"positive integer")
            for dup in sorted({n for n in names if names.count(n) > 1}):
                problems.append(f"network.can.frame_specs: duplicate "
                                f"frame name {dup!r}")
            for dup in sorted({i for i in ids if ids.count(i) > 1}):
                problems.append(f"network.can.frame_specs: duplicate "
                                f"CAN identifier {dup:#x}")
            can_frames = set(names)

    flexray = network.get("flexray")
    if flexray is not None:
        if not isinstance(flexray, dict):
            problems.append("network.flexray: expected an object or null")
        else:
            config = flexray.get("config")
            if not isinstance(config, dict):
                problems.append("network.flexray.config: expected an "
                                "object")
                config = {}
            for knob in ("slot_length", "n_static_slots",
                         "minislot_length", "n_minislots", "nit_length",
                         "bitrate_bps"):
                if not _is_int(config.get(knob), 1):
                    problems.append(f"network.flexray.config: {knob} "
                                    f"must be a positive integer")
            nodes = flexray.get("nodes")
            if not (isinstance(nodes, list) and nodes):
                problems.append("network.flexray: needs a non-empty "
                                "'nodes' list")
                nodes = []
            n_slots = config.get("n_static_slots")
            for i, writer in enumerate(flexray.get("static_writers")
                                       or []):
                where = f"network.flexray.static_writers[{i}]"
                if not isinstance(writer, dict):
                    problems.append(f"{where}: expected an object")
                    continue
                static_frames.add(writer.get("frame_name"))
                if writer.get("node") not in nodes:
                    problems.append(
                        f"{where}: node {writer.get('node')!r} is not "
                        f"in the cluster's node list")
                if _is_int(n_slots, 1) and not (
                        _is_int(writer.get("slot"), 1)
                        and writer["slot"] <= n_slots):
                    problems.append(
                        f"{where}: slot {writer.get('slot')!r} outside "
                        f"the static segment (1..{n_slots})")
            for i, writer in enumerate(flexray.get("dynamic_writers")
                                       or []):
                where = f"network.flexray.dynamic_writers[{i}]"
                if not isinstance(writer, dict):
                    problems.append(f"{where}: expected an object")
                    continue
                if writer.get("node") not in nodes:
                    problems.append(
                        f"{where}: node {writer.get('node')!r} is not "
                        f"in the cluster's node list")
    return can_frames, static_frames


def _validate_com(com, problems: list[str], fp_tasks, can_frames,
                  has_can: bool):
    if not isinstance(com, dict):
        problems.append("com: expected an object")
        return
    for i, frame in enumerate(com.get("frames") or []):
        where = f"com.frames[{i}]"
        if not (isinstance(frame, dict) and isinstance(
                frame.get("ipdu"), dict)):
            problems.append(f"{where}: expected an object with an "
                            f"'ipdu'")
            continue
        pdu_name = frame["ipdu"].get("name")
        if pdu_name not in can_frames:
            problems.append(
                f"{where}: I-PDU {pdu_name!r} has no matching "
                f"network.can frame spec (signal->frame packing "
                f"reference is dangling)")
        if frame.get("sender") not in fp_tasks:
            problems.append(
                f"{where}: sender {frame.get('sender')!r} is not a "
                f"fixed-priority ECU")
        for j, mapping in enumerate(frame["ipdu"].get("mappings") or []):
            if not (isinstance(mapping, dict)
                    and isinstance(mapping.get("signal"), dict)):
                problems.append(f"{where}.mappings[{j}]: expected a "
                                f"signal mapping object")

    chains = com.get("chains")
    if chains is None:
        problems.append("com.chains: expected a list (use [] for no "
                        "chain)")
        chains = []
    if len(chains) > 1:
        problems.append(f"com.chains: at most one E2E chain is "
                        f"supported, got {len(chains)}")
    for i, chain in enumerate(chains):
        where = f"com.chains[{i}]"
        if not isinstance(chain, dict):
            problems.append(f"{where}: expected an object")
            continue
        missing = [f for f in CHAIN_FIELDS if f not in chain]
        if missing:
            problems.append(f"{where}: missing chain field(s) "
                            f"{', '.join(missing)}")
            continue
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
        if chain["pdu_name"] not in can_frames:
            problems.append(
                f"{where}: chain PDU {chain['pdu_name']!r} has no "
                f"matching network.can frame spec")
        if not _is_int(chain["period"], 1):
            problems.append(f"{where}: period must be a positive "
                            f"integer")
        elif _is_int(chain["timeout"]) \
                and chain["timeout"] < chain["period"]:
            problems.append(f"{where}: timeout below the chain period")


def _validate_resilience(resilience, problems: list[str], has_chain,
                         has_can, static_frames):
    if not isinstance(resilience, dict):
        problems.append("resilience: expected an object")
        return
    scenarios = resilience.get("scenarios")
    if not isinstance(scenarios, list):
        problems.append("resilience.scenarios: expected a list (use [] "
                        "for none)")
        return
    for i, scenario in enumerate(scenarios):
        where = f"resilience.scenarios[{i}]"
        if not isinstance(scenario, dict):
            problems.append(f"{where}: expected an object")
            continue
        kind = scenario.get("kind")
        if kind not in SCENARIO_KINDS:
            problems.append(
                f"{where}: unknown fault kind {kind!r}; expected one "
                f"of {', '.join(SCENARIO_KINDS)}")
            continue
        if not _is_int(scenario.get("start"), 0):
            problems.append(f"{where}: start must be a non-negative "
                            f"integer")
        if not _is_int(scenario.get("duration"), 1):
            problems.append(f"{where}: duration must be a positive "
                            f"integer")
        if kind == "flexray-slot-loss" \
                and scenario.get("target") not in static_frames:
            problems.append(
                f"{where}: target {scenario.get('target')!r} is not a "
                f"FlexRay static writer frame")
        if kind.startswith("e2e-") or kind in ("can-error-burst",
                                               "can-bus-off",
                                               "ecu-reset"):
            if not has_chain:
                problems.append(f"{where}: fault kind {kind!r} injects "
                                f"into the E2E chain, but the model "
                                f"has none")
        if kind == "tdma-babble" and not has_can:
            problems.append(f"{where}: fault kind {kind!r} needs a CAN "
                            f"bus")


def validate_document(doc) -> list[str]:
    """Every problem of ``doc``, as readable ``"<path>: <message>"``
    rows; an empty list means the document is valid."""
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

    fp_tasks, tdma_ecus, _resources = _validate_osek(doc["osek"],
                                                     problems)
    network = doc["network"] if isinstance(doc["network"], dict) else {}
    can_frames, static_frames = _validate_network(doc["network"],
                                                  problems)
    has_can = isinstance(network.get("can"), dict)
    com = doc["com"] if isinstance(doc["com"], dict) else {}
    _validate_com(doc["com"], problems, fp_tasks, can_frames, has_can)
    has_chain = bool(com.get("chains")) and has_can
    _validate_resilience(doc["resilience"], problems, has_chain,
                         has_can, static_frames)
    return problems


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
