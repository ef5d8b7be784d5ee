"""Compile a validated model document into executable views, and back.

``model -> system``: :func:`system_from_model` turns a document into
the live :class:`~repro.verify.generator.GeneratedSystem` every
downstream consumer speaks — the differential oracle
(:func:`repro.verify.oracle.verify_system`), the resilience matrix
(:func:`repro.verify.resilience.verify_resilience`), the fuzzer's
mutation engine and the shrinker.  ``system -> model``:
:func:`model_from_system` is its exact inverse; the pair round-trips
to an identical :func:`~repro.model.schema.model_digest` (pinned by
``tests/test_model_roundtrip.py``).

:class:`Model` wraps a document with the ergonomic face (validate on
construction, digest, build, round-trip, unwrapping of fuzz
counterexample payloads), and :func:`verify_models` /
:func:`resilience_models` fan batches of models out over
:mod:`repro.exec` with the same jobs/resume-invariant digest
guarantees as ``verify_many`` / ``run_resilience``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.model import convert, schema
from repro.verify.generator import CriticalSection, GeneratedSystem

#: ``meta.size`` label stamped on systems built from explicit models
#: (generator size classes are ``small``/``medium``/``large``).
MODEL_SIZE = "model"


# ----------------------------------------------------------------------
# system <-> document
# ----------------------------------------------------------------------
def model_from_system(system: GeneratedSystem,
                      description: str = "") -> dict:
    """The model document describing ``system`` exactly.

    Fixed-priority ECUs become ``scheduler: fixed-priority`` entries,
    the TDMA plan (when present) a ``scheduler: tdma`` entry; packed
    CAN traffic splits into its COM view (``com.frames``: I-PDUs with
    signal mappings) and its network view (``network.can``: frame
    specs with identifiers); the E2E chain and fault scenarios land in
    ``com.chains`` / ``resilience.scenarios``.
    """
    ecus: dict = {}
    for ecu in system.fp_ecus:
        ecus[ecu] = {"scheduler": "fixed-priority",
                     "tasks": [convert.task_to_dict(t)
                               for t in system.tasksets[ecu]]}
    if system.tdma is not None:
        plan = system.tdma
        ecus[plan.ecu] = {"scheduler": "tdma",
                          "partitions": list(plan.partitions),
                          "major_frame": plan.major_frame,
                          "tasks": [convert.task_to_dict(t)
                                    for t in plan.tasks]}
    can = None
    frames: list = []
    if system.can is not None:
        can = {"bitrate_bps": system.can.bitrate_bps,
               "frame_specs": [convert.frame_spec_to_dict(s)
                               for s in system.can.frame_specs]}
        frames = [{"ipdu": convert.ipdu_to_dict(f.ipdu),
                   "period": f.period, "sender": f.sender}
                  for f in system.can.frames]
    return {
        "format": schema.FORMAT,
        "format_version": schema.FORMAT_VERSION,
        "meta": {"name": system.name, "description": description,
                 "seed": system.seed, "size": system.size},
        "osek": {
            "ecus": ecus,
            "resources": {name: {"ceiling": ceiling}
                          for name, ceiling
                          in sorted(system.resources.items())},
            "critical_sections": [
                {"task": s.task, "resource": s.resource, "pre": s.pre,
                 "duration": s.duration, "post": s.post}
                for s in system.critical_sections],
        },
        "com": {
            "frames": frames,
            "chains": ([] if system.chain is None
                       else [convert.chain_to_dict(system.chain)]),
        },
        "network": {
            "can": can,
            "flexray": (None if system.flexray is None
                        else convert.flexray_to_dict(system.flexray)),
            "ttp": None,
            "tte": None,
        },
        "resilience": {
            "scenarios": [convert.fault_to_dict(f)
                          for f in system.faults],
        },
    }


@contextmanager
def at_path(path: str):
    """Prefix a :class:`ConfigurationError` raised inside with the
    document path of the section being built."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def system_from_model(doc: dict) -> GeneratedSystem:
    """The live :class:`GeneratedSystem` a (valid) document describes.

    Callers that load untrusted input go through
    :func:`repro.model.schema.ensure_valid` first (:class:`Model` does
    so on construction); this function assumes the layout is right and
    the references resolve.  A value a constructor refuses raises
    :class:`ConfigurationError` prefixed with its section's path.
    """
    meta = doc["meta"]
    system = GeneratedSystem(meta["name"], meta.get("seed", 0),
                             meta.get("size", MODEL_SIZE))
    osek = doc["osek"]
    for name, ecu in osek["ecus"].items():
        with at_path(f"osek.ecus.{name}"):
            if ecu["scheduler"] == "tdma":
                system.tdma = convert.tdma_from_dict(
                    {"ecu": name, "partitions": ecu["partitions"],
                     "major_frame": ecu["major_frame"],
                     "tasks": ecu["tasks"]})
            else:
                system.tasksets[name] = [convert.task_from_dict(t)
                                         for t in ecu["tasks"]]
    system.resources = {name: data["ceiling"]
                        for name, data
                        in (osek.get("resources") or {}).items()}
    system.critical_sections = [
        CriticalSection(s["task"], s["resource"], s["pre"],
                        s["duration"], s["post"])
        for s in osek.get("critical_sections") or []]
    chains = doc["com"]["chains"]
    if chains:
        system.chain = convert.chain_from_dict(chains[0])
    can = doc["network"]["can"]
    if can is not None:
        with at_path("network.can"):
            system.can = convert.can_from_dict(
                {"bitrate_bps": can["bitrate_bps"],
                 "frames": doc["com"]["frames"],
                 "frame_specs": can["frame_specs"]})
    flexray = doc["network"]["flexray"]
    if flexray is not None:
        with at_path("network.flexray"):
            system.flexray = convert.flexray_from_dict(flexray)
    system.faults = [convert.fault_from_dict(f)
                     for f in doc["resilience"]["scenarios"]]
    return system


# ----------------------------------------------------------------------
# the Model wrapper
# ----------------------------------------------------------------------
def load_document(path: str) -> dict:
    """Parse one JSON document from ``path`` (no validation); an
    unreadable file raises :class:`ConfigurationError`."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read ({exc})")
    except ValueError as exc:
        raise ConfigurationError(f"{path}: not valid JSON ({exc})")


@dataclass(frozen=True)
class Model:
    """One validated model document and its derived views."""

    document: dict

    # -- constructors --------------------------------------------------
    @classmethod
    def from_document(cls, document: dict,
                      validate: bool = True) -> "Model":
        if validate:
            schema.ensure_valid(document)
        return cls(document)

    @classmethod
    def from_system(cls, system: GeneratedSystem,
                    description: str = "") -> "Model":
        return cls(model_from_system(system, description))

    @classmethod
    def from_data(cls, data) -> "Model":
        """A model document, or a fuzz counterexample payload whose
        ``system`` entry is one, as a validated :class:`Model`."""
        if isinstance(data, dict) and not schema.is_model_document(data):
            data = data.get("system")
        if schema.is_model_document(data):
            return cls.from_document(data)
        raise ConfigurationError(
            "unrecognized document: neither a repro.model document nor "
            "a corpus counterexample wrapping one")

    # -- views ---------------------------------------------------------
    @property
    def name(self) -> str:
        return self.document["meta"]["name"]

    @property
    def description(self) -> str:
        return self.document["meta"].get("description", "")

    def digest(self) -> str:
        """The document's deterministic SHA-256 (traceability anchor)."""
        return schema.model_digest(self.document)

    def to_json(self) -> str:
        return json.dumps(self.document, indent=2, sort_keys=True)

    def build(self) -> GeneratedSystem:
        """The live system this model describes."""
        return system_from_model(self.document)

    def roundtrip(self) -> "Model":
        """model -> live system -> model; digest-identical to self
        (the exchange format loses nothing any executable view needs —
        pinned by the scenario round-trip tests)."""
        return Model.from_system(self.build(), self.description)


# ----------------------------------------------------------------------
# batch runners (shared by `repro verify/resilience --model` and
# `repro model scenarios run`)
# ----------------------------------------------------------------------
def verify_models(models: Sequence[Model], jobs: int = 1,
                  checkpoint=None, resume: bool = False, progress=None,
                  daq_period: Optional[int] = None):
    """Differentially verify every model; returns the same
    :class:`~repro.verify.oracle.VerificationReport` as
    ``verify_many`` (jobs=1 and jobs=N digests are identical).
    ``daq_period`` (ns) additionally runs the measurement service's
    default DAQ list per system (``verdict.daq_rows``)."""
    from repro.exec import execute
    from repro.verify.oracle import VerificationReport, verify_plan

    systems = tuple(model.build() for model in models)
    plan = verify_plan("model-verify", f"n={len(systems)}", systems,
                       daq_period, 0)
    results = execute(plan, jobs=jobs, checkpoint=checkpoint,
                      resume=resume, progress=progress)
    return VerificationReport(0, len(systems), MODEL_SIZE, results)


def resilience_models(models: Sequence[Model], jobs: int = 1,
                      checkpoint=None, resume: bool = False,
                      progress=None):
    """Resilience-verify every model; models that declare their own
    ``resilience.scenarios`` run exactly those, models without get the
    standard fault matrix (mirroring ``run_resilience``)."""
    from repro.exec import execute
    from repro.verify.resilience import ResilienceReport, resilience_plan

    systems = [model.build() for model in models]
    plan = resilience_plan(f"model-resilience:n={len(systems)}", systems)
    results = execute(plan, jobs=jobs, checkpoint=checkpoint,
                      resume=resume, progress=progress)
    return ResilienceReport(0, len(systems), MODEL_SIZE, results)
