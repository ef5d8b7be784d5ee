"""Model-driven pytest generation with SHA-256 sync tracking.

The scenario library (:mod:`repro.model.scenarios`) is only as
trustworthy as the tests that pin it — and hand-written matrix tests
silently drift when a scenario document changes.  This module compiles
every model document into a **deterministic pytest module**: one
requirement-style test function per contract the model must honour
(schema validity, digest sync, round-trip identity, verify soundness,
trace invariants, resilience verdicts, DAQ measurement-digest
stability, structure inventory), each carrying a ``REQ-<MODEL>-NNN``
identifier and a docstring traced back to the model section it
exercises — the ICDEV requirement→test mapping applied to this
library's exchange format.

Sync tracking is the point: every generated file is recorded in a
**manifest** (``tests/generated/manifest.json``) mapping the source
model's :func:`~repro.model.schema.model_digest` to the generated
file's SHA-256.  ``repro model testgen --check`` re-renders the suite
in memory and compares three ways —

* rendered content vs the manifest entry (**STALE**: the model or the
  generator changed without regeneration);
* the manifest entry vs the bytes on disk (**EDITED**: a generated
  file was modified by hand);
* the rendered module set vs the files on disk (**MISSING** /
  **EXTRA**);

— so CI fails whenever either side of the model↔test mapping moves
alone.  Generation is byte-deterministic: no timestamps, sorted
iteration everywhere, and the behavioural pins (DAQ digest, structure
counts, resilience scenario count) are computed from the same
simulated-time machinery the generated tests re-run.

Exit-code contract (matching ``repro model``): ``0`` in sync / files
written, ``1`` drift or an invalid model, ``2`` an unreadable input.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.digest import sha256
from repro.errors import ConfigurationError
from repro.model import schema
from repro.model.build import Model
from repro.model.scenarios import SCENARIO_FILES, load_ref, scenario_path

#: Bumping this forces every generated module STALE (regenerate).
GENERATOR_VERSION = 1

#: Where the committed suite lives (relative to the repo root).
DEFAULT_OUTPUT_DIR = os.path.join("tests", "generated")

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "repro.model.testgen/manifest"
MANIFEST_VERSION = 1

#: Sampling parameters baked into the DAQ-stability requirement: one
#: millisecond period over a twenty-millisecond horizon of simulated
#: time (literals are inlined into the generated module so it stays
#: self-contained).
DAQ_PERIOD_NS = 1_000_000
DAQ_HORIZON_NS = 20_000_000

#: Tests emitted per model (pinned by the manifest's ``tests`` field).
TESTS_PER_MODEL = 8


def _slug(name: str) -> str:
    """Identifier-safe slug of a model name (``adas-fusion`` ->
    ``adas_fusion``)."""
    slug = re.sub(r"[^0-9A-Za-z]+", "_", name).strip("_").lower()
    if not slug:
        raise ConfigurationError(
            f"model name {name!r} reduces to an empty slug")
    return slug


def file_sha256(content: str) -> str:
    """SHA-256 of a generated module's exact byte content."""
    return sha256(content.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GeneratedModule:
    """One rendered pytest module and its provenance."""

    filename: str
    source: str        #: the ref this was generated from (name or path)
    source_path: str   #: the document file behind the ref
    model_digest: str
    content: str

    @property
    def sha256(self) -> str:
        return file_sha256(self.content)

    def manifest_entry(self) -> dict:
        return {
            "file": self.filename,
            "source": self.source,
            "source_path": self.source_path,
            "model_digest": self.model_digest,
            "sha256": self.sha256,
            "tests": TESTS_PER_MODEL,
        }


# ----------------------------------------------------------------------
# facts: everything the generated module pins as a literal
# ----------------------------------------------------------------------
def _structure(system) -> dict:
    """The inventory literals of one compiled system."""
    tdma_tasks = 0 if system.tdma is None else len(system.tdma.tasks)
    return {
        "ecus": len(system.tasksets) + (0 if system.tdma is None else 1),
        "tasks": sum(len(ts) for ts in system.tasksets.values())
        + tdma_tasks,
        "can_frames": 0 if system.can is None else len(system.can.frames),
        "has_flexray": system.flexray is not None,
        "has_chain": system.chain is not None,
        "declared_faults": len(system.faults),
    }


def model_facts(model: Model) -> dict:
    """Every behavioural pin the generated module embeds: structure
    counts, the resilience scenario count (declared or the standard
    matrix), and the DAQ measurement digest at the baked-in sampling
    parameters.  Deterministic — same model, same facts."""
    from repro.meas.batch import measure_models
    from repro.verify.resilience import standard_scenarios

    system = model.build()
    facts = _structure(system)
    facts["resilience_scenarios"] = (
        len(system.faults) if system.faults
        else len(standard_scenarios(system)))
    report = measure_models([model], period=DAQ_PERIOD_NS,
                            horizon=DAQ_HORIZON_NS)
    facts["daq_samples"] = report.sample_count
    facts["daq_digest"] = report.digest()
    return facts


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _req(name: str, number: int) -> tuple[str, str]:
    """(function-name prefix, requirement id) for test ``number``."""
    upper = re.sub(r"[^0-9A-Za-z]+", "-", name).strip("-").upper()
    return (f"test_REQ_{_slug(name).upper()}_{number:03d}",
            f"REQ-{upper}-{number:03d}")


def _loader_lines(source: str, source_path: str,
                  bundled: bool) -> list[str]:
    if bundled:
        return [
            f'SOURCE = "{source}"  # bundled scenario name',
            "",
            "",
            "def _document() -> dict:",
            "    from repro.model.scenarios import scenario_path",
            "    return load_document(scenario_path(SOURCE))",
        ]
    return [
        f"SOURCE = {source_path!r}  # model document path",
        "",
        "",
        "def _document() -> dict:",
        "    return load_document(SOURCE)",
    ]


def render_module(model: Model, source: str, source_path: str,
                  bundled: bool) -> str:
    """The full pytest module for one model, as a deterministic
    string (byte-identical across runs for the same model + code)."""
    name = model.name
    digest = model.digest()
    facts = model_facts(model)
    slug = _slug(name)
    fault_origin = ("declared in resilience.scenarios"
                    if facts["declared_faults"]
                    else "the standard fault matrix")

    def test(number: int, label: str, sections: str, doc: str,
             body: list[str]) -> list[str]:
        fn, req = _req(name, number)
        head = [f"def {fn}_{label}():",
                f'    """{req} [{sections}] — {doc}"""']
        return ["", ""] + head + body

    lines = [
        '"""GENERATED TEST SUITE — DO NOT EDIT BY HAND.',
        "",
        f"Source model : {name}",
        f"Source file  : {source_path}",
        f"Model digest : sha256:{digest}",
        f"Generator    : repro.model.testgen v{GENERATOR_VERSION}",
        "",
        "Regenerate after any intentional model or behaviour change:",
        "",
        "    PYTHONPATH=src python -m repro model testgen",
        "",
        "Drift between the model and this suite is detected by the CI",
        "gate (testgen-smoke):",
        "",
        "    PYTHONPATH=src python -m repro model testgen --check",
        "",
        "The sync manifest next to this file maps the source model",
        "digest to this file's SHA-256.",
        '"""',
        "",
        "import functools",
        "",
        "from repro.model.build import Model, load_document",
        "from repro.model.schema import model_digest, validate_document",
        "",
        f'MODEL_DIGEST = "{digest}"',
    ]
    lines += _loader_lines(source, source_path, bundled)
    lines += [
        "",
        "",
        "@functools.lru_cache(maxsize=None)",
        "def _model() -> Model:",
        "    return Model.from_document(_document(), validate=False)",
    ]

    lines += test(
        1, "schema_valid", "meta, osek, com, network, resilience",
        f"the committed document validates against format_version "
        f"{schema.FORMAT_VERSION} with zero problems.",
        ["    assert validate_document(_document()) == []"])

    lines += test(
        2, "source_digest_in_sync", "meta",
        "the committed document is byte-for-byte the one this suite\n"
        "    was generated from (the sync anchor — on mismatch,\n"
        "    regenerate with `repro model testgen`).",
        ["    assert model_digest(_document()) == MODEL_DIGEST"])

    lines += test(
        3, "roundtrip_digest_identical", "osek, com, network",
        "model -> live system -> model round-trips to the identical\n"
        "    digest: the exchange format loses nothing any executable\n"
        "    view needs.",
        ["    assert _model().roundtrip().digest() == MODEL_DIGEST"])

    lines += test(
        4, "structure_inventory", "osek, com, network, resilience",
        f"the compiled system exposes exactly the modelled inventory:\n"
        f"    {facts['ecus']} ECU(s), {facts['tasks']} task(s), "
        f"{facts['can_frames']} CAN frame(s),\n"
        f"    flexray={facts['has_flexray']}, "
        f"chain={facts['has_chain']}, "
        f"{facts['declared_faults']} declared fault scenario(s).",
        ["    system = _model().build()",
         "    tdma_tasks = (0 if system.tdma is None",
         "                  else len(system.tdma.tasks))",
         "    ecus = len(system.tasksets) + \\",
         "        (0 if system.tdma is None else 1)",
         "    tasks = sum(len(ts) for ts in system.tasksets.values()) \\",
         "        + tdma_tasks",
         f"    assert ecus == {facts['ecus']}",
         f"    assert tasks == {facts['tasks']}",
         "    frames = (0 if system.can is None",
         "              else len(system.can.frames))",
         f"    assert frames == {facts['can_frames']}",
         f"    assert (system.flexray is not None) is "
         f"{facts['has_flexray']}",
         f"    assert (system.chain is not None) is "
         f"{facts['has_chain']}",
         f"    assert len(system.faults) == {facts['declared_faults']}"])

    lines += test(
        5, "verify_sound", "osek, com, network",
        "every analytic bound holds against the simulated\n"
        "    observation: 0 soundness violations, 0 trace-invariant\n"
        "    violations, no declined layer.",
        ["    from repro.model.build import verify_models",
         "    report = verify_models([_model()])",
         "    assert report.soundness_violations == 0",
         "    assert report.invariant_violations == 0",
         "    assert report.passed",
         "    assert all(not v.declined for v in report.verdicts)"])

    lines += test(
        6, "trace_invariants_hold", "osek, network",
        "replaying the nominal simulation trace through every\n"
        "    pluggable invariant (CPU overlap, TDMA windows, priority\n"
        "    ceiling, alive counter, E2E containment) yields zero\n"
        "    violations.",
        ["    from repro.verify import (InvariantChecker, build_system,",
         "                              make_invariants)",
         "    system = _model().build()",
         "    built = build_system(system)",
         "    built.sim.run_until(built.horizon)",
         "    checker = InvariantChecker(make_invariants(system))",
         "    assert checker.run(built.trace) == []"])

    lines += test(
        7, "resilience_verdicts", "resilience",
        f"all {facts['resilience_scenarios']} fault scenario(s) "
        f"({fault_origin}) are\n"
        "    detected within the analytic bound, contained, and\n"
        "    recovered: 0 unmet obligations.",
        ["    from repro.model.build import resilience_models",
         "    report = resilience_models([_model()])",
         "    assert report.unmet == 0",
         "    assert report.passed",
         "    scenarios = sum(len(row['verdicts'])",
         "                    for row in report.rows)",
         f"    assert scenarios == {facts['resilience_scenarios']}"])

    lines += test(
        8, "daq_measurement_digest_stable", "meas",
        f"sampling the default DAQ list (period "
        f"{DAQ_PERIOD_NS} ns, horizon\n"
        f"    {DAQ_HORIZON_NS} ns of simulated time) reproduces the\n"
        "    generation-time measurement digest byte-for-byte.",
        ["    from repro.meas.batch import measure_models",
         f"    report = measure_models([_model()], "
         f"period={DAQ_PERIOD_NS},",
         f"                            horizon={DAQ_HORIZON_NS})",
         f"    assert report.sample_count == {facts['daq_samples']}",
         "    assert report.digest() == \\",
         f"        \"{facts['daq_digest']}\""])

    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# planning: refs -> rendered modules
# ----------------------------------------------------------------------
def _resolve(ref: str) -> tuple[Model, str, bool]:
    """(validated model, document path, is-bundled) behind ``ref``.

    Only a model document compiles: the generated ``_document()``
    reloads the file as it is, so anything else — a counterexample
    payload included — raises
    :class:`~repro.model.schema.ModelValidationError`.  Unreadable
    inputs raise :class:`ConfigurationError` (the CLI maps the two to
    exit 1 / 2)."""
    model = Model.from_document(load_ref(ref))
    if ref not in SCENARIO_FILES:
        return model, ref, False
    path = scenario_path(ref)
    relative = os.path.relpath(path)
    return model, (relative if not relative.startswith("..") else path), True


def plan_modules(refs: Optional[Sequence[str]] = None
                 ) -> list[GeneratedModule]:
    """Render every requested model (default: all bundled scenarios)
    in memory, sorted by generated filename."""
    refs = list(refs) if refs else sorted(SCENARIO_FILES)
    modules = []
    seen: dict[str, str] = {}
    for ref in refs:
        model, source_path, bundled = _resolve(ref)
        filename = f"test_gen_{_slug(model.name)}.py"
        if filename in seen:
            raise ConfigurationError(
                f"{ref}: generated module {filename!r} collides with "
                f"{seen[filename]!r} (model names must have distinct "
                f"slugs)")
        seen[filename] = ref
        modules.append(GeneratedModule(
            filename, ref, source_path, model.digest(),
            render_module(model, ref, source_path, bundled)))
    return sorted(modules, key=lambda m: m.filename)


def build_manifest(modules: Sequence[GeneratedModule]) -> dict:
    return {
        "format": MANIFEST_FORMAT,
        "format_version": MANIFEST_VERSION,
        "generator_version": GENERATOR_VERSION,
        "entries": [m.manifest_entry() for m in modules],
    }


def manifest_json(manifest: dict) -> str:
    """Canonical on-disk form of the manifest (stable across runs)."""
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# write + check
# ----------------------------------------------------------------------
def write_suite(refs: Optional[Sequence[str]] = None,
                output_dir: str = DEFAULT_OUTPUT_DIR
                ) -> list[GeneratedModule]:
    """Generate (or regenerate) the suite and its manifest on disk.

    Stale ``test_gen_*.py`` files from removed models are deleted so
    the directory always mirrors the manifest exactly."""
    modules = plan_modules(refs)
    os.makedirs(output_dir, exist_ok=True)
    keep = {m.filename for m in modules} | {MANIFEST_NAME}
    for name in sorted(os.listdir(output_dir)):
        if name.startswith("test_gen_") and name.endswith(".py") \
                and name not in keep:
            os.remove(os.path.join(output_dir, name))
    for module in modules:
        with open(os.path.join(output_dir, module.filename), "w",
                  encoding="utf-8") as handle:
            handle.write(module.content)
    with open(os.path.join(output_dir, MANIFEST_NAME), "w",
              encoding="utf-8") as handle:
        handle.write(manifest_json(build_manifest(modules)))
    return modules


def _disk_sha(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as handle:
            return sha256(handle.read()).hexdigest()
    except OSError:
        return None


def check_suite(refs: Optional[Sequence[str]] = None,
                output_dir: str = DEFAULT_OUTPUT_DIR
                ) -> tuple[bool, list[str]]:
    """Compare the committed suite against an in-memory regeneration.

    Returns ``(in_sync, report lines)``.  Problems are reported per
    file as STALE / EDITED / MISSING / EXTRA (see module docstring);
    unreadable or invalid models raise and are mapped to exit codes by
    the CLI."""
    modules = plan_modules(refs)
    lines: list[str] = []
    problems = 0

    manifest_path = os.path.join(output_dir, MANIFEST_NAME)
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError:
        return False, [f"{manifest_path}: MISSING — no sync manifest; "
                       f"run `repro model testgen`"]
    except json.JSONDecodeError as exc:
        return False, [f"{manifest_path}: EDITED — manifest is not "
                       f"valid JSON ({exc}); run `repro model testgen`"]
    entries = {e.get("file"): e for e in manifest.get("entries", [])}
    if manifest.get("generator_version") != GENERATOR_VERSION:
        lines.append(
            f"{manifest_path}: STALE — generated by generator "
            f"v{manifest.get('generator_version')}, this build is "
            f"v{GENERATOR_VERSION}; run `repro model testgen`")
        problems += 1

    for module in modules:
        path = os.path.join(output_dir, module.filename)
        entry = entries.pop(module.filename, None)
        disk = _disk_sha(path)
        if entry is None or disk is None:
            lines.append(f"{module.source}: MISSING — {path} is not "
                         f"tracked/present; run `repro model testgen`")
            problems += 1
            continue
        if entry.get("sha256") != module.sha256 \
                or entry.get("model_digest") != module.model_digest:
            if entry.get("model_digest") != module.model_digest:
                why = (f"the model changed (digest "
                       f"{str(entry.get('model_digest'))[:12]} -> "
                       f"{module.model_digest[:12]})")
            else:
                why = ("generated behaviour pins changed (generator "
                       "or library behaviour moved)")
            lines.append(f"{module.source}: STALE — {why} without "
                         f"regeneration; run `repro model testgen`")
            problems += 1
            continue
        if disk != entry.get("sha256"):
            lines.append(
                f"{module.source}: EDITED — {path} was modified by "
                f"hand (sha {disk[:12]} != manifest "
                f"{entry['sha256'][:12]}); never edit generated "
                f"files, change the model and regenerate")
            problems += 1
            continue
        lines.append(f"{module.source}: OK {module.filename} "
                     f"model={module.model_digest[:12]} "
                     f"file={module.sha256[:12]}")

    for leftover in sorted(entries):
        lines.append(f"{leftover}: EXTRA — tracked in the manifest but "
                     f"not generated from the requested models; run "
                     f"`repro model testgen`")
        problems += 1
    if os.path.isdir(output_dir):
        tracked = {m.filename for m in modules} | set(
            e.get("file") for e in manifest.get("entries", []))
        for name in sorted(os.listdir(output_dir)):
            if name.startswith("test_gen_") and name.endswith(".py") \
                    and name not in tracked:
                lines.append(f"{name}: EXTRA — present in {output_dir} "
                             f"but not in the manifest; run "
                             f"`repro model testgen`")
                problems += 1

    verdict = ("IN SYNC" if problems == 0
               else f"DRIFT ({problems} problem(s))")
    lines.append(f"generated suite: {verdict} "
                 f"({len(modules)} module(s), "
                 f"{len(modules) * TESTS_PER_MODEL} test(s))")
    return problems == 0, lines
