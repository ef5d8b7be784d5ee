"""Model documents that break one rule of the model validator each.

Every document is a one-edit copy of a bundled scenario whose defect
would otherwise surface only at run time, as a crash inside a worker
or a false verdict.  The CLI contract tests use them to pin exit 1
with a readable message at load time instead.
"""

import json

from repro.model.build import load_document
from repro.model.scenarios import scenario_path


def scenario(name: str) -> dict:
    """A fresh copy of a bundled scenario document."""
    return load_document(scenario_path(name))


def duplicated_static_slot() -> dict:
    doc = scenario("flexray-mixed")
    writers = doc["network"]["flexray"]["static_writers"]
    writers[1]["slot"] = writers[0]["slot"]
    return doc


def static_writer_without_period() -> dict:
    doc = scenario("flexray-mixed")
    del doc["network"]["flexray"]["static_writers"][0]["period"]
    return doc


def chains_not_a_list() -> dict:
    doc = scenario("adas-fusion")
    doc["com"]["chains"] = 5
    return doc


def one_ns_fault_window() -> dict:
    doc = scenario("limp-home")
    fault = doc["resilience"]["scenarios"][1]
    assert fault["kind"] == "e2e-loss"
    fault["duration"] = 1
    return doc


def blocked_dynamic_segment() -> dict:
    """12 minislots of 10 us; frame ID 1 of 254 bytes needs 22 of them,
    so it never transmits and neither does ID 2 behind it."""
    doc = scenario("flexray-mixed")
    flexray = doc["network"]["flexray"]
    flexray["config"]["n_minislots"] = 12
    first, second = flexray["dynamic_writers"][:2]
    assert (first["frame_id"], second["frame_id"]) == (1, 2)
    first["size_bytes"] = 254
    second["size_bytes"] = 4
    return doc


#: File name -> the broken document it holds.
BROKEN = {
    "dup-slot.json": duplicated_static_slot,
    "no-period.json": static_writer_without_period,
    "chains-5.json": chains_not_a_list,
    "fault-1ns.json": one_ns_fault_window,
    "blocked-dynamic.json": blocked_dynamic_segment,
}


def write_broken(directory) -> None:
    """Write every :data:`BROKEN` document into ``directory``."""
    for name, make in BROKEN.items():
        (directory / name).write_text(json.dumps(make()))
