"""Schema validation error paths of :mod:`repro.model.schema`.

The validator's contract is that every rejection names the offending
path and says what is wrong in plain words — these tests pin the
messages for the main error classes (unknown format version, missing
subsystem section, dangling references), one row per cross-record rule
and constructor range, the aggregate behaviours (multiple problems
reported at once, the exception type hierarchy, digest
canonicalization), and, by fuzzing edited documents, that validation
never raises and a document that validates also builds.
"""

import copy
import glob
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from broken_models import scenario
from repro.errors import ConfigurationError
from repro.model import (Model, ModelValidationError, load_document,
                         model_digest, system_from_model,
                         validate_document)
from repro.model.scenarios import load_scenario, scenario_names
from repro.verify.mutate import validate_system
from repro.verify.oracle import build_system


def _valid_doc():
    """A known-valid document to perturb (deep copy via JSON)."""
    doc = load_scenario("adas-fusion").document
    return json.loads(json.dumps(doc))


def test_valid_document_has_no_problems():
    assert validate_document(_valid_doc()) == []


def test_not_a_model_document():
    problems = validate_document({"tasksets": {}})
    assert problems
    assert "format" in problems[0]


def test_unknown_format_version():
    doc = _valid_doc()
    doc["format_version"] = 99
    problems = validate_document(doc)
    assert len(problems) == 1
    assert "format_version: unknown version 99" in problems[0]
    assert "version(s) 1" in problems[0]


def test_missing_subsystem_section():
    doc = _valid_doc()
    del doc["osek"]
    problems = validate_document(doc)
    assert any("missing required section 'osek'" in p for p in problems)


def test_missing_com_section():
    doc = _valid_doc()
    del doc["com"]
    problems = validate_document(doc)
    assert any("missing required section 'com'" in p for p in problems)


def test_dangling_signal_to_frame_reference():
    doc = _valid_doc()
    doc["com"]["frames"][0]["ipdu"]["name"] = "GHOST"
    problems = validate_document(doc)
    assert any("GHOST" in p and "dangling" in p for p in problems)


def test_dangling_chain_task_reference():
    doc = _valid_doc()
    doc["com"]["chains"][0]["producer"] = "NOPE.task"
    problems = validate_document(doc)
    assert any("'NOPE.task'" in p and "is not a task of ECU" in p
               for p in problems)


def test_dangling_critical_section_references():
    doc = _valid_doc()
    doc["osek"]["critical_sections"][0]["resource"] = "R.ghost"
    problems = validate_document(doc)
    assert any("R.ghost" in p for p in problems)


def test_reserved_network_must_be_null():
    doc = _valid_doc()
    doc["network"]["ttp"] = {"nodes": 4}
    problems = validate_document(doc)
    assert any("ttp" in p and "reserved" in p for p in problems)


def test_duplicate_task_names():
    doc = _valid_doc()
    ecu = doc["osek"]["ecus"]["RDR"]
    ecu["tasks"].append(dict(ecu["tasks"][0]))
    problems = validate_document(doc)
    assert any("duplicate task name" in p for p in problems)


def test_multiple_problems_reported_together():
    doc = _valid_doc()
    doc["network"]["ttp"] = {"nodes": 4}
    doc["com"]["chains"][0]["consumer"] = "NOPE.sink"
    problems = validate_document(doc)
    assert len(problems) >= 2


def test_ensure_valid_raises_model_validation_error():
    doc = _valid_doc()
    doc["format_version"] = 99
    with pytest.raises(ModelValidationError) as excinfo:
        Model.from_document(doc)
    assert excinfo.value.problems
    assert "unknown version" in str(excinfo.value)
    # ModelValidationError is a ConfigurationError: existing callers
    # that catch the base class keep working.
    assert isinstance(excinfo.value, ConfigurationError)


def test_digest_key_order_invariant():
    doc = _valid_doc()
    shuffled = {key: doc[key] for key in reversed(list(doc))}
    assert model_digest(doc) == model_digest(shuffled)


def test_digest_sensitive_to_content():
    doc = _valid_doc()
    digest = model_digest(doc)
    doc["meta"]["name"] = "renamed"
    assert model_digest(doc) != digest


# ----------------------------------------------------------------------
# one row per rule: a one-edit copy of a bundled scenario, the path the
# problem must start with and a substring of its message
# ----------------------------------------------------------------------
def _tasks(doc, ecu):
    return doc["osek"]["ecus"][ecu]["tasks"]


def _static(doc):
    return doc["network"]["flexray"]["static_writers"]


def _dynamic(doc):
    return doc["network"]["flexray"]["dynamic_writers"]


def _chain(doc):
    return doc["com"]["chains"][0]


def _tdma(doc):
    return doc["osek"]["ecus"]["TDMA0"]


def _e2e_loss(doc):
    return doc["resilience"]["scenarios"][1]


RULES = [
    ("duplicate-priority", "adas-fusion",
     lambda d: _tasks(d, "RDR")[1].update(
         priority=_tasks(d, "RDR")[0]["priority"]),
     "osek.ecus.RDR.tasks[1]", "task priorities not unique"),
    ("duplicate-static-slot", "flexray-mixed",
     lambda d: _static(d)[1].update(slot=_static(d)[0]["slot"]),
     "network.flexray.static_writers", "duplicate static slot 1"),
    ("duplicate-dynamic-frame-id", "flexray-mixed",
     lambda d: _dynamic(d)[1].update(frame_id=_dynamic(d)[0]["frame_id"]),
     "network.flexray.dynamic_writers", "duplicate dynamic frame id 1"),
    ("dynamic-frame-never-fits", "flexray-mixed",
     lambda d: d["network"]["flexray"]["config"].update(n_minislots=1),
     "network.flexray", "'DF1' needs 2 minislots but the dynamic segment "
     "has 1"),
    ("writer-offset-at-period", "flexray-mixed",
     lambda d: _static(d)[0].update(offset=_static(d)[0]["period"]),
     "network.flexray.static_writers[0]", "0 <= offset < period"),
    ("payload-over-dlc", "adas-fusion",
     lambda d: d["network"]["can"]["frame_specs"][1].update(dlc=4),
     "com.frames[0]", "exceeds dlc 4"),
    ("packed-period-not-spec-period", "adas-fusion",
     lambda d: d["com"]["frames"][0].update(period=40_000_000),
     "com.frames[0]", "!= frame spec period 20000000"),
    ("ceiling-below-user", "adas-fusion",
     lambda d: d["osek"]["resources"]["R.objbuf"].update(ceiling=11),
     "osek.resources.R.objbuf", "below the priority 12"),
    ("all-zero-critical-section", "adas-fusion",
     lambda d: d["osek"]["critical_sections"][0].update(
         pre=0, duration=0, post=0),
     "osek.critical_sections[0]", "not all zero"),
    ("counter-bits-zero", "adas-fusion",
     lambda d: _chain(d).update(counter_bits=0),
     "com.chains[0]", "counter_bits must be 1..8"),
    ("max-delta-counter-out-of-range", "adas-fusion",
     lambda d: _chain(d).update(max_delta_counter=15),
     "com.chains[0]", "max_delta_counter 15"),
    ("flexray-bit-time-under-1ns", "flexray-mixed",
     lambda d: d["network"]["flexray"]["config"].update(
         bitrate_bps=2_000_000_000),
     "network.flexray", "bit time under 1 ns"),
    ("flexray-repetition-3", "flexray-mixed",
     lambda d: _static(d)[0].update(repetition=3),
     "network.flexray", "repetition must be a power of two"),
    ("empty-tdma-partition", "tdma-overload",
     lambda d: _tdma(d)["partitions"].append("P2"),
     "osek.ecus.TDMA0", "partition 'P2' has no tasks"),
    ("major-frame-below-partition-count", "tdma-overload",
     lambda d: _tdma(d).update(major_frame=1),
     "osek.ecus.TDMA0", "major frame too small"),
    ("fault-window-below-floor", "limp-home",
     lambda d: _e2e_loss(d).update(duration=1),
     "resilience.scenarios[1]", "guaranteed-detection floor"),
    ("fault-window-after-1s", "limp-home",
     lambda d: _e2e_loss(d).update(start=10**9),
     "resilience.scenarios[1]", "window ends after 1000000000 ns"),
    ("static-writer-without-period", "flexray-mixed",
     lambda d: _static(d)[0].pop("period"),
     "network.flexray.static_writers[0]", "missing field(s) period"),
    ("frame-spec-without-dlc", "adas-fusion",
     lambda d: d["network"]["can"]["frame_specs"][0].pop("dlc"),
     "network.can.frame_specs[0]", "missing field(s) dlc"),
]


@pytest.mark.parametrize("name, edit, prefix, message",
                         [row[1:] for row in RULES],
                         ids=[row[0] for row in RULES])
def test_rule_rejects_one_edit(name, edit, prefix, message):
    doc = scenario(name)
    assert validate_document(doc) == []
    edit(doc)
    problems = validate_document(doc)
    assert any(p.startswith(prefix) and message in p for p in problems), \
        problems


def test_dynamic_frame_that_never_fits_is_rejected():
    # The blocked cluster: frame ID 1 needs 22 of the 12 minislots, so
    # neither it nor ID 2 behind it would ever be sent.
    from broken_models import blocked_dynamic_segment

    assert validate_document(blocked_dynamic_segment()) == [
        "network.flexray: dynamic frame 'DF0' needs 22 minislots but the "
        "dynamic segment has 12: it could never be sent, and would block "
        "every higher frame ID"]


# ----------------------------------------------------------------------
# schema fuzzing: 1-3 edits of a valid document either fail validation
# with problem rows or validate, build and re-validate as a system
# ----------------------------------------------------------------------
_CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
BASES = [scenario(name) for name in scenario_names()] + [
    load_document(path)["system"]
    for path in sorted(glob.glob(os.path.join(_CORPUS, "soundness-*.json")))]
#: Values an edit may write into any slot of a document.
POOL = (0, -1, 3, 9, 65, 2**16, 10**12, None, "x", 1.5, True, [], {})


def _slots(node):
    """``(container, key)`` of every value below ``node``."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        yield node, key
        yield from _slots(child)


def _siblings(node):
    """``(record, key, sibling)`` for two objects in the same list or
    object that share ``key``."""
    if isinstance(node, (dict, list)):
        children = list(node.values() if isinstance(node, dict) else node)
        records = [child for child in children if isinstance(child, dict)]
        for record in records:
            for sibling in records:
                if sibling is not record:
                    for key in record:
                        if key in sibling:
                            yield record, key, sibling
        for child in children:
            yield from _siblings(child)


def _pick(draw, options):
    return options[draw(st.integers(0, len(options) - 1))]


def _edit(draw, doc) -> None:
    """Apply one random edit to ``doc`` in place."""
    op = draw(st.sampled_from(("delete", "set", "copy", "scale")))
    copies = list(_siblings(doc))
    if op == "copy" and copies:
        record, key, sibling = _pick(draw, copies)
        record[key] = copy.deepcopy(sibling[key])
    elif op == "scale":
        container, key = _pick(draw, [
            (c, k) for c, k in _slots(doc) if type(c[k]) is int])
        container[key] = (container[key]
                          * draw(st.sampled_from((0, 2, 10)))
                          + draw(st.sampled_from((-1, 0, 1))))
    elif op == "delete":
        container, key = _pick(draw, [
            (c, k) for c, k in _slots(doc) if isinstance(c, dict)])
        del container[key]
    else:
        container, key = _pick(draw, list(_slots(doc)))
        container[key] = copy.deepcopy(draw(st.sampled_from(POOL)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_edited_document_validates_or_reports(data):
    doc = copy.deepcopy(_pick(data.draw, BASES))
    for _ in range(data.draw(st.integers(1, 3))):
        _edit(data.draw, doc)
    problems = validate_document(doc)
    assert isinstance(problems, list)
    if not problems:
        system = system_from_model(doc)
        build_system(system)
        assert validate_system(system) == []
