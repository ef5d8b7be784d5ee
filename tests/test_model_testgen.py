"""The model→pytest generator and its SHA-256 sync tracking.

Contracts pinned here: generation is byte-deterministic (two runs
render identical modules and an identical manifest), the committed
suite under ``tests/generated/`` is in sync with the bundled scenario
library, and ``repro model testgen --check`` classifies every way the
model↔test mapping can drift — STALE (model or behaviour changed
without regeneration), EDITED (a generated file was touched by hand),
MISSING, EXTRA — with the ``repro model`` 0/1/2 exit-code contract.
"""

import json
import os
import shutil

import pytest

from repro.errors import ConfigurationError
from repro.model import testgen
from repro.model.cli import (EXIT_INVALID, EXIT_OK, EXIT_UNREADABLE,
                             model_command)
from repro.model.scenarios import scenario_names, scenario_path


# ----------------------------------------------------------------------
# rendering determinism + content
# ----------------------------------------------------------------------
def test_plan_is_byte_deterministic():
    first = testgen.plan_modules(["adas-fusion"])
    second = testgen.plan_modules(["adas-fusion"])
    assert [m.content for m in first] == [m.content for m in second]
    assert [m.sha256 for m in first] == [m.sha256 for m in second]
    assert testgen.manifest_json(testgen.build_manifest(first)) == \
        testgen.manifest_json(testgen.build_manifest(second))


def test_rendered_module_carries_provenance_and_requirements():
    (module,) = testgen.plan_modules(["tdma-overload"])
    assert module.filename == "test_gen_tdma_overload.py"
    assert "GENERATED TEST SUITE — DO NOT EDIT BY HAND" in module.content
    assert f"Generator    : repro.model.testgen " \
           f"v{testgen.GENERATOR_VERSION}" in module.content
    assert module.model_digest in module.content
    # one requirement-traced test function per contract, 001..008
    for number in range(1, testgen.TESTS_PER_MODEL + 1):
        assert f"REQ-TDMA-OVERLOAD-{number:03d}" in module.content
    assert module.content.count("def test_REQ_") == \
        testgen.TESTS_PER_MODEL


def test_manifest_maps_model_digest_to_file_sha():
    modules = testgen.plan_modules(["limp-home"])
    manifest = testgen.build_manifest(modules)
    assert manifest["format"] == testgen.MANIFEST_FORMAT
    assert manifest["generator_version"] == testgen.GENERATOR_VERSION
    (entry,) = manifest["entries"]
    assert entry["file"] == "test_gen_limp_home.py"
    assert entry["model_digest"] == modules[0].model_digest
    assert entry["sha256"] == modules[0].sha256
    assert entry["tests"] == testgen.TESTS_PER_MODEL


def test_slug_collision_is_rejected(tmp_path):
    copy = tmp_path / "other.json"
    shutil.copyfile(scenario_path("adas-fusion"), copy)
    with pytest.raises(ConfigurationError) as excinfo:
        testgen.plan_modules(["adas-fusion", str(copy)])
    assert "collides" in str(excinfo.value)


def test_unreadable_ref_raises_configuration_error():
    with pytest.raises(ConfigurationError):
        testgen.plan_modules(["/no/such/model.json"])


# ----------------------------------------------------------------------
# the committed suite is in sync
# ----------------------------------------------------------------------
def test_committed_suite_is_in_sync():
    """The acceptance gate, as a tier-1 test: the files under
    tests/generated/ must match an in-memory regeneration exactly."""
    in_sync, lines = testgen.check_suite()
    assert in_sync, "\n".join(lines)
    assert lines[-1].startswith("generated suite: IN SYNC")
    assert sum(1 for line in lines if ": OK " in line) == \
        len(scenario_names())


def test_committed_manifest_matches_disk_bytes():
    path = os.path.join(testgen.DEFAULT_OUTPUT_DIR,
                        testgen.MANIFEST_NAME)
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    for entry in manifest["entries"]:
        generated = os.path.join(testgen.DEFAULT_OUTPUT_DIR,
                                 entry["file"])
        with open(generated, encoding="utf-8") as handle:
            assert testgen.file_sha256(handle.read()) == entry["sha256"]


# ----------------------------------------------------------------------
# drift classification (isolated in a tmp dir)
# ----------------------------------------------------------------------
@pytest.fixture
def suite(tmp_path):
    """A generated single-model suite over a mutable model copy."""
    model_file = tmp_path / "model.json"
    shutil.copyfile(scenario_path("adas-fusion"), model_file)
    out = tmp_path / "generated"
    testgen.write_suite([str(model_file)], output_dir=str(out))
    return str(model_file), str(out)


def _mutate(model_file: str) -> None:
    with open(model_file, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["meta"]["description"] += " (mutated)"
    with open(model_file, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def test_clean_generated_suite_checks_in_sync(suite):
    model_file, out = suite
    in_sync, lines = testgen.check_suite([model_file], output_dir=out)
    assert in_sync, "\n".join(lines)


def test_mutated_model_is_stale(suite):
    model_file, out = suite
    _mutate(model_file)
    in_sync, lines = testgen.check_suite([model_file], output_dir=out)
    assert not in_sync
    assert any("STALE" in line and "model changed" in line
               for line in lines)


def test_regeneration_after_mutation_restores_sync(suite):
    model_file, out = suite
    _mutate(model_file)
    testgen.write_suite([str(model_file)], output_dir=out)
    in_sync, lines = testgen.check_suite([model_file], output_dir=out)
    assert in_sync, "\n".join(lines)


def test_hand_edited_generated_file_is_flagged(suite):
    model_file, out = suite
    target = os.path.join(out, "test_gen_adas_fusion.py")
    with open(target, "a", encoding="utf-8") as handle:
        handle.write("\n# sneaky local tweak\n")
    in_sync, lines = testgen.check_suite([model_file], output_dir=out)
    assert not in_sync
    assert any("EDITED" in line for line in lines)


def test_missing_generated_file_is_flagged(suite):
    model_file, out = suite
    os.remove(os.path.join(out, "test_gen_adas_fusion.py"))
    in_sync, lines = testgen.check_suite([model_file], output_dir=out)
    assert not in_sync
    assert any("MISSING" in line for line in lines)


def test_stray_generated_file_is_flagged(suite):
    model_file, out = suite
    stray = os.path.join(out, "test_gen_stray.py")
    with open(stray, "w", encoding="utf-8") as handle:
        handle.write("def test_nothing():\n    pass\n")
    in_sync, lines = testgen.check_suite([model_file], output_dir=out)
    assert not in_sync
    assert any("EXTRA" in line for line in lines)


def test_missing_manifest_is_flagged(suite, tmp_path):
    model_file, _out = suite
    empty = tmp_path / "empty"
    empty.mkdir()
    in_sync, lines = testgen.check_suite([model_file],
                                         output_dir=str(empty))
    assert not in_sync
    assert "no sync manifest" in lines[0]


def test_write_suite_removes_stale_modules(suite):
    model_file, out = suite
    stray = os.path.join(out, "test_gen_removed_model.py")
    with open(stray, "w", encoding="utf-8") as handle:
        handle.write("# left over from a removed model\n")
    testgen.write_suite([model_file], output_dir=out)
    assert not os.path.exists(stray)


# ----------------------------------------------------------------------
# generated code is executable (path-sourced model)
# ----------------------------------------------------------------------
def test_generated_module_executes_for_file_sources(suite):
    """The cheap generated contracts (schema, digest sync, round-trip,
    inventory) pass when the module is executed directly — proof the
    rendered code is valid for user-supplied model files, not just
    bundled names."""
    model_file, out = suite
    path = os.path.join(out, "test_gen_adas_fusion.py")
    with open(path, encoding="utf-8") as handle:
        namespace: dict = {}
        exec(compile(handle.read(), path, "exec"), namespace)
    assert namespace["SOURCE"] == model_file
    for label in ("001_schema_valid", "002_source_digest_in_sync",
                  "003_roundtrip_digest_identical",
                  "004_structure_inventory"):
        namespace[f"test_REQ_ADAS_FUSION_{label}"]()


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
def test_cli_check_passes_on_clean_tree(capsys):
    assert model_command(["testgen", "--check"]) == EXIT_OK
    assert "IN SYNC" in capsys.readouterr().out


def test_cli_check_fails_on_drift(suite, capsys):
    model_file, out = suite
    _mutate(model_file)
    assert model_command(["testgen", "--check", "--output-dir", out,
                          model_file]) == EXIT_INVALID
    assert "DRIFT" in capsys.readouterr().out


def test_cli_generate_writes_suite(tmp_path, capsys):
    out = tmp_path / "gen"
    assert model_command(["testgen", "--output-dir", str(out),
                          "tdma-overload"]) == EXIT_OK
    assert "wrote" in capsys.readouterr().out
    assert (out / "test_gen_tdma_overload.py").exists()
    assert (out / testgen.MANIFEST_NAME).exists()


def test_cli_unreadable_model_exits_2(tmp_path, capsys):
    assert model_command(["testgen", "--output-dir",
                          str(tmp_path / "g"),
                          "/no/such/model.json"]) == EXIT_UNREADABLE
    assert "cannot read" in capsys.readouterr().err


def test_cli_invalid_model_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "repro.model",
                               "format_version": 1}))
    assert model_command(["testgen", "--output-dir",
                          str(tmp_path / "g"),
                          str(bad)]) == EXIT_INVALID
    assert "invalid model document" in capsys.readouterr().err


def test_cli_counterexample_payload_exits_1_and_writes_nothing(
        tmp_path, capsys):
    """A fuzz counterexample payload wraps a model document but is not
    one: the generated ``_document()`` would reload the wrapper, so
    testgen refuses it instead of writing a suite that cannot pass."""
    corpus = os.path.join(os.path.dirname(__file__), "corpus",
                          "soundness-tdma-10ffac85dc.json")
    out = tmp_path / "g"
    assert model_command(["testgen", "--output-dir", str(out),
                          corpus]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("repro model testgen: error: ")
    assert "is this a repro.model document?" in line
    assert not out.exists()
