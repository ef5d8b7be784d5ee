"""Exit-code and output coverage for the ``repro model`` CLI.

The subcommand contract: exit 0 when everything is valid / every
obligation is met, 1 when a document is invalid or a verification
fails, 2 when an input cannot be read at all (argparse's own usage
convention).  ``repro verify/resilience/fuzz --model`` reuse the same
reference resolution, so one bad-reference test covers them too.
"""

import json

import pytest

from broken_models import BROKEN, write_broken
from repro.__main__ import main
from repro.model.cli import (EXIT_INVALID, EXIT_OK, EXIT_UNREADABLE,
                             model_command, model_from_ref)
from repro.model.scenarios import scenario_path


@pytest.fixture
def valid_file(tmp_path):
    """A valid model document file (copy of a bundled scenario)."""
    with open(scenario_path("adas-fusion"), encoding="utf-8") as handle:
        doc = json.load(handle)
    path = tmp_path / "valid.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def invalid_file(tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(
        {"format": "repro.model", "format_version": 99}))
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    return str(path)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        model_command(["--help"])
    assert excinfo.value.code == 0
    assert "scenarios" in capsys.readouterr().out


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        model_command([])
    assert excinfo.value.code == 2


def test_validate_valid(valid_file, capsys):
    assert model_command(["validate", valid_file]) == EXIT_OK
    assert "OK digest=" in capsys.readouterr().out


def test_validate_scenario_by_name():
    assert model_command(["validate", "adas-fusion"]) == EXIT_OK


def test_validate_invalid(invalid_file, capsys):
    assert model_command(["validate", invalid_file]) == EXIT_INVALID
    out = capsys.readouterr().out
    assert "INVALID" in out
    assert "unknown version 99" in out


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_validate_rejects_rule_breaking_document(name, tmp_path, capsys):
    write_broken(tmp_path)
    assert model_command(["validate", str(tmp_path / name)]) \
        == EXIT_INVALID
    assert "INVALID" in capsys.readouterr().out


def test_validate_missing_file(capsys):
    assert model_command(["validate", "/no/such/file.json"]) \
        == EXIT_UNREADABLE
    assert "UNREADABLE" in capsys.readouterr().err


def test_validate_broken_json(broken_file):
    assert model_command(["validate", broken_file]) == EXIT_UNREADABLE


def test_validate_worst_status_wins(valid_file, invalid_file):
    assert model_command(["validate", valid_file, invalid_file]) \
        == EXIT_INVALID


def test_digest_valid(valid_file, capsys):
    assert model_command(["digest", valid_file]) == EXIT_OK
    line = capsys.readouterr().out.strip()
    digest, ref = line.split()
    assert len(digest) == 64
    assert ref == valid_file


def test_digest_matches_scenario(valid_file, capsys):
    model_command(["digest", valid_file, "adas-fusion"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == lines[1].split()[0]


def test_digest_invalid(invalid_file):
    assert model_command(["digest", invalid_file]) == EXIT_INVALID


def test_convert_legacy_corpus(tmp_path, capsys):
    import glob
    import os
    corpus = sorted(
        p for p in glob.glob("tests/corpus/*.json")
        if os.path.basename(p) != "known_issues.json")
    out = str(tmp_path / "model.json")
    assert model_command(["convert", corpus[0], "-o", out]) == EXIT_OK
    assert model_command(["validate", out]) == EXIT_OK


def test_convert_unrecognized(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"hello": "world"}))
    assert model_command(["convert", str(path)]) == EXIT_INVALID


def test_scenarios_list(capsys):
    assert model_command(["scenarios", "list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("adas-fusion", "gateway-multibus", "tdma-overload",
                 "flexray-mixed", "limp-home"):
        assert name in out


def test_scenarios_validate(capsys):
    assert model_command(["scenarios", "validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("round-trip=identical") == 5


def test_scenarios_run_one(capsys):
    assert model_command(["scenarios", "run", "tdma-overload"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verify=PASS" in out
    assert "resilience=PASS" in out


def test_scenarios_run_unknown_name(capsys):
    assert model_command(["scenarios", "run", "nope"]) == EXIT_UNREADABLE


def test_scenarios_run_with_telemetry_exports(tmp_path, capsys):
    metrics = tmp_path / "metrics.prom"
    events = tmp_path / "events.jsonl"
    assert model_command(
        ["scenarios", "run", "tdma-overload",
         "--metrics", str(metrics), "--events", str(events)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "telemetry digest: sha256:" in out
    # Both exports exist and parse with the obs tooling.
    from repro.obs.exporters import (events_from_jsonl,
                                     parse_prometheus_text)

    parsed = parse_prometheus_text(metrics.read_text())
    assert parsed["counters"]  # the run produced real telemetry
    rows = events_from_jsonl(events.read_text())
    assert any(row.get("type") == "counter" for row in rows)


def test_scenarios_run_without_telemetry_prints_no_digest(capsys):
    assert model_command(["scenarios", "run", "tdma-overload"]) == EXIT_OK
    assert "telemetry digest" not in capsys.readouterr().out


def test_model_from_ref_rejects_unreadable():
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        model_from_ref("/no/such/file.json")


def test_main_dispatches_model(capsys):
    assert main(["repro", "model", "scenarios", "list"]) == 0
    assert "limp-home" in capsys.readouterr().out


def test_main_unknown_command_mentions_model(capsys):
    assert main(["repro", "bogus"]) == 2
    assert "'model'" in capsys.readouterr().out


def test_verify_model_flag_bad_reference(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["repro", "verify", "--model", "/no/such/file.json"])
    assert excinfo.value.code == 2


def test_verify_model_flag_runs_scenario(capsys):
    assert main(["repro", "verify", "--model", "tdma-overload"]) == 0
    out = capsys.readouterr().out
    assert "size=model" in out
    assert "verdict: PASS" in out
