"""The exit contract of every subcommand that takes the shared flags,
and of ``stats`` over telemetry files it cannot read.

Each row is one bad input to one subcommand: the command must stop
before any plan runs, exit with the contract's code (1 a readable
document fails validation, 2 unreadable input or a usage error) and
say why in one ``<prog>: error: <message>`` line on stderr — never a
traceback.
"""

import json

import pytest

from broken_models import BROKEN, write_broken
from repro import cli
from repro.__main__ import main
from repro.meas.mtf import MtfWriter
from repro.meas.service import DEFAULT_DAQ_PERIOD
from repro.units import us
from repro.verify.fuzz import _system_view
from repro.verify.generator import generate

#: All relative to the test's working directory, ``tmp_path``.
INVALID, MISSING, BINARY = "invalid.json", "missing.json", "binary.json"
#: The pre-model corpus layout: a bare flat system dict, and an old
#: format-2 counterexample payload wrapping one.
LEGACY, LEGACY_PAYLOAD = "legacy.json", "legacy-payload.json"
#: Checkpoint journals that cannot be resumed: written for another plan,
#: a damaged header, empty, not UTF-8, a directory, and none at all.
#: ``fuzz`` reads its round journal, ``<PATH>.round0000``.
OTHER_PLAN, CORRUPT_HEADER = "other-plan.jsonl", "corrupt-header.jsonl"
EMPTY_JOURNAL, BINARY_JOURNAL = "empty.jsonl", "binary.jsonl"
DIRECTORY_JOURNAL, NO_JOURNAL = "journal-dir", "missing.jsonl"
#: The subcommands that take ``--checkpoint``/``--resume``.
RESUMABLE = ("campaign", "verify", "fuzz", "resilience", "meas-daq")
#: Telemetry files ``stats`` cannot summarize: no known format, an MTF
#: store cut in half, a Chrome trace whose events are no list, a JSONL
#: log with a broken line, one whose lines are JSON arrays, not event
#: objects, one with a histogram event that lacks its counts, a
#: one-line log whose object is no event, and one whose counter value
#: is a string.
UNRECOGNIZED, CHOPPED_MTF = "notes.txt", "chopped.mtf"
BAD_CHROME, BROKEN_JSONL = "trace.json", "events.jsonl"
ARRAY_JSONL, BARE_HISTOGRAM = "arrays.jsonl", "histogram.jsonl"
UNTYPED_LINE, TEXT_COUNTER = "untyped.jsonl", "counter.jsonl"
#: A directory that does not exist, for file outputs placed into it.
NO_DIR = "nodir"

#: subcommand argv prefix -> the prog its errors are reported under.
COMMANDS = {
    "campaign": (["campaign", "--smoke"], "repro campaign"),
    "verify": (["verify", "--systems", "1"], "repro verify"),
    "fuzz": (["fuzz", "--budget", "1"], "repro fuzz"),
    "resilience": (["resilience", "--systems", "1"], "repro resilience"),
    "scenarios-run": (["model", "scenarios", "run", "tdma-overload"],
                      "repro model scenarios run"),
    "meas-daq": (["meas", "daq", "adas-fusion"], "repro meas daq"),
    "convert": (["model", "convert", "tdma-overload"],
                "repro model convert"),
    "stats": (["stats"], "repro stats"),
}

ROWS = (
    [(command, ["--jobs", jobs], 2, "--jobs must be >= 1")
     for command in COMMANDS if command not in ("stats", "convert")
     for jobs in ("0", "-2")]
    + [(command, ["--resume"], 2, "--resume requires --checkpoint")
       for command in RESUMABLE]
    + [(command, ["--model", INVALID], 1, "invalid model document")
       for command in ("verify", "resilience", "fuzz")]
    + [(command, ["--model", broken], 1, "invalid model document")
       for command in ("verify", "resilience", "fuzz")
       for broken in BROKEN]
    + [(command, ["--model", MISSING], 2, "cannot read")
       for command in ("verify", "resilience", "fuzz")]
    + [(command, ["--model", BINARY], 2, "not valid JSON")
       for command in ("verify", "resilience", "fuzz")]
    + [(command, ["--model", legacy], 2, "unrecognized document")
       for command in ("verify", "resilience", "fuzz")
       for legacy in (LEGACY, LEGACY_PAYLOAD)]
    + [(command, ["--mtf-out", "x.mtf"], 2, "--mtf-out requires --daq")
       for command in ("verify", "campaign")]
    + [(command, [*extra, flag, f"{NO_DIR}/out"], 2,
        f"{reported}: directory {NO_DIR!r} does not exist")
       for command, extra, flag, reported in (
           ("verify", [], "--metrics", "--metrics"),
           ("verify", [], "--trace-out", "--trace-out"),
           ("verify", [], "--events", "--events"),
           ("verify", ["--daq"], "--mtf-out", "--mtf-out"),
           ("verify", [], "--checkpoint", "--checkpoint"),
           ("meas-daq", [], "--mtf-out", "--mtf-out"),
           ("convert", [], "-o", "--output"))]
    + [("meas-daq", ["--period-us", "-5"], 2, "--period-us must be >= 1"),
       ("meas-daq", ["--horizon-ms", "-5"], 2,
        "--horizon-ms must be >= 1")]
    + [(command, ["--checkpoint", journal, "--resume"], 2, message)
       for command in RESUMABLE
       for journal, message in ((OTHER_PLAN, "different plan"),
                                (CORRUPT_HEADER, "corrupt plan header"),
                                (EMPTY_JOURNAL, "is empty"),
                                (BINARY_JOURNAL, "unreadable"),
                                (DIRECTORY_JOURNAL, "unreadable"))]
    # A missing round journal starts that fuzz round fresh, by design.
    + [(command, ["--checkpoint", NO_JOURNAL, "--resume"], 2,
        "no checkpoint journal")
       for command in RESUMABLE if command != "fuzz"]
    + [("stats", [path], 2, message)
       for path, message in (
           (MISSING, "cannot read missing.json"),
           (UNRECOGNIZED, "unrecognized telemetry file format"),
           (CHOPPED_MTF, "truncated MTF file"),
           (BAD_CHROME, "'traceEvents' must be a list"),
           (BROKEN_JSONL, "cannot read events.jsonl: line 2, column 10: "
                          "Unterminated string"),
           (ARRAY_JSONL, "arrays.jsonl: line 1: not an event object"),
           (BARE_HISTOGRAM,
            "histogram.jsonl: line 1: histogram event lacks 'count'"),
           (UNTYPED_LINE,
            "untyped.jsonl: line 1: event has no string 'type'"),
           (TEXT_COUNTER, "counter.jsonl: line 2: counter event's "
                          "'value' must be a JSON number"))]
)


@pytest.mark.parametrize("row", ROWS,
                         ids=lambda row: "_".join([row[0], *row[1]]))
def test_bad_input_exits_by_contract(row, tmp_path, monkeypatch, capsys):
    command, extra, code, message = row
    argv, prog = COMMANDS[command]
    monkeypatch.chdir(tmp_path)
    # Readable JSON, recognizably a model document, but invalid.
    (tmp_path / INVALID).write_text(json.dumps({"format": "repro.model",
                                                "format_version": 1}))
    (tmp_path / BINARY).write_bytes(b"\xff\xfe\x00model")
    legacy = _system_view(generate(3, "small"))
    (tmp_path / LEGACY).write_text(json.dumps(legacy))
    (tmp_path / LEGACY_PAYLOAD).write_text(json.dumps(
        {"format": 2, "status": "fixed", "horizon": 400_000_000,
         "failure": {"kind": "soundness", "detail": "tdma",
                     "subject": "TDMA0.P0.T0"},
         "system": legacy}))
    write_broken(tmp_path)
    for round_suffix in ("", ".round0000"):
        (tmp_path / (OTHER_PLAN + round_suffix)).write_text(json.dumps(
            {"type": "plan", "label": "other", "fingerprint": "0" * 64,
             "chunks": 1, "items": 1}) + "\n")
        (tmp_path / (CORRUPT_HEADER + round_suffix)).write_text(
            '{"type": "pl\n')
        (tmp_path / (EMPTY_JOURNAL + round_suffix)).write_text("")
        (tmp_path / (BINARY_JOURNAL + round_suffix)).write_bytes(
            b"\xff\xfe\x00journal\n")
        (tmp_path / (DIRECTORY_JOURNAL + round_suffix)).mkdir()
    (tmp_path / UNRECOGNIZED).write_text("not telemetry\n")
    with MtfWriter(str(tmp_path / "whole.mtf")) as writer:
        writer.write_batch([(t, "cat", "s", {"v": t}) for t in range(50)])
    whole = (tmp_path / "whole.mtf").read_bytes()
    (tmp_path / CHOPPED_MTF).write_bytes(whole[:len(whole) // 2])
    (tmp_path / BAD_CHROME).write_text(json.dumps({"traceEvents": 5}))
    (tmp_path / BROKEN_JSONL).write_text(
        '{"type": "span", "name": "a", "duration_ns": 5}\n{"type": "sp\n')
    (tmp_path / ARRAY_JSONL).write_text("[1, 2]\n[1, 2]\n")
    (tmp_path / BARE_HISTOGRAM).write_text(
        '{"type": "histogram", "name": "x"}\n'
        '{"type": "counter", "name": "n", "value": 1}\n')
    (tmp_path / UNTYPED_LINE).write_text('{"a": 1}\n')
    (tmp_path / TEXT_COUNTER).write_text(
        '{"type": "counter", "name": "n", "value": 1}\n'
        '{"type": "counter", "name": "m", "value": "1"}\n')
    with pytest.raises(SystemExit) as excinfo:
        main(["repro", *argv, *extra])
    assert excinfo.value.code == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if ": error: " in line]
    assert line.startswith(f"{prog}: error: ")
    assert message in line
    assert not (tmp_path / "x.mtf").exists()


def test_daq_period_default_is_the_service_default():
    assert us(cli.DEFAULT_DAQ_PERIOD_US) == DEFAULT_DAQ_PERIOD
