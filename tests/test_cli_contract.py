"""The exit contract of every subcommand that takes the shared flags.

Each row is one bad input to one subcommand: the command must stop
before any plan runs, exit with the contract's code (1 a readable
document fails validation, 2 unreadable input or a usage error) and
say why in one ``<prog>: error: <message>`` line on stderr — never a
traceback.
"""

import json

import pytest

from repro import cli
from repro.__main__ import main
from repro.meas.service import DEFAULT_DAQ_PERIOD
from repro.units import us
from repro.verify.fuzz import _system_view
from repro.verify.generator import generate

#: All relative to the test's working directory, ``tmp_path``.
INVALID, MISSING, BINARY = "invalid.json", "missing.json", "binary.json"
#: The pre-model corpus layout: a bare flat system dict, and an old
#: format-2 counterexample payload wrapping one.
LEGACY, LEGACY_PAYLOAD = "legacy.json", "legacy-payload.json"

#: subcommand argv prefix -> the prog its errors are reported under.
COMMANDS = {
    "campaign": (["campaign", "--smoke"], "repro campaign"),
    "verify": (["verify", "--systems", "1"], "repro verify"),
    "fuzz": (["fuzz", "--budget", "1"], "repro fuzz"),
    "resilience": (["resilience", "--systems", "1"], "repro resilience"),
    "scenarios-run": (["model", "scenarios", "run", "tdma-overload"],
                      "repro model scenarios run"),
    "meas-daq": (["meas", "daq", "adas-fusion"], "repro meas daq"),
}

ROWS = (
    [(command, ["--jobs", jobs], 2, "--jobs must be >= 1")
     for command in COMMANDS for jobs in ("0", "-2")]
    + [(command, ["--resume"], 2, "--resume requires --checkpoint")
       for command in ("campaign", "verify", "fuzz", "resilience",
                       "meas-daq")]
    + [(command, ["--model", INVALID], 1, "invalid model document")
       for command in ("verify", "resilience", "fuzz")]
    + [(command, ["--model", MISSING], 2, "cannot read")
       for command in ("verify", "resilience", "fuzz")]
    + [(command, ["--model", BINARY], 2, "not valid JSON")
       for command in ("verify", "resilience", "fuzz")]
    + [(command, ["--model", legacy], 2, "unrecognized document")
       for command in ("verify", "resilience", "fuzz")
       for legacy in (LEGACY, LEGACY_PAYLOAD)]
    + [(command, ["--mtf-out", "x.mtf"], 2, "--mtf-out requires --daq")
       for command in ("verify", "campaign")]
    + [("meas-daq", ["--period-us", "-5"], 2, "--period-us must be >= 1"),
       ("meas-daq", ["--horizon-ms", "-5"], 2,
        "--horizon-ms must be >= 1")]
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
