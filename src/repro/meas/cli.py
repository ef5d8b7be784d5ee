"""The ``repro meas`` subcommand: measurement & calibration tooling.

==============================  ======================================
``registry PATH|NAME ...``       print each model's A2L-like registry
                                 (addresses, units, config classes)
                                 and its deterministic digest
``daq PATH|NAME ...``            run the default DAQ list against each
                                 model on the exec engine
                                 (``--jobs/--checkpoint/--resume``),
                                 print the jobs/resume-invariant
                                 measurement digest, optionally stream
                                 samples to an MTF file (``--mtf-out``)
``mtf PATH``                     summarize an MTF store from its
                                 directory (no data scan), or read one
                                 signal over a time range
                                 (``--signal/--start/--end``)
==============================  ======================================

Exit codes follow the :mod:`repro.cli` contract: ``0`` ok, ``1`` a
document is invalid or an operation failed, ``2`` an input could not
be read or the command line is malformed.
"""

from __future__ import annotations

import argparse
import sys

from repro import cli
from repro.cli import EXIT_INVALID, EXIT_OK, EXIT_UNREADABLE
from repro.errors import ConfigurationError, ReproError
from repro.meas.batch import measure_models
from repro.meas.mtf import MtfReader, is_mtf_file, summarize_mtf
from repro.meas.registry import build_registry
from repro.units import ms, us


def _registry(models) -> int:
    for model in models:
        print(build_registry(model).format_table())
    return EXIT_OK


def _daq(command, options, models) -> int:
    horizon = None if options.horizon_ms is None else ms(options.horizon_ms)
    try:
        with cli.journal_errors(command):
            report = measure_models(models, period=us(options.period_us),
                                    horizon=horizon,
                                    **cli.exec_kwargs(options, len(models)))
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    print(report.format())
    cli.write_mtf(options, report.results, report.sample_count)
    return EXIT_OK


def _mtf(prog: str, options) -> int:
    if not is_mtf_file(options.path):
        print(f"{prog}: error: {options.path}: not an MTF file",
              file=sys.stderr)
        return EXIT_UNREADABLE
    try:
        if options.signal is None:
            print(summarize_mtf(options.path))
            return EXIT_OK
        with MtfReader(options.path) as reader:
            samples = reader.read(options.signal, options.start,
                                  options.end)
            for time, data in samples:
                print(f"{time} {data}")
            print(f"{len(samples)} sample(s) from {reader.blocks_read} "
                  f"block(s) of {reader.block_count(options.signal)} "
                  f"for {options.signal!r}", file=sys.stderr)
    except ConfigurationError as exc:
        # A damaged store (truncated, corrupt directory or block) is
        # an unreadable input, reported — not a traceback.
        return cli.load_failure(prog, exc)
    return EXIT_OK


def meas_command(args: list[str]) -> int:
    """Entry point for ``repro meas ...`` (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="repro meas",
        description="A2L-like registries, XCP-style DAQ runs and "
                    "MTF mass-trace stores for simulated ECUs")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser(
        "registry", help="print each model's measurement & calibration "
                         "registry and digest")
    sub.add_argument("refs", nargs="+", metavar="PATH|NAME")

    sub = commands.add_parser(
        "daq", help="run the default DAQ list against each model")
    sub.add_argument("refs", nargs="+", metavar="PATH|NAME")
    sub.add_argument("--period-us", type=int, dest="period_us",
                     default=cli.DEFAULT_DAQ_PERIOD_US,
                     help="sampling period in µs "
                          f"(default {cli.DEFAULT_DAQ_PERIOD_US})")
    sub.add_argument("--horizon-ms", type=int, dest="horizon_ms",
                     help="simulation horizon in ms (default: per "
                          "system, 4x its longest period)")
    cli.add_exec_flags(sub)
    cli.add_mtf_flag(sub)

    sub = commands.add_parser(
        "mtf", help="summarize an MTF store or read one signal")
    sub.add_argument("path", metavar="PATH")
    sub.add_argument("--signal", metavar="NAME",
                     help="read this signal instead of summarizing")
    sub.add_argument("--start", type=int, default=None, metavar="NS")
    sub.add_argument("--end", type=int, default=None, metavar="NS")

    options = parser.parse_args(args)
    command = commands.choices[options.command]
    if options.command == "mtf":
        return _mtf(command.prog, options)
    cli.check(command, options)
    try:
        models = cli.load_models(options.refs)
    except ConfigurationError as exc:
        return cli.load_failure(command.prog, exc)
    if options.command == "registry":
        return _registry(models)
    return _daq(command, options, models)
