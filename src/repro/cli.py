"""The command-line option layer shared by every ``repro`` subcommand.

Four flag groups, each declared once here:

* exec — ``--jobs --checkpoint --resume --progress``: ``campaign``,
  ``verify``, ``fuzz``, ``resilience``, ``meas daq``; ``model
  scenarios run`` takes ``--jobs`` only;
* telemetry — ``--metrics --trace-out --events``: ``campaign``,
  ``verify``, ``fuzz``, ``resilience``, ``model scenarios run``;
* DAQ — ``--daq --daq-period-us --mtf-out``: ``campaign``, ``verify``;
  ``meas daq`` always samples, spells the period ``--period-us`` and
  adds ``--horizon-ms``;
* model — ``--model PATH|NAME`` (repeatable): ``verify``, ``fuzz``,
  ``resilience``.

:func:`check` is the one post-parse step: flag combinations, ranges
and a file output whose directory does not exist are usage errors
reported through ``parser.error`` (exit 2) before any work starts,
and ``--model`` references load through :func:`load_models` with the
exit mapping of :func:`load_failure`, which :func:`journal_errors`
shares for a ``--resume`` journal that cannot be resumed.  The exit
contract of every subcommand: ``0`` everything valid / every
obligation met, ``1`` a document is invalid or a verification failed,
``2`` an input could not be read or the command line is malformed.
"""

from __future__ import annotations

import contextlib
import os
import sys
from typing import Optional

from repro.errors import ConfigurationError, ReproError

#: Exit codes: ok / invalid document or failed check / unreadable input.
EXIT_OK, EXIT_INVALID, EXIT_UNREADABLE = 0, 1, 2

#: ``--daq-period-us`` / ``meas daq --period-us`` default, in µs:
#: :data:`repro.meas.service.DEFAULT_DAQ_PERIOD`, spelled out so that
#: building a parser does not import the measurement plane.
DEFAULT_DAQ_PERIOD_US = 1000


# ----------------------------------------------------------------------
# flag groups
# ----------------------------------------------------------------------
def add_jobs_flag(parser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1: in-process; "
                             "any N yields the identical report digest)")


def add_exec_flags(parser) -> None:
    """``--jobs`` plus the checkpoint journal and live progress."""
    add_jobs_flag(parser)
    parser.add_argument("--checkpoint", metavar="PATH",
                        help="JSONL journal recording per-item results")
    parser.add_argument("--resume", action="store_true",
                        help="skip items already journaled as done in "
                             "--checkpoint; re-run in-flight/failed ones")
    parser.add_argument("--progress", action="store_true",
                        help="live item/rate/ETA lines on stderr "
                             "(stdout stays byte-identical)")


def add_telemetry_flags(parser) -> None:
    parser.add_argument("--metrics", metavar="PATH",
                        help="write merged metrics as Prometheus text")
    parser.add_argument("--trace-out", metavar="PATH", dest="trace_out",
                        help="write spans + DLT events as Chrome "
                             "trace-event JSON (chrome://tracing, "
                             "Perfetto)")
    parser.add_argument("--events", metavar="PATH",
                        help="write the full telemetry as a JSONL "
                             "event log")


def add_daq_flags(parser) -> None:
    parser.add_argument("--daq", action="store_true",
                        help="attach the measurement service and run "
                             "the default DAQ sampling list alongside "
                             "each run (prints the jobs/resume-"
                             "invariant measurement digest)")
    parser.add_argument("--daq-period-us", type=int,
                        default=DEFAULT_DAQ_PERIOD_US,
                        dest="daq_period_us", metavar="US",
                        help="DAQ sampling period in µs "
                             f"(default {DEFAULT_DAQ_PERIOD_US})")
    add_mtf_flag(parser)


def add_mtf_flag(parser) -> None:
    parser.add_argument("--mtf-out", metavar="PATH", dest="mtf_out",
                        help="write the DAQ samples to this columnar "
                             "MTF store (summarize with `repro stats`)")


def add_model_flag(parser) -> None:
    parser.add_argument("--model", action="append", default=[],
                        metavar="PATH|NAME", dest="models",
                        help="run this model document (file path) or "
                             "bundled scenario (by name) instead of "
                             "seeded random systems; repeatable")


# ----------------------------------------------------------------------
# post-parse validation and model loading
# ----------------------------------------------------------------------
#: ``(dest, flag)`` of every integer flag that must be positive.
_POSITIVE = (("jobs", "--jobs"), ("daq_period_us", "--daq-period-us"),
             ("period_us", "--period-us"), ("horizon_ms", "--horizon-ms"))
#: ``(dest, flag)`` of every file a command writes.
_OUTPUTS = (("metrics", "--metrics"), ("trace_out", "--trace-out"),
            ("events", "--events"), ("mtf_out", "--mtf-out"),
            ("checkpoint", "--checkpoint"), ("output", "--output"))


def check(parser, options):
    """Validate the parsed flag groups and load ``--model`` references
    (``options.models`` becomes a list of Models, or None without any).

    Usage errors exit 2 through ``parser.error``; a ``--model`` that
    fails to load exits through :func:`load_failure`.  Groups the
    parser does not carry are skipped."""
    for dest, flag in _POSITIVE:
        value = getattr(options, dest, None)
        if value is not None and value < 1:
            parser.error(f"{flag} must be >= 1")
    for dest, flag in _OUTPUTS:
        directory = os.path.dirname(getattr(options, dest, None) or "")
        if directory and not os.path.isdir(directory):
            parser.error(f"{flag}: directory {directory!r} does not exist")
    if getattr(options, "resume", False) and not options.checkpoint:
        parser.error("--resume requires --checkpoint")
    # A parser without --daq (``meas daq``) always samples.
    if getattr(options, "mtf_out", None) \
            and not getattr(options, "daq", True):
        parser.error("--mtf-out requires --daq")
    if hasattr(options, "models"):
        try:
            options.models = load_models(options.models) or None
        except ConfigurationError as exc:
            parser.exit(load_failure(parser.prog, exc))
    return options


def load_models(refs: list[str]) -> list:
    """The validated Models behind paths or bundled scenario names;
    raises :class:`ConfigurationError` for the first that fails."""
    from repro.model.cli import model_from_ref

    return [model_from_ref(ref) for ref in refs]


def load_failure(prog: str, exc: ReproError) -> int:
    """Report a failed load on stderr and return its exit code: 1 for
    a readable document that fails validation, 2 for anything that
    could not be read at all (a model document or a checkpoint
    journal)."""
    from repro.model.schema import ModelValidationError

    print(f"{prog}: error: {exc}", file=sys.stderr)
    return EXIT_INVALID if isinstance(exc, ModelValidationError) \
        else EXIT_UNREADABLE


# ----------------------------------------------------------------------
# run-time wiring
# ----------------------------------------------------------------------
def exec_kwargs(options, items: int) -> dict:
    """The ``jobs/checkpoint/resume/progress`` arguments every plan
    runner takes; ``--progress`` prints live lines on stderr."""
    progress = None
    if options.progress:
        from repro.exec import ProgressMeter

        progress = ProgressMeter(
            items, emit=lambda line: print(line, file=sys.stderr))
    return {"jobs": options.jobs, "checkpoint": options.checkpoint,
            "resume": options.resume, "progress": progress}


@contextlib.contextmanager
def journal_errors(parser):
    """Exit 2 with one ``<prog>: error:`` line when the block raises
    :class:`~repro.errors.JournalError`: the ``--resume`` journal is
    missing, written for a different plan, or damaged."""
    from repro.errors import JournalError

    try:
        yield
    except JournalError as exc:
        parser.exit(load_failure(parser.prog, exc))


def _telemetry_wanted(options) -> bool:
    return bool(options.metrics or options.trace_out or options.events)


@contextlib.contextmanager
def telemetry(options):
    """Collect telemetry inside the block when an export flag was
    given.  Collection stops when the block exits, before any report is
    formatted, so formatting never records into the digest."""
    if not _telemetry_wanted(options):
        yield
        return
    from repro import obs

    obs.reset()
    obs.enable()
    try:
        yield
    finally:
        obs.disable()


def export_telemetry(options) -> None:
    """Write the requested export files and print the telemetry digest
    (identical for any ``--jobs``); nothing without an export flag."""
    if not _telemetry_wanted(options):
        return
    from repro import obs

    if options.metrics:
        obs.write_prometheus(options.metrics)
    if options.trace_out:
        obs.write_chrome_trace(options.trace_out)
    if options.events:
        obs.write_events_jsonl(options.events)
    print(f"telemetry digest: sha256:{obs.digest()}")


def daq_period(options) -> Optional[int]:
    """The DAQ period in ns (None when ``--daq`` was not given)."""
    from repro.units import us

    return us(options.daq_period_us) if options.daq else None


def emit_daq(options, report, pairs) -> None:
    """Print the measurement lines of a ``--daq`` run and write its
    ``--mtf-out`` store; nothing without ``--daq``."""
    if not options.daq:
        return
    print(f"daq samples: {report.daq_sample_count}")
    print(f"measurement digest: sha256:{report.measurement_digest()}")
    write_mtf(options, pairs, report.daq_sample_count)


def write_mtf(options, pairs, sample_count: int) -> None:
    """Write ``[(label, rows), ...]`` to the ``--mtf-out`` store, if
    given.  Rows are ``[time, daq_list, entry, value]``; entries are
    namespaced by label so several systems share one file."""
    if not options.mtf_out:
        return
    from repro.meas.mtf import MtfWriter

    with MtfWriter(options.mtf_out) as writer:
        for label, rows in sorted(pairs, key=lambda pair: pair[0]):
            writer.write_batch([
                (time, f"daq.{daq_name}", f"{label}:{entry}",
                 {"value": value})
                for time, daq_name, entry, value in rows])
    print(f"wrote {options.mtf_out} ({sample_count} samples)")
