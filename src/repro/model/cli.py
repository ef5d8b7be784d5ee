"""The ``repro model`` subcommand: work with model documents directly.

=========================  ===========================================
``validate PATH|NAME ...``  schema-check documents; print every problem
``digest PATH|NAME ...``    print each document's deterministic SHA-256
``convert PATH``            re-emit a model document, or the one a
                            fuzz counterexample payload wraps, as a
                            canonical model document
``scenarios list``          the bundled scenario library
``scenarios validate``      CI gate: every bundled scenario validates
                            and round-trips digest-identically
``scenarios run [NAME...]`` verify + resilience matrix per scenario
                            (the EXPERIMENTS E18 table); accepts the
                            telemetry flags ``--metrics`` /
                            ``--trace-out`` / ``--events``
``testgen [PATH|NAME...]``  compile every model (default: all bundled
                            scenarios) into a deterministic pytest
                            suite under ``tests/generated/`` plus a
                            SHA-256 sync manifest
``testgen --check``         CI gate: regenerate in memory and fail on
                            any drift between models and their
                            generated tests (STALE / EDITED /
                            MISSING / EXTRA)
=========================  ===========================================

Exit codes follow the :mod:`repro.cli` contract: ``0`` everything
valid / every obligation met, ``1`` a document is invalid or a
verification failed, ``2`` an input could not be read at all.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro import cli
from repro.cli import EXIT_INVALID, EXIT_OK, EXIT_UNREADABLE
from repro.errors import ConfigurationError
from repro.model.build import Model, resilience_models, verify_models
from repro.model.scenarios import (load_ref, load_scenario,
                                   scenario_description, scenario_names)
from repro.model.schema import model_digest, validate_document


def model_from_ref(ref: str) -> Model:
    """The validated :class:`Model` behind a path or scenario name
    (a counterexample payload yields the document it wraps)."""
    return Model.from_data(load_ref(ref))


def _validate(refs: list[str]) -> int:
    status = EXIT_OK
    for ref in refs:
        try:
            document = load_ref(ref)
        except ConfigurationError as exc:
            print(f"{ref}: UNREADABLE — {exc}", file=sys.stderr)
            status = max(status, EXIT_UNREADABLE)
            continue
        problems = validate_document(document)
        if problems:
            print(f"{ref}: INVALID ({len(problems)} problem(s))")
            for problem in problems:
                print(f"  {problem}")
            status = max(status, EXIT_INVALID)
        else:
            print(f"{ref}: OK digest={model_digest(document)[:16]}")
    return status


def _digest(refs: list[str]) -> int:
    status = EXIT_OK
    for ref in refs:
        try:
            document = load_ref(ref)
        except ConfigurationError as exc:
            print(f"{ref}: UNREADABLE — {exc}", file=sys.stderr)
            status = max(status, EXIT_UNREADABLE)
            continue
        problems = validate_document(document)
        if problems:
            print(f"{ref}: INVALID ({len(problems)} problem(s))",
                  file=sys.stderr)
            status = max(status, EXIT_INVALID)
            continue
        print(f"{model_digest(document)}  {ref}")
    return status


def _convert(ref: str, output: Optional[str]) -> int:
    try:
        data = load_ref(ref)
    except ConfigurationError as exc:
        print(f"{ref}: UNREADABLE — {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    try:
        model = Model.from_data(data)
    except ConfigurationError as exc:
        print(f"{ref}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    text = model.to_json()
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {output} digest={model.digest()[:16]}")
    else:
        print(text)
    return EXIT_OK


def _scenarios_list() -> int:
    width = max(len(name) for name in scenario_names())
    for name in scenario_names():
        print(f"{name:<{width}}  {scenario_description(name)}")
    return EXIT_OK


def _scenarios_validate() -> int:
    """The CI gate: every bundled scenario document must validate and
    round-trip (model -> live system -> model) digest-identically."""
    status = EXIT_OK
    for name in scenario_names():
        document = load_ref(name)
        problems = validate_document(document)
        if problems:
            print(f"{name}: INVALID ({len(problems)} problem(s))")
            for problem in problems:
                print(f"  {problem}")
            status = EXIT_INVALID
            continue
        model = Model.from_document(document, validate=False)
        digest = model.digest()
        again = model.roundtrip().digest()
        if digest != again:
            print(f"{name}: ROUND-TRIP MISMATCH {digest[:16]} != "
                  f"{again[:16]}")
            status = EXIT_INVALID
        else:
            print(f"{name}: OK digest={digest[:16]} round-trip=identical")
    return status


def _scenarios_run(options) -> int:
    names = options.names or scenario_names()
    try:
        models = [load_scenario(name) for name in names]
    except ConfigurationError as exc:
        return cli.load_failure("repro model scenarios run", exc)
    status = EXIT_OK
    width = max(len(name) for name in names)
    with cli.telemetry(options):
        for name, model in zip(names, models):
            verification = verify_models([model], jobs=options.jobs)
            resilience = resilience_models([model], jobs=options.jobs)
            passed = verification.passed and resilience.passed
            checks = sum(len(v.checks) for v in verification.verdicts)
            scenarios = sum(len(row["verdicts"])
                            for row in resilience.rows)
            print(f"{name:<{width}}  verify={'PASS' if verification.passed else 'FAIL'} "
                  f"(checks={checks} soundness="
                  f"{verification.soundness_violations} invariants="
                  f"{verification.invariant_violations})  "
                  f"resilience={'PASS' if resilience.passed else 'FAIL'} "
                  f"(scenarios={scenarios} unmet={resilience.unmet})")
            if not passed:
                status = EXIT_INVALID
    print(f"scenario matrix: {'PASS' if status == EXIT_OK else 'FAIL'} "
          f"({len(names)} scenario(s))")
    cli.export_telemetry(options)
    return status


def _testgen(options) -> int:
    """Generate the model-driven pytest suite, or ``--check`` it."""
    from repro.model import testgen

    try:
        if options.check:
            in_sync, lines = testgen.check_suite(
                options.refs, output_dir=options.output_dir)
            for line in lines:
                print(line)
            return EXIT_OK if in_sync else EXIT_INVALID
        modules = testgen.write_suite(options.refs,
                                      output_dir=options.output_dir)
    except ConfigurationError as exc:
        return cli.load_failure("repro model testgen", exc)
    for module in modules:
        print(f"wrote {options.output_dir}/{module.filename} "
              f"({testgen.TESTS_PER_MODEL} tests) "
              f"model={module.model_digest[:12]} "
              f"file={module.sha256[:12]}")
    print(f"wrote {options.output_dir}/{testgen.MANIFEST_NAME} "
          f"({len(modules)} entr{'y' if len(modules) == 1 else 'ies'})")
    return EXIT_OK


def model_command(args: list[str]) -> int:
    """Entry point for ``repro model ...`` (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="repro model",
        description="validate, digest, convert and run system model "
                    "documents (bundled scenarios addressable by name)")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser(
        "validate", help="schema-check documents; exit 1 on any problem")
    sub.add_argument("refs", nargs="+", metavar="PATH|NAME")

    sub = commands.add_parser(
        "digest", help="print each valid document's deterministic digest")
    sub.add_argument("refs", nargs="+", metavar="PATH|NAME")

    convert = commands.add_parser(
        "convert", help="re-emit a model document, or the one a "
                        "counterexample payload wraps, as a canonical "
                        "model document")
    convert.add_argument("ref", metavar="PATH|NAME")
    convert.add_argument("--output", "-o", metavar="PATH",
                         help="write here instead of stdout")

    sub = commands.add_parser(
        "testgen", help="compile models into a deterministic pytest "
                        "suite with a SHA-256 sync manifest "
                        "(--check: fail on drift)")
    sub.add_argument("refs", nargs="*", metavar="PATH|NAME",
                     help="model documents or bundled scenario names "
                          "(default: every bundled scenario)")
    sub.add_argument("--output-dir", metavar="DIR", dest="output_dir",
                     default=None,
                     help="generated-suite directory (default "
                          "tests/generated)")
    sub.add_argument("--check", action="store_true",
                     help="regenerate in memory and compare against "
                          "the committed suite instead of writing")

    scenarios = commands.add_parser(
        "scenarios", help="the bundled scenario library")
    actions = scenarios.add_subparsers(dest="action", required=True)
    actions.add_parser("list", help="names + one-line descriptions")
    actions.add_parser(
        "validate", help="CI gate: validate + round-trip every scenario")
    run = actions.add_parser(
        "run", help="verify + resilience matrix per scenario (E18)")
    run.add_argument("names", nargs="*", metavar="NAME",
                     help="scenario names (default: all)")
    cli.add_jobs_flag(run)
    cli.add_telemetry_flags(run)

    options = parser.parse_args(args)
    if options.command == "validate":
        return _validate(options.refs)
    if options.command == "digest":
        return _digest(options.refs)
    if options.command == "convert":
        return _convert(options.ref, cli.check(convert, options).output)
    if options.command == "testgen":
        if options.output_dir is None:
            from repro.model.testgen import DEFAULT_OUTPUT_DIR
            options.output_dir = DEFAULT_OUTPUT_DIR
        return _testgen(options)
    if options.action == "list":
        return _scenarios_list()
    if options.action == "validate":
        return _scenarios_validate()
    return _scenarios_run(cli.check(run, options))
