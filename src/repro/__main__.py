"""Command-line entry point: ``python -m repro
{info,selftest,campaign,verify,fuzz,resilience,model,meas,stats}``.

``info`` prints the package inventory; ``selftest`` runs a miniature
end-to-end scenario (component app -> RTE deployment over CAN -> timing
analysis cross-check) and exits non-zero on any discrepancy — a quick
installation sanity check.  ``campaign`` runs the reference fault
campaign (all five fault kinds against a protected speed link) and
exits non-zero when a fault goes undetected, corrupts application data,
or fails to recover; ``campaign --smoke`` runs a single cell for CI.
``fuzz`` runs the coverage-guided differential fuzzer: mutate generated
systems toward the analysis edges, shrink every failure to a minimal
counterexample, and optionally persist it to the regression corpus
(``--corpus-dir``); exits non-zero only when a failure resists
shrinking.  ``fuzz --until-dry K`` keeps going until K consecutive
rounds admit no new coverage token.  ``resilience`` injects the
standard bus-/ECU-level fault scenarios into seeded random systems and
checks every one is detected within bound, contained, and recovered.

``model`` works with the versioned system exchange format
(:mod:`repro.model`): validate documents, print deterministic digests,
unwrap fuzz counterexamples into model documents, list/validate/run
the bundled scenario library, and compile every model into the
requirement-traced pytest suite under ``tests/generated/`` (``model
testgen``; ``--check`` is the CI drift gate over its SHA-256 sync
manifest).

``meas`` is the measurement & calibration plane (:mod:`repro.meas`):
print the A2L-style registry generated from a model, run cyclic DAQ
sampling over model documents (``meas daq``), and inspect columnar MTF
mass-trace stores (``meas mtf``).  ``stats`` summarizes exported
telemetry and MTF files: top spans by cumulative time, histogram
percentiles, and the DLT error-event table.

The shared flag groups (exec, telemetry, DAQ, ``--model``), which
subcommand takes which, and the 0/1/2 exit contract live in
:mod:`repro.cli`.
"""

from __future__ import annotations

import sys

import repro
from repro import cli


def info() -> int:
    """Print the package inventory (the `info` subcommand)."""
    print(f"repro {repro.__version__} — reproduction of "
          f"'Software Components for Reliable Automotive Systems' "
          f"(DATE 2008)")
    subsystems = [
        ("repro.sim", "discrete-event simulation substrate"),
        ("repro.osek", "OSEK-like OS: FP / TDMA / reservation"),
        ("repro.network", "CAN, FlexRay, TTP, TT-Ethernet"),
        ("repro.com", "signals, I-PDUs, COM stack"),
        ("repro.core", "SWCs, VFB, RTE, system configuration"),
        ("repro.contracts", "rich contracts + vertical assumptions"),
        ("repro.analysis", "RTA, bus analysis, e2e chains, TT synthesis"),
        ("repro.noc", "MPSoC: shared bus vs TDMA NoC"),
        ("repro.faults", "fault injection + containment monitors"),
        ("repro.bsw", "modes, DEM, NVRAM, watchdog, NM, diag, gateway"),
        ("repro.dse", "allocation, priorities, consolidation"),
        ("repro.verify", "differential oracle, invariants, fuzz + shrink"),
        ("repro.exec", "deterministic parallel sweeps + checkpointing"),
        ("repro.obs", "telemetry: metrics, spans, DLT log, exporters"),
        ("repro.model", "versioned exchange format + bundled scenarios"),
        ("repro.meas", "XCP-like measurement/calibration + MTF store"),
        ("repro.legacy", "CAN overlay middleware"),
    ]
    for module, description in subsystems:
        print(f"  {module:<16} {description}")
    print("Experiments: see EXPERIMENTS.md; "
          "run `pytest benchmarks/ --benchmark-only`.")
    return 0


def selftest() -> int:
    """Run the end-to-end installation check (the `selftest` subcommand)."""
    from repro.analysis import Chain, ChainProbe, Stage, can_rta
    from repro.core import (Composition, DataReceivedEvent,
                            SenderReceiverInterface, SwComponent,
                            SystemModel, TimingEvent, UINT16)
    from repro.network import CanFrameSpec
    from repro.sim import Simulator
    from repro.units import ms, us

    data_if = SenderReceiverInterface("d", {"v": UINT16})
    probe = ChainProbe("selftest")

    sensor = SwComponent("Sensor")
    sensor.provide("out", data_if)

    def sample(ctx):
        ctx.state["n"] = ctx.state.get("n", 0) + 1
        seq = ctx.state["n"] % 65536
        probe.stamp(seq, ctx.now)
        ctx.write("out", "v", seq)

    sensor.runnable("sample", TimingEvent(ms(10)), sample, wcet=us(100))
    sink = SwComponent("Sink")
    sink.require("in", data_if)
    sink.runnable("consume", DataReceivedEvent("in", "v"),
                  lambda ctx: probe.observe(ctx.read("in", "v"), ctx.now),
                  wcet=us(100))

    app = Composition("App")
    app.add(sensor.instantiate("s"))
    app.add(sink.instantiate("k"))
    app.connect("s", "out", "k", "in")
    system = SystemModel("selftest")
    system.add_ecu("E1")
    system.add_ecu("E2")
    system.set_root(app)
    system.map("s", "E1")
    system.map("k", "E2")
    system.configure_bus("can")
    issues = system.validate()
    if issues:
        print("FAIL: configuration checks:", issues)
        return 1
    sim = Simulator()
    system.build(sim)
    sim.run_until(ms(200))
    frame = CanFrameSpec("s.out", 0x100, dlc=3, period=ms(10))
    bound = can_rta.analyze([frame], 500_000)
    chain = Chain("selftest", [Stage("frame", bound.wcrt["s.out"]),
                               Stage("consume", us(100))])
    verdict = probe.check_against(chain)
    status = "PASS" if verdict["bound_holds"] and probe.latencies else \
        "FAIL"
    print(f"{status}: {len(probe.latencies)} deliveries, observed max "
          f"{verdict['observed_max']} ns <= bound "
          f"{verdict['analytic_bound']} ns "
          f"(tightness {verdict['tightness']:.2f}x)")
    return 0 if status == "PASS" else 1


def campaign(args: list[str]) -> int:
    """Run the reference fault campaign (the `campaign` subcommand)."""
    import argparse

    from repro.analysis import format_robustness, robustness_report
    from repro.faults import ReferenceWorld, reference_cells, run_campaign
    from repro.units import ms

    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="reference fault-injection campaign")
    parser.add_argument("--smoke", action="store_true",
                        help="run a single corruption cell (CI gate)")
    cli.add_exec_flags(parser)
    cli.add_telemetry_flags(parser)
    cli.add_daq_flags(parser)
    options = cli.check(parser, parser.parse_args(args))

    cells = reference_cells()
    if options.smoke:
        cells = cells[:1]  # one corruption cell: fast CI regression gate
    with cli.telemetry(options):
        report = run_campaign(
            ReferenceWorld, cells, horizon=ms(300),
            daq_period=cli.daq_period(options),
            **cli.exec_kwargs(options, len(cells)))
    print(f"fault campaign: {report.cells} cell(s), horizon 300 ms")
    for result in report.results:
        status = "DETECTED" if result.detected else "UNDETECTED"
        print(f"  {result.cell.kind:<16} on {result.cell.target:<10} "
              f"{status:<10} dtcs={[hex(d) for d in result.confirmed_dtcs]} "
              f"degraded={result.degraded} contained={result.contained} "
              f"recovered={result.recovered}")
    print(format_robustness(robustness_report(report)))
    print(f"report digest: sha256:{report.digest()}")
    cli.emit_daq(options, report, [(result.cell.label, result.daq_rows)
                                   for result in report.results])
    cli.export_telemetry(options)
    corrupted = sum(r.extra.get("undetected_corrupted", 0)
                    for r in report.results)
    healthy = (report.detection_rate == 1.0
               and report.recovery_rate == 1.0
               and corrupted == 0)
    print(f"verdict: {'PASS' if healthy else 'FAIL'} "
          f"(undetected corrupted deliveries: {corrupted})")
    return 0 if healthy else 1


def verify(args: list[str]) -> int:
    """Run the differential verification harness (the `verify`
    subcommand): generate seeded random systems, compare every analytic
    bound against the simulated observation, and replay the traces
    through the trace invariants.  Exits non-zero on any soundness or
    invariant violation."""
    import argparse

    from repro.verify import SIZES, format_report, verify_many

    parser = argparse.ArgumentParser(
        prog="repro verify",
        description="differential analysis-vs-simulation verification")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--systems", type=int, default=25)
    parser.add_argument("--size", choices=sorted(SIZES), default="small")
    cli.add_model_flag(parser)
    cli.add_exec_flags(parser)
    cli.add_telemetry_flags(parser)
    cli.add_daq_flags(parser)
    options = cli.check(parser, parser.parse_args(args))
    models = options.models
    run = cli.exec_kwargs(options,
                          len(models) if models else options.systems)
    with cli.telemetry(options):
        if models:
            from repro.model import verify_models

            report = verify_models(
                models, daq_period=cli.daq_period(options), **run)
        else:
            report = verify_many(
                options.seed, options.systems, options.size,
                daq_period=cli.daq_period(options), **run)
    print(format_report(report))
    cli.emit_daq(options, report, [(verdict.name, verdict.daq_rows)
                                   for verdict in report.verdicts])
    cli.export_telemetry(options)
    return 0 if report.passed else 1


def fuzz_command(args: list[str]) -> int:
    """Run the coverage-guided differential fuzzer (the `fuzz`
    subcommand): mutate generated systems structurally, keep mutants
    that reach new oracle behaviour, delta-debug every soundness or
    invariant failure to a minimal counterexample.  Finding failures is
    the fuzzer doing its job — the exit code is non-zero only when a
    failure could not be fully shrunk (or the engine itself failed)."""
    import argparse

    from repro.verify import SIZES
    from repro.verify.fuzz import (DEFAULT_SEED_BATCH, format_fuzz_report,
                                   fuzz, write_corpus)

    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="coverage-guided differential fuzzing with "
                    "counterexample shrinking")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--budget", type=int, default=200,
                        help="verify executions to spend (default 200); "
                             "shrink probes are not counted")
    parser.add_argument("--size", choices=sorted(SIZES), default="small")
    parser.add_argument("--seed-batch", type=int,
                        default=DEFAULT_SEED_BATCH, dest="seed_batch",
                        help="fresh-seed systems fuzzed before mutation "
                             f"starts (default {DEFAULT_SEED_BATCH})")
    parser.add_argument("--max-seconds", type=float, default=None,
                        dest="max_seconds",
                        help="stop at a round boundary once this much "
                             "wall clock is spent (CI budget; when it "
                             "fires, the digest reflects the executed "
                             "prefix only)")
    parser.add_argument("--until-dry", type=int, default=None,
                        metavar="K", dest="until_dry",
                        help="campaign mode: keep fuzzing until K "
                             "consecutive rounds admit no new coverage "
                             "token (--budget still caps the run)")
    parser.add_argument("--corpus-dir", metavar="DIR", dest="corpus_dir",
                        help="persist minimized counterexamples as JSON "
                             "under DIR (e.g. tests/corpus)")
    cli.add_model_flag(parser)
    cli.add_exec_flags(parser)
    cli.add_telemetry_flags(parser)
    options = cli.check(parser, parser.parse_args(args))
    seeds = None if options.models is None else [
        model.build() for model in options.models]
    with cli.telemetry(options):
        report = fuzz(
            options.seed, options.budget, options.size,
            seed_batch=options.seed_batch,
            max_seconds=options.max_seconds,
            until_dry=options.until_dry, seeds=seeds,
            **cli.exec_kwargs(options, options.budget))
    print(format_fuzz_report(report))
    if options.corpus_dir and report.findings:
        for path in write_corpus(report, options.corpus_dir):
            print(f"  wrote {path}")
    cli.export_telemetry(options)
    return 0 if not report.unshrunk else 1


def resilience(args: list[str]) -> int:
    """Run the resilience verification matrix (the `resilience`
    subcommand): generate seeded random systems, inject the standard
    bus-/ECU-level fault scenarios into each, and check that every
    fault is detected within its analytic bound, contained behind the
    guardian, and recovered per the hysteresis policy.  Exits non-zero
    on any unmet obligation."""
    import argparse

    from repro.verify import SIZES
    from repro.verify.resilience import (format_resilience_report,
                                         run_resilience)

    parser = argparse.ArgumentParser(
        prog="repro resilience",
        description="fault-injection resilience verification "
                    "(detect / contain / recover)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--systems", type=int, default=3)
    parser.add_argument("--size", choices=sorted(SIZES), default="small")
    cli.add_model_flag(parser)
    cli.add_exec_flags(parser)
    cli.add_telemetry_flags(parser)
    options = cli.check(parser, parser.parse_args(args))
    models = options.models
    run = cli.exec_kwargs(options,
                          len(models) if models else options.systems)
    with cli.telemetry(options):
        if models:
            from repro.model import resilience_models

            report = resilience_models(models, **run)
        else:
            report = run_resilience(options.seed, options.systems,
                                    options.size, **run)
    print(format_resilience_report(report))
    cli.export_telemetry(options)
    return 0 if report.passed else 1


def stats(args: list[str]) -> int:
    """Summarize exported telemetry files (the `stats` subcommand):
    top spans by cumulative time, histogram percentiles, and the DLT
    error-event table.  Input format (Prometheus text, Chrome trace
    JSON, JSONL event log) is autodetected per file."""
    import argparse

    from repro.obs.stats import summarize_paths

    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="summarize exported telemetry files")
    parser.add_argument("paths", nargs="+", metavar="PATH",
                        help="files written by --metrics / --trace-out "
                             "/ --events")
    parser.add_argument("--top", type=int, default=10,
                        help="span table rows (default 10)")
    options = parser.parse_args(args)
    print(summarize_paths(options.paths, options.top))
    return 0


def main(argv: list[str]) -> int:
    """CLI dispatch; returns the process exit code."""
    command = argv[1] if len(argv) > 1 else "info"
    if command == "info":
        return info()
    if command == "selftest":
        return selftest()
    if command == "campaign":
        return campaign(argv[2:])
    if command == "verify":
        return verify(argv[2:])
    if command == "fuzz":
        return fuzz_command(argv[2:])
    if command == "resilience":
        return resilience(argv[2:])
    if command == "model":
        from repro.model.cli import model_command

        return model_command(argv[2:])
    if command == "meas":
        from repro.meas.cli import meas_command

        return meas_command(argv[2:])
    if command == "stats":
        return stats(argv[2:])
    print(f"unknown command {command!r}; "
          f"use 'info', 'selftest', 'campaign', 'verify', 'fuzz', "
          f"'resilience', 'model', 'meas' or 'stats'")
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
