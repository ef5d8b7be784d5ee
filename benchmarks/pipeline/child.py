"""One measured run of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object as its last line and exits
0 whenever it got that far, correct or not (``run.py`` judges).

Untraced (``--trace 0``): rounds run until ``--seconds`` have passed;
the only instrumentation is :class:`layers.Probe`.  Traced
(``--trace 1``): rounds run untraced for a third of ``--seconds``, then
the same rounds run again under :class:`layers.Tracer`; both passes must
give the same report digests, which proves the wrappers transparent, and
their time ratio is the tracing overhead.  Untraced work is interleaved
with short calibrations (:mod:`calibration`), so its times are also
known in reference seconds.
"""

import time

#: Set-up time is measured from this statement: imports plus the
#: construction of the first round's inputs.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
#: Share of ``--seconds`` the untraced pass of a traced run takes; the
#: traced replay of the same rounds takes the overhead factor longer.
TRACED_UNTRACED_SHARE = 1 / 3
#: Calibration kernel calls converting set-up time to reference seconds.
SETUP_CALIBRATION_RUNS = 8


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="report set-up time and exit")
    parser.add_argument("--chrome", help="Chrome trace output (traced)")
    return parser.parse_args(argv)


def run_rounds(workload, seed: int, probe, first: dict, until=None,
               count=None, stage=None) -> list[dict]:
    """Rounds 0, 1, ... until the clock passes ``until`` (at least one
    round) or ``count`` rounds ran; stops early at a round that raises.
    ``stage`` (a :meth:`layers.Tracer.stage`) opens the pipeline span.

    A round's ``wall`` is its work without the calibration done inside
    it; with a calibrating probe, ``ref`` is the same in reference
    seconds (the round's non-item work is calibrated at its end)."""
    from workloads import round_seed

    clock = probe.calibration
    call = workload.call if stage is None else stage("pipeline",
                                                     workload.call)
    rounds: list[dict] = []
    while count is None or len(rounds) < count:
        index = len(rounds)
        kwargs = first if index == 0 \
            else workload.inputs(round_seed(seed, index))
        calls_before, events_before = len(probe.times), probe.events
        spent_before = clock.spent if clock else 0.0
        ref_before = clock.ref if clock else 0.0
        report, problems = None, []
        start = time.perf_counter()
        try:
            report = call(**kwargs)
        except Exception as error:  # a failed round is a result
            problems.append(f"round {index} raised "
                            f"{type(error).__name__}: {error}")
        wall = time.perf_counter() - start \
            - ((clock.spent - spent_before) if clock else 0.0)
        if clock is not None:
            clock.work(max(0.0, wall - sum(probe.times[calls_before:])),
                       flush=True)
        round_ = {"index": index, "digest": None, "items": 0,
                  "events": probe.events - events_before, "wall": wall,
                  "ref": (clock.ref - ref_before) if clock else None,
                  "admitted": 0, "problems": problems}
        rounds.append(round_)
        if report is None:
            break
        round_["items"] = workload.items(report)
        problems += workload.verdict(report)
        calls = len(probe.times) - calls_before
        if calls != round_["items"]:
            problems.append(f"round {index}: {calls} item calls for "
                            f"{round_['items']} items")
        round_["digest"] = report.digest()
        # corpus admissions; only fuzz reports have a corpus
        round_["admitted"] = len(getattr(report, "corpus", ()))
        if until is not None and time.perf_counter() >= until:
            break
    return rounds


def pin_problems(workload: str, seed: int, first: dict) -> list[str]:
    """Round 0 of the pinned seed must reproduce ``pins.json``."""
    pins = json.loads((HERE / "pins.json").read_text())
    pin = pins["rounds"].get(workload)
    if seed != pins["seed"] or pin is None:
        return []
    found = {key: first[key] for key in pin}
    return [] if found == pin else [
        f"seed {seed} round 0 {found} differs from pins.json {pin}"]


def untraced(workload, args, first: dict, setup: dict) -> dict:
    import layers
    from calibration import Clock
    from metrics import beyond, percentile

    probe = layers.Probe(workload.item, Clock())
    with layers.Patches() as patches:
        probe.install(patches)
        rounds = run_rounds(workload, args.seed, probe, first,
                            until=time.perf_counter() + args.seconds)
    wall = sum(r["wall"] for r in rounds)
    ref = sum(r["ref"] for r in rounds)
    items = sum(r["items"] for r in rounds)
    events = sum(r["events"] for r in rounds)

    def item_ms(times, q):
        # An end-to-end metric needs a value on every workload; where
        # fewer than MIN_BEYOND samples lie beyond the percentile
        # (resilience p90), it is still given and ``thin`` says so.
        value = percentile(times, q)
        if value is None:
            value = percentile(times, q, min_beyond=0)
        return value * 1e3

    thin = [f"item_ms_p{round(q * 100)}" for q in (0.5, 0.9)
            if percentile(probe.times, q) is None]
    return {
        "rounds": rounds, "attempted": len(probe.times),
        "failed": probe.failed,
        "metrics": {
            "items_per_s": (items / ref, "1/s"),
            "item_ms_p50": (item_ms(probe.calibration.items, 0.5), "ms"),
            "item_ms_p90": (item_ms(probe.calibration.items, 0.9), "ms"),
            "events_per_s": (events / ref, "1/s"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        # the same run in plain wall-clock terms, for reference
        "wall": {"items_per_s": items / wall,
                 "item_ms_p50": item_ms(probe.times, 0.5),
                 "item_ms_p90": item_ms(probe.times, 0.9),
                 "events_per_s": events / wall,
                 "setup_s": setup["setup_wall_s"], "speed": ref / wall},
        "latency": {"samples": len(probe.times),
                    "beyond_p90": beyond(probe.times, 0.9), "thin": thin},
    }


def traced(workload, args, first: dict) -> dict:
    import layers
    from calibration import Clock

    probe = layers.Probe(workload.item, Clock())
    with layers.Patches() as patches:
        probe.install(patches)
        plain = run_rounds(workload, args.seed, probe, first,
                           until=time.perf_counter()
                           + args.seconds * TRACED_UNTRACED_SHARE)
    tracer = layers.Tracer(workload.item)
    with layers.Patches() as patches:
        tracer.install(patches)
        rounds = run_rounds(workload, args.seed, tracer, first,
                            count=len(plain), stage=tracer.stage)
    problems = []
    for before, after in zip(plain, rounds):
        for key in ("digest", "items", "events"):
            if before[key] != after[key]:
                problems.append(f"round {before['index']}: traced {key} "
                                f"{after[key]} != untraced {before[key]}")
    wall = sum(r["wall"] for r in rounds)
    metrics = tracer.metrics(wall)
    executions = sum(r["items"] for r in rounds)
    metrics["fuzz.admit_ratio"] = (
        sum(r["admitted"] for r in rounds) / executions
        if executions else 0.0, "ratio")
    metrics["tracing_overhead"] = (
        wall / sum(r["wall"] for r in plain[:len(rounds)]), "ratio")
    if args.chrome:
        path = Path(args.chrome)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(tracer.chrome_trace()))
    return {"rounds": plain, "traced_rounds": rounds,
            "attempted": len(probe.times) + len(tracer.times),
            "failed": probe.failed + tracer.failed,
            "metrics": metrics, "extra_problems": problems}


def main(argv=None) -> int:
    args = parse(argv)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workloads.prepare(workload)
    first = workload.inputs(workloads.round_seed(args.seed, 0))
    setup_wall_s = time.perf_counter() - T0
    from calibration import speed

    factor, _ = speed(SETUP_CALIBRATION_RUNS)
    setup = {"setup_s": setup_wall_s * factor, "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    result = traced(workload, args, first) if args.trace \
        else untraced(workload, args, first, setup)
    rounds = result.pop("rounds")
    problems = [p for r in rounds for p in r["problems"]]
    problems += [p for r in result.pop("traced_rounds", [])
                 for p in r["problems"]]
    problems += result.pop("extra_problems", [])
    problems += pin_problems(args.workload, args.seed, rounds[0])
    result.update({
        "workload": args.workload, "seed": args.seed,
        "trace": bool(args.trace), "correct": not problems,
        "problems": problems, "rounds": len(rounds),
        "items": sum(r["items"] for r in rounds),
        "digest": rounds[0]["digest"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
