"""Pipeline benchmark: five user workloads, end-to-end metrics and
outside-in per-layer attribution.

Run from the repository root (no install needed; ``src`` is put on the
children's path)::

    python3 benchmarks/pipeline/run.py [--workload NAME ...] [--seed N ...]
        [--seconds S] [--trace [0|1]] [--out FILE]
    python3 benchmarks/pipeline/run.py compare A.json B.json

The options ``--workload W --seed N --seconds S --trace 0|1`` are the
command interface ``BENCHMARK.json`` declares: whatever runs the
benchmark passes all four, ``--seconds`` being its ``run_seconds``.
Each (workload, seed) pair runs in its own fresh child process, one at a
time.  An untraced run prints the end-to-end metrics; ``--trace`` runs
print the per-layer table instead and write a Chrome trace under
``.bench_build/pipeline/``.  ``--out`` appends every run to a results
file that ``compare`` reads.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 when every run was correct, 1 when any was not, 2 when a
run could not be made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"
#: Extra fresh processes per untraced run that only set up, so set-up
#: time is a median of several.
SETUP_PROBES = 4


class BenchError(Exception):
    """A run that produced no result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # Bytecode is cached, so set-up time is import time with warm
    # bytecode, and it goes under the build directory, never into src/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(arguments: list[str], timeout: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *arguments],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{arguments}: no result within {timeout:.0f} s") \
            from error
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise BenchError(f"{arguments}: exit {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: a fresh child (plus set-up probes when untraced)."""
    arguments = ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        arguments += ["--chrome", str(BUILD / "pipeline" /
                                      f"{workload}-seed{seed}.trace.json")]
        return run_child(arguments, timeout=3 * seconds + 60)
    setups = [run_child(arguments + ["--setup-only"], timeout=60)
              for _ in range(SETUP_PROBES)]
    result = run_child(arguments, timeout=3 * seconds + 60)
    setups.append({"setup_s": result["metrics"]["setup_s"]["value"],
                   "setup_wall_s": result["wall"]["setup_s"]})
    result["metrics"]["setup_s"]["value"] = statistics.median(
        s["setup_s"] for s in setups)
    result["wall"]["setup_s"] = statistics.median(
        s["setup_wall_s"] for s in setups)
    result["setup_samples"] = setups
    return result


def fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or abs(value) >= 100:
        return f"{value:.0f}"
    return f"{value:.4g}"


def print_run(result: dict, spec: dict) -> None:
    head = (f"{result['workload']} seed={result['seed']} "
            f"rounds={result['rounds']} items={result['items']} "
            f"digest={(result['digest'] or '-')[:12]} "
            f"{'OK' if result['correct'] else 'INCORRECT'}")
    print(head)
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    metrics = result["metrics"]
    if not result["trace"]:
        wall = result["wall"]
        for entry in spec["end_to_end"]:
            name = entry["name"]
            m = metrics[name]
            plain = f"   wall clock: {fmt(wall[name])}" if name in wall else ""
            print(f"  {name:<14} {fmt(m['value']):>12} {m['unit']:<5}{plain}")
        print(f"  {'speed':<14} {fmt(wall['speed']):>12} reference s per "
              f"wall s")
        latency = result["latency"]
        print(f"  {latency['samples']} item samples, "
              f"{latency['beyond_p90']} beyond p90"
              + (f"; thin: {', '.join(latency['thin'])}"
                 if latency["thin"] else ""))
        return
    print(f"  {'layer':<16} {'calls/events':>12} {'self_s':>10} "
          f"{'share':>7}")
    layers = sorted({name.rsplit(".", 1)[0] for name in metrics
                     if name.endswith(".self_s")},
                    key=lambda layer: -metrics[f"{layer}.self_s"]["value"])
    for layer in layers:
        count = metrics.get(f"{layer}.calls", metrics.get(f"{layer}.events"))
        print(f"  {layer:<16} {fmt(count['value']):>12} "
              f"{metrics[f'{layer}.self_s']['value']:>10.3f} "
              f"{metrics[f'{layer}.share']['value']:>7.1%}")
    for name in ("sim.kernel.ns_per_event", "trace.query.records_scanned",
                 "trace.query.hit_ratio", "trace.log.records",
                 "fuzz.admit_ratio", "tracing_overhead"):
        print(f"  {name:<28} {fmt(metrics[name]['value'])}")


def summary(results: list[dict]) -> dict:
    """The last output line: one run's metrics, or per-workload medians
    (named ``<workload>.<metric>``) over several runs."""
    line = {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results)}
    if len(results) == 1:
        line["metrics"] = results[0]["metrics"]
        return line
    merged: dict[str, list] = {}
    units: dict[str, str] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            key = f"{result['workload']}.{name}"
            merged.setdefault(key, []).append(metric["value"])
            units[key] = metric["unit"]
    line["metrics"] = {key: {"value": statistics.median(values),
                             "unit": units[key]}
                       for key, values in merged.items()}
    return line


def append_results(path: Path, results: list[dict], seconds: float) -> None:
    """Add runs to a results file, creating it with the host facts."""
    if path.exists():
        document = json.loads(path.read_text())
    else:
        document = {"format": 1,
                    "host": {"nproc": os.cpu_count(),
                             "python": platform.python_version(),
                             "machine": platform.machine()},
                    "runs": []}
    for result in results:
        document["runs"].append(dict(result, seconds=seconds))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")


def compare(argv: list[str], spec: dict) -> int:
    """Median and quartiles of each side per workload x end-to-end
    metric, judged against the bounds in BENCHMARK.json.  Exit status:
    0 when nothing regressed, 1 when a metric regressed or a workload
    is ``invalid``, 2 when the files hold runs of different lengths."""
    from metrics import invalid, quartiles, verdict

    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    options = parser.parse_args(argv)
    sides = []
    for path in (options.parent, options.change):
        runs = [r for r in json.loads(path.read_text())["runs"]
                if not r["trace"]]
        by_workload: dict[str, list] = {}
        for run in runs:
            by_workload.setdefault(run["workload"], []).append(run)
        sides.append(by_workload)
    lengths = {run["seconds"] for side in sides for runs in side.values()
               for run in runs}
    if len(lengths) > 1:
        print(f"run.py compare: runs of different lengths "
              f"{sorted(lengths)} s are not comparable", file=sys.stderr)
        return 2
    regressed = False
    print(f"{'workload':<13} {'metric':<13} {'parent median [q1, q3] n':>34}"
          f" {'change median [q1, q3] n':>34} {'worse':>7}  verdict")
    for workload in sorted(set(sides[0]) & set(sides[1])):
        reason = invalid(sides[0][workload], sides[1][workload])
        if reason is not None:
            regressed = True
            print(f"{workload:<13} {'-':<13} {'':>34} {'':>34} {'':>7}  "
                  f"invalid ({reason})")
            continue
        for entry in spec["end_to_end"]:
            name = entry["name"]
            values = [[r["metrics"][name]["value"] for r in side[workload]]
                      for side in sides]
            outcome, worse = verdict(values[0], values[1], entry["better"],
                                     entry["bound"])
            regressed |= outcome == "regressed"
            cells = []
            for side in values:
                q1, median, q3 = quartiles(side)
                cells.append(f"{fmt(median)} [{fmt(q1)}, {fmt(q3)}] "
                             f"{len(side)}")
            print(f"{workload:<13} {name:<13} {cells[0]:>34} "
                  f"{cells[1]:>34} {worse:>+7.1%}  {outcome} "
                  f"(bound {entry['bound']:.0%})")
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.pycache_prefix = str(BUILD / "pycache")
    spec = load_spec()
    if argv[:1] == ["compare"]:
        return compare(argv[1:], spec)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="pipeline benchmark (see benchmarks/pipeline/README.md)")
    parser.add_argument("--workload", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--seed", nargs="+", type=int, default=[7])
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measured seconds per run; part of the "
                             "BENCHMARK.json command interface (default: "
                             "its run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path,
                        help="append every run to this results file")
    options = parser.parse_args(argv)
    results = []
    try:
        for workload in options.workload:
            for seed in options.seed:
                result = measure(workload, seed, options.seconds,
                                 bool(options.trace))
                print_run(result, spec)
                results.append(result)
    except BenchError as error:
        print(f"pipeline benchmark: {error}", file=sys.stderr)
        return 2
    if options.out:
        append_results(options.out, results, options.seconds)
    print(json.dumps(summary(results)))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
