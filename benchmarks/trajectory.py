"""Aggregate every ``BENCH_*.json`` trajectory into one machine-readable
file.

Each persisting benchmark (E17, E19, ...) writes its raw numbers to a
``BENCH_<name>.json`` at the repo root.  Those files are written by
different benchmarks at different times with different shapes; anything
tracking the performance trajectory across PRs (plots, regression
dashboards, the EXPERIMENTS tables) has to re-learn every shape.  This
aggregator normalises them into ``BENCH_trajectory.json``:

* one entry per source file, keyed by the benchmark's own ``bench``
  name, carrying the source file's SHA-256 (the sync anchor — the same
  pattern ``repro model testgen`` uses for generated tests);
* every **numeric leaf** flattened to a dotted path
  (``oracle.warm_speedup``, ``spill.mtf_events_per_s``), so a plotter
  reads one flat namespace without knowing any benchmark's layout;
* the ``gates`` block copied verbatim — floors and verdicts stay
  machine-checkable;
* byte-deterministic output: no timestamps, sorted keys, so the
  committed file only changes when a benchmark's numbers change.

Run ``PYTHONPATH=src python benchmarks/trajectory.py`` to rebuild the
committed file after refreshing any ``BENCH_*.json``; ``--check``
rebuilds in memory and exits 1 on drift (the CI gate).

Benchmarks persist their documents through :func:`write_bench`: a full
run writes the committed ``BENCH_<name>.json`` at the repo root, a
``--quick`` run writes under :data:`QUICK_DIR` instead, so a smoke run
never clobbers a committed full-mode file.

``--pipeline PARENT.json CHANGE.json`` turns two results files of the
pipeline benchmark (``benchmarks/pipeline/run.py --out``) into
``BENCH_pipeline.json``: per workload, each side's median of every
end-to-end metric over its untraced runs, and its run count.  Rerun
without options afterwards to re-aggregate.
"""

import argparse
import hashlib
import json
import os
import statistics
import sys

TRAJECTORY_FORMAT = "repro.bench.trajectory"
TRAJECTORY_VERSION = 1
OUTPUT_NAME = "BENCH_trajectory.json"
REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
#: Where quick runs write: gitignored, and never read by :func:`discover`.
QUICK_DIR = os.path.join(REPO_ROOT, ".bench_build")


def write_bench(doc: dict) -> str:
    """Persist one benchmark document as ``BENCH_<bench>.json`` — at the
    repo root for a full run, under :data:`QUICK_DIR` when
    ``doc["quick"]`` is set.  Returns the path written."""
    directory = QUICK_DIR if doc["quick"] else REPO_ROOT
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{doc['bench']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _untraced_runs(path: str) -> dict:
    """``workload -> [run]`` of one ``run.py --out`` file."""
    try:
        with open(path, encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
        by_workload: dict = {}
        for run in runs:
            if not run["trace"]:
                by_workload.setdefault(run["workload"], []).append(run)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a pipeline results file ({exc!r})")
    return by_workload


def pipeline_bench(parent: str, change: str) -> dict:
    """The ``BENCH_pipeline.json`` document for two ``run.py --out``
    files: per workload both sides ran, each side's run count and its
    median of every end-to-end metric ``BENCHMARK.json`` declares."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        names = [m["name"] for m in json.load(handle)["end_to_end"]]
    sides = {"parent": _untraced_runs(parent),
             "change": _untraced_runs(change)}
    workloads: dict = {}
    for workload in sorted(set(sides["parent"]) & set(sides["change"])):
        workloads[workload] = {}
        for side, by_workload in sides.items():
            runs = by_workload[workload]
            try:
                medians = {name: statistics.median(
                    run["metrics"][name]["value"] for run in runs)
                    for name in names}
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{side} {workload}: a run lacks "
                                 f"end-to-end metric {exc!r}")
            workloads[workload][side] = dict(medians, runs=len(runs))
    if not workloads:
        raise ValueError(f"{parent}, {change}: no workload with "
                         f"untraced runs on both sides")
    return {"bench": "pipeline", "quick": False, "workloads": workloads}


def discover(root: str = REPO_ROOT) -> list[str]:
    """Every ``BENCH_*.json`` at the repo root except the aggregate."""
    return sorted(
        os.path.join(root, name) for name in os.listdir(root)
        if name.startswith("BENCH_") and name.endswith(".json")
        and name != OUTPUT_NAME)


def flatten_numeric(node, prefix: str = "") -> dict:
    """Every numeric leaf of a nested dict as ``dotted.path: value``.

    Booleans are verdicts, not measurements, and strings are digests or
    labels — both are excluded so the metric namespace stays plottable.
    """
    out: dict = {}
    if isinstance(node, dict):
        for key in sorted(node):
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(node[key], path))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = node
    return out


def _entry(path: str) -> dict:
    with open(path, "rb") as handle:
        blob = handle.read()
    try:
        doc = json.loads(blob)
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, "
                         f"got {type(doc).__name__}")
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        raise ValueError(f"{path}: missing its 'bench' name")
    metrics = flatten_numeric(
        {k: v for k, v in doc.items() if k not in ("bench", "gates")})
    return {
        "bench": bench,
        "file": os.path.basename(path),
        "sha256": hashlib.sha256(blob).hexdigest(),
        "quick": bool(doc.get("quick", False)),
        "gates": doc.get("gates", {}),
        "metrics": metrics,
    }


def build_trajectory(root: str = REPO_ROOT) -> dict:
    entries = [_entry(path) for path in discover(root)]
    names = [entry["bench"] for entry in entries]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate bench names in {root}: {names}")
    return {
        "format": TRAJECTORY_FORMAT,
        "format_version": TRAJECTORY_VERSION,
        "benchmarks": len(entries),
        "entries": sorted(entries, key=lambda e: e["bench"]),
    }


def trajectory_json(trajectory: dict) -> str:
    return json.dumps(trajectory, indent=2, sort_keys=True) + "\n"


def validate_trajectory(trajectory) -> list[str]:
    """Schema problems as readable ``where: what`` rows (empty = ok)."""
    problems: list[str] = []
    if not isinstance(trajectory, dict):
        return [f"document: expected an object, "
                f"got {type(trajectory).__name__}"]
    if trajectory.get("format") != TRAJECTORY_FORMAT:
        problems.append(f"format: expected {TRAJECTORY_FORMAT!r}, "
                        f"got {trajectory.get('format')!r}")
    if trajectory.get("format_version") != TRAJECTORY_VERSION:
        problems.append(f"format_version: expected "
                        f"{TRAJECTORY_VERSION}, "
                        f"got {trajectory.get('format_version')!r}")
    entries = trajectory.get("entries")
    if not isinstance(entries, list):
        problems.append("entries: expected a list, "
                        f"got {type(entries).__name__}")
        return problems
    if trajectory.get("benchmarks") != len(entries):
        problems.append(f"benchmarks: says "
                        f"{trajectory.get('benchmarks')!r}, "
                        f"entries has {len(entries)}")
    for index, entry in enumerate(entries):
        where = f"entries[{index}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: expected an object")
            continue
        where = f"entries[{index}] ({entry.get('bench', '?')})"
        for key, kind in (("bench", str), ("file", str),
                          ("sha256", str), ("quick", bool),
                          ("gates", dict), ("metrics", dict)):
            if not isinstance(entry.get(key), kind):
                problems.append(f"{where}: '{key}' must be a "
                                f"{kind.__name__}")
        sha = entry.get("sha256")
        if isinstance(sha, str) and len(sha) != 64:
            problems.append(f"{where}: sha256 must be 64 hex chars")
        metrics = entry.get("metrics")
        if isinstance(metrics, dict):
            for name, value in metrics.items():
                if isinstance(value, bool) \
                        or not isinstance(value, (int, float)):
                    problems.append(f"{where}: metric {name!r} is not "
                                    f"numeric")
    names = [e.get("bench") for e in entries if isinstance(e, dict)]
    if names != sorted(names):
        problems.append("entries: not sorted by bench name")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/trajectory.py",
        description="aggregate BENCH_*.json into BENCH_trajectory.json")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="directory holding the BENCH_*.json files")
    parser.add_argument("--check", action="store_true",
                        help="rebuild in memory and fail on drift "
                             "against the committed aggregate")
    parser.add_argument("--pipeline", nargs=2,
                        metavar=("PARENT.json", "CHANGE.json"),
                        help="write BENCH_pipeline.json from two "
                             "pipeline benchmark results files")
    options = parser.parse_args(argv)
    if options.pipeline:
        try:
            path = write_bench(pipeline_bench(*options.pipeline))
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(f"wrote {path}; rerun benchmarks/trajectory.py to "
              f"re-aggregate")
        return 0
    output = os.path.join(options.root, OUTPUT_NAME)
    try:
        text = trajectory_json(build_trajectory(options.root))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if options.check:
        try:
            with open(output, encoding="utf-8") as handle:
                committed = handle.read()
        except OSError:
            print(f"{output}: missing — run "
                  f"benchmarks/trajectory.py to create it",
                  file=sys.stderr)
            return 1
        if committed != text:
            print(f"{output}: DRIFT — a BENCH_*.json changed without "
                  f"re-aggregation; rerun benchmarks/trajectory.py")
            return 1
        print(f"{output}: IN SYNC "
              f"({json.loads(text)['benchmarks']} benchmark(s))")
        return 0
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {output} "
          f"({json.loads(text)['benchmarks']} benchmark(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
