"""E26 — Garbage-lean simulation: what the cyclic collector costs each
pipeline, and that no trace row outlives its item.

Claim: every pipeline worker clears its world's trace once it has read
it (:meth:`repro.sim.trace.Trace.clear`).  A simulated world is a
reference cycle, so without that a finished item's rows stay alive
until a full collection frees them.  After a call of any of the five
public pipeline entry points no live :class:`~repro.sim.trace.Trace`
holds a row.

Setup: one small fixed call per pipeline (``verify_many``, ``fuzz``,
``run_resilience``, ``run_campaign`` and ``measure_models``), run twice
in this process, each time after a full collection:

* **counted**, collector off: the rows held by live ``Trace`` objects
  after the call minus those before it, and, sampled at every return
  of ``Simulator.run_until``, the largest number of rows live traces
  hold and of traces holding any (how many simulated worlds an item
  keeps alive at once).  With the collector off these counts do not
  depend on when a collection happens to run, so they repeat exactly.
  This first call also finishes the pipeline's lazy imports;
* **timed**, collector on: ``gc.callbacks`` counts the collections of
  each generation and times them; the share is collector seconds over
  the call's wall seconds.

Only the live-row count is gated: it must be 0 for every pipeline.
The peaks, collector time and counts describe the run, they do not
gate it.
``--quick`` shrinks every call.

A full run persists its machine-readable trajectory to
``BENCH_e26_gc.json`` at the repo root; a quick run writes
``.bench_build/BENCH_e26_gc.json`` instead, leaving the committed file
alone.
"""

import argparse
import gc
import os
import time

from _tables import print_table
from trajectory import REPO_ROOT, write_bench

from repro.faults import ReferenceWorld, reference_cells, run_campaign
from repro.meas.batch import measure_models
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace
from repro.units import ms
from repro.verify.fuzz import fuzz
from repro.verify.generator import generate_many
from repro.verify.oracle import verify_many
from repro.verify.resilience import run_resilience

SEED = 7


def pipelines(quick: bool) -> dict:
    """Pipeline name -> a call of its public entry point."""
    return {
        "verify": lambda: verify_many(SEED, 3 if quick else 10),
        "fuzz": lambda: fuzz(SEED, budget=8 if quick else 24),
        "resilience": lambda: run_resilience(SEED, 1 if quick else 2),
        "campaign": lambda: run_campaign(ReferenceWorld, reference_cells(),
                                         horizon=ms(300)),
        "meas-daq": lambda: measure_models(
            generate_many(SEED, 2 if quick else 5), period=ms(1),
            horizon=ms(50)),
    }


class CollectorClock:
    """A ``gc.callbacks`` entry: collections per generation and the
    seconds spent in them."""

    def __init__(self):
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections[info["generation"]] += 1


def live_traces() -> list[int]:
    """Rows of each live trace that holds any."""
    return [len(obj) for obj in gc.get_objects()
            if isinstance(obj, Trace) and len(obj)]


def timed(call) -> dict:
    """Wall and collector time of ``call()`` with the collector on."""
    gc.collect()
    clock = CollectorClock()
    gc.callbacks.append(clock)
    try:
        start = time.perf_counter()
        call()
        wall = time.perf_counter() - start
    finally:
        gc.callbacks.remove(clock)
    return {"wall_s": round(wall, 4),
            "gc_s": round(clock.seconds, 4),
            "gc_share": round(clock.seconds / wall, 4),
            "collections": {f"gen{generation}": count for generation, count
                            in enumerate(clock.collections)}}


def counted(call) -> dict:
    """Trace rows ``call()`` leaves alive, and the peak rows and traces
    alive at any return of ``Simulator.run_until``, collector off."""
    run_until = Simulator.run_until
    peak = {"peak_live_rows": 0, "peak_live_traces": 0}

    def sampled(sim, horizon):
        run_until(sim, horizon)
        traces = live_traces()
        peak["peak_live_rows"] = max(peak["peak_live_rows"], sum(traces))
        peak["peak_live_traces"] = max(peak["peak_live_traces"],
                                       len(traces))

    gc.collect()
    gc.disable()
    Simulator.run_until = sampled
    try:
        before = sum(live_traces())
        call()
        return dict(peak, live_rows=sum(live_traces()) - before)
    finally:
        Simulator.run_until = run_until
        gc.enable()


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run(quick: bool = False) -> list[dict]:
    results = {}
    for name, call in pipelines(quick).items():
        counts = counted(call)
        results[name] = dict(timed(call), **counts)

    path = write_bench({
        "bench": "e26_gc",
        "quick": quick,
        "pipelines": results,
        "gates": {"live_rows_max": 0,
                  "live_rows_ok": all(r["live_rows"] == 0
                                      for r in results.values())},
    })

    rows = []
    for name, stats in results.items():
        generations = stats["collections"]
        rows.append({
            "pipeline": name,
            "wall s": f"{stats['wall_s']:.3f}",
            "collector s": f"{stats['gc_s']:.3f}",
            "share": f"{stats['gc_share']:.1%}",
            "collections gen0/1/2": "/".join(
                str(generations[f"gen{g}"]) for g in range(3)),
            "live rows": stats["live_rows"],
            "peak rows": stats["peak_live_rows"],
            "peak traces": stats["peak_live_traces"],
        })
    print(f"trajectory: {os.path.relpath(path, REPO_ROOT)}")
    return rows


def check(rows: list[dict]) -> None:
    for row in rows:
        assert row["live rows"] == 0, \
            (f"{row['pipeline']}: {row['live rows']} trace rows "
             f"outlived the call")


TITLE = "E26: cyclic collector cost and trace rows alive per pipeline"


def bench_e26_gc(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    check(rows)
    print_table(TITLE, rows)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller calls; written under .bench_build/")
    options = parser.parse_args()
    table_rows = run(quick=options.quick)
    print_table(TITLE, table_rows)
    check(table_rows)
