"""E17 — Kernel scheduling and dispatch: the order contract, ns per
``schedule_at`` and events/s per traffic shape.

Claim (correctness, conditional on E12/E15 semantics): the one-heap
simulation kernel (:class:`repro.sim.kernel.Simulator`) fires every
scheduled event exactly once, in ascending ``(time, priority, seq)``
order, whatever the traffic shape.

Setup: two shapes of the same size are scheduled up front, each event
with a priority drawn from a fixed seed, and dispatched with one
``run_until``:

* ``burst`` — ``slots`` instants of ``burst`` events each, the
  same-instant bursts a hyperperiod boundary produces;
* ``distinct`` — 1-3 events at each of ``instants`` distinct times,
  scheduled in shuffled order: the shape the pipeline workloads run
  (1.2-2.3 events per instant, EXPERIMENTS E22).

On every run, each shape's dispatch order must equal its scheduled
events sorted by ``(time, priority, seq)``.  Two costs are recorded per
shape, each the best of 3, with no floor: they describe the kernel,
they do not gate it.

* ``schedule_ns`` — ns per ``schedule_at`` call while the shape's
  events are scheduled into a fresh simulator;
* ``events_per_s`` — dispatch throughput of one ``run_until`` over
  them.

``--parent PATH`` also loads the kernel module at ``PATH`` (another
checkout's ``src/repro/sim/kernel.py``), times it the same way in
alternation with this tree's kernel, and records its numbers under
``parent``.  ``--quick`` shrinks both shapes.

A full run persists its machine-readable trajectory to
``BENCH_e17_perf.json`` at the repo root; a quick run writes
``.bench_build/BENCH_e17_perf.json`` instead, leaving the committed file
alone.
"""

import argparse
import importlib.util
import os
import random
import time

from _tables import print_table
from trajectory import REPO_ROOT, write_bench

from repro.sim.kernel import Simulator

#: Priorities events draw from: mostly the default, some on either side.
PRIORITIES = (0, 0, 0, 1, -3)
#: Simulated ns between consecutive instants.
STEP = 100


def burst_shape(slots: int, burst: int) -> list[tuple[int, int]]:
    """(time, priority) of every event, in scheduling order: ``burst``
    events at each of ``slots`` instants."""
    rng = random.Random(17)
    return [(slot * STEP, rng.choice(PRIORITIES))
            for slot in range(slots) for _ in range(burst)]


def distinct_shape(instants: int) -> list[tuple[int, int]]:
    """(time, priority) of every event, in scheduling order: 1-3 events
    at each of ``instants`` times, shuffled."""
    rng = random.Random(17)
    events = [(slot * STEP, rng.choice(PRIORITIES))
              for slot in range(instants)
              for _ in range(rng.randint(1, 3))]
    rng.shuffle(events)
    return events


def _simulator(events: list[tuple[int, int]], callback) -> Simulator:
    """A simulator with ``events`` scheduled in order; ``callback(index)``
    builds the callback of the event scheduled ``index``-th."""
    sim = Simulator()
    for index, (at, priority) in enumerate(events):
        sim.schedule_at(at, callback(index), priority)
    return sim


def check_order(events: list[tuple[int, int]]) -> int:
    """Dispatch ``events`` and assert the contract order; returns the
    number of events fired.  A fresh simulator numbers events in
    scheduling order, so the index is the event's ``seq``."""
    fired = []
    sim = _simulator(events, lambda index: lambda: fired.append(index))
    sim.run_until(max(at for at, _ in events))
    expected = sorted(range(len(events)),
                      key=lambda index: (*events[index], index))
    assert fired == expected, \
        "kernel dispatch order differs from (time, priority, seq) order"
    return len(fired)


def timings(events: list[tuple[int, int]], simulator) -> tuple[float, float]:
    """One scheduling pass and one dispatch of ``events`` on a fresh
    ``simulator``: (ns per ``schedule_at`` call, dispatched events/s)."""
    def tick():
        pass

    sim = simulator()
    schedule_at = sim.schedule_at
    start = time.perf_counter()
    for at, priority in events:
        schedule_at(at, tick, priority)
    scheduled = time.perf_counter() - start
    horizon = max(at for at, _ in events)
    start = time.perf_counter()
    sim.run_until(horizon)
    dispatched = time.perf_counter() - start
    assert sim.executed == len(events)
    return scheduled * 1e9 / len(events), sim.executed / dispatched


def best_timings(events: list[tuple[int, int]],
                 kernels: dict) -> dict[str, dict]:
    """Best of 3 :func:`timings` per kernel, the kernels alternating
    within each of the 3 rounds."""
    runs = {name: [] for name in kernels}
    for _ in range(3):
        for name, simulator in kernels.items():
            runs[name].append(timings(events, simulator))
    return {name: {"schedule_ns": round(min(s for s, _ in samples), 1),
                   "events_per_s": round(max(e for _, e in samples), 0)}
            for name, samples in runs.items()}


def load_simulator(path: str):
    """The ``Simulator`` class of the kernel module at ``path``."""
    spec = importlib.util.spec_from_file_location("e17_parent_kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Simulator


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run(quick: bool = False, parent: str = None) -> list[dict]:
    slots, burst = (60, 60) if quick else (300, 300)
    shapes = {"burst": burst_shape(slots, burst),
              "distinct": distinct_shape(slots * burst // 2)}
    kernels = {"kernel": Simulator}
    if parent is not None:
        kernels["parent"] = load_simulator(parent)

    sides = {name: {} for name in kernels}
    for name, events in shapes.items():
        fired = check_order(events)
        best = best_timings(events, kernels)
        sides["kernel"][name] = {
            "events": fired,
            "instants": len({at for at, _ in events}),
            **best["kernel"],
        }
        if parent is not None:
            sides["parent"][name] = best["parent"]

    path = write_bench({
        "bench": "e17_perf",
        "quick": quick,
        "order": {"ok": True},
        **sides,
    })

    rows = []
    for name, stats in sides["kernel"].items():
        rows.append({
            "row": f"{name}: dispatch order",
            "value": (f"{stats['events']} events over {stats['instants']} "
                      f"instants in (time, priority, seq) order")})
        for side, by_shape in sides.items():
            timing = by_shape[name]
            rows.append({"row": f"{name}: {side}",
                         "value": (f"{timing['schedule_ns']:.0f} ns per "
                                   f"schedule_at, "
                                   f"{timing['events_per_s']:.0f} "
                                   f"events/s dispatched")})
    rows.append({"row": "trajectory",
                 "value": os.path.relpath(path, REPO_ROOT)})
    return rows


def check(rows: list[dict]) -> None:
    # The order is asserted inside run(); every shape must also have
    # dispatched a non-empty workload.
    by_row = {row["row"]: row["value"] for row in rows}
    for name in ("burst", "distinct"):
        assert not by_row[f"{name}: dispatch order"].startswith("0 "), \
            f"the {name} shape dispatched no events"


TITLE = ("E17: kernel dispatch order, ns per schedule_at and events/s "
         "per traffic shape")


def bench_e17_perf(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    check(rows)
    print_table(TITLE, rows)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller shapes; written under .bench_build/")
    parser.add_argument("--parent", metavar="KERNEL_PY",
                        help="also time the kernel module at this path "
                             "and record it under 'parent'")
    options = parser.parse_args()
    table_rows = run(quick=options.quick, parent=options.parent)
    check(table_rows)
    print_table(TITLE, table_rows)
