"""E17 — Kernel fast path: parity-gated event-dispatch speedup.

Claim (performance, conditional on E12/E15 semantics): the bucket-queue
simulation kernel (:class:`repro.sim.kernel.BucketEventQueue`) is a
*pure* speedup over the reference heap queue
(:class:`repro.sim.kernel.HeapEventQueue`): the same events dispatched
in the same order, measurably faster.

Setup: identical same-timestamp burst workloads (``slots`` instants of
``burst`` events each) are dispatched through both queues.  Parity is
asserted on every run — both queues execute every event, in the
identical order — while the timing gate (>= 1.5x kernel event
throughput) is enforced only in full mode.  ``--quick`` shrinks the
workload and skips the timing gate (CI machines make timing assertions
flaky) but still fails on any parity mismatch.

A full run persists its machine-readable trajectory to
``BENCH_e17_perf.json`` at the repo root (raw events/sec, speedup and
gate verdicts); a quick run writes ``.bench_build/BENCH_e17_perf.json``
instead, leaving the committed file alone.
"""

import argparse
import os
import time

from _tables import print_table
from trajectory import REPO_ROOT, write_bench

from repro.sim.kernel import (BucketEventQueue, HeapEventQueue,
                              Simulator)

KERNEL_SPEEDUP_FLOOR = 1.5


def _burst(queue_cls, slots: int, burst: int, callback) -> Simulator:
    """A simulator with ``burst`` events scheduled at each of ``slots``
    instants; ``callback(slot, index)`` builds each event's callback."""
    sim = Simulator(queue=queue_cls())
    for slot in range(slots):
        for index in range(burst):
            sim.schedule_at(slot * 100, callback(slot, index))
    return sim


def _kernel_parity(slots: int, burst: int) -> int:
    """Both queues dispatch the burst workload in the identical order."""
    def dispatch_order(queue_cls) -> list:
        order = []
        sim = _burst(queue_cls, slots, burst,
                     lambda slot, index: lambda: order.append((slot, index)))
        sim.run_until(slots * 100)
        return order

    heap = dispatch_order(HeapEventQueue)
    assert len(heap) == slots * burst, "heap queue dropped events"
    assert dispatch_order(BucketEventQueue) == heap, \
        "bucket queue dispatch order diverged from the heap reference"
    return len(heap)


def _time_kernel(slots: int, burst: int) -> dict:
    def throughput(queue_cls) -> float:
        counter = [0]

        def tick():
            counter[0] += 1

        sim = _burst(queue_cls, slots, burst, lambda slot, index: tick)
        start = time.perf_counter()
        sim.run_until(slots * 100)
        elapsed = time.perf_counter() - start
        assert sim.executed == slots * burst
        return sim.executed / elapsed

    heap = min(throughput(HeapEventQueue) for _ in range(3))
    bucket = min(throughput(BucketEventQueue) for _ in range(3))
    return {
        "events": slots * burst,
        "heap_events_per_s": round(heap, 0),
        "bucket_events_per_s": round(bucket, 0),
        "speedup": round(bucket / heap, 2),
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run(quick: bool = False) -> list[dict]:
    kernel_shape = (60, 60) if quick else (300, 300)

    parity_events = _kernel_parity(*kernel_shape)
    kernel = _time_kernel(*kernel_shape)

    path = write_bench({
        "bench": "e17_perf",
        "quick": quick,
        "parity": {"kernel_events": parity_events, "ok": True},
        "kernel": kernel,
        "gates": {
            "kernel_speedup_floor": KERNEL_SPEEDUP_FLOOR,
            "enforced": not quick,
            "kernel_ok": kernel["speedup"] >= KERNEL_SPEEDUP_FLOOR,
        },
    })

    rows = [
        {"row": "parity: dispatch order",
         "value": f"{parity_events} events identical heap/bucket"},
        {"row": "kernel heap queue",
         "value": f"{kernel['heap_events_per_s']:.0f} events/s"},
        {"row": "kernel bucket queue",
         "value": (f"{kernel['bucket_events_per_s']:.0f} events/s "
                   f"({kernel['speedup']:.2f}x)")},
        {"row": "trajectory", "value": os.path.relpath(path, REPO_ROOT)},
        {"row": "_quick", "value": str(quick)},
        {"row": "_kernel_speedup", "value": str(kernel["speedup"])},
    ]
    return rows


def check(rows: list[dict]) -> None:
    by_row = {row["row"]: row["value"] for row in rows}
    # Parity already asserted inside run() — reaching here means the
    # dispatch orders matched.  The timing gate applies to full runs.
    if by_row["_quick"] == "True":
        return
    kernel_speedup = float(by_row["_kernel_speedup"])
    assert kernel_speedup >= KERNEL_SPEEDUP_FLOOR, (
        f"bucket-queue speedup {kernel_speedup}x is below the "
        f"{KERNEL_SPEEDUP_FLOOR}x acceptance floor")


TITLE = "E17: kernel fast path (bucket vs heap event queue)"


def bench_e17_perf(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    check(rows)
    print_table(TITLE, [r for r in rows if not r["row"].startswith("_")])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload, parity asserts only "
                             "(timing measured and written under "
                             ".bench_build/, never gated)")
    options = parser.parse_args()
    table_rows = run(quick=options.quick)
    check(table_rows)
    print_table(TITLE, [r for r in table_rows
                        if not r["row"].startswith("_")])
