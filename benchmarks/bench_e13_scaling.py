"""E13 — Scaling sweeps: deterministic parallel campaign execution.

Claim (paper, Section 4, read through the ROADMAP's scaling lens): an
integrated architecture's sweeps — fault campaigns, verification
fleets — are embarrassingly parallel over independent cells, so a
scheduler that fans them out deterministically should convert cores
into wall-clock speedup *without changing a single byte of the report*.

Setup: the reference two-ECU campaign matrix replicated over several
fault onsets (every cell is an independent world), executed through
``repro.exec`` at ``--jobs`` 1, 2 and 4.  Per jobs level we report the
wall time, throughput (cells/second), the speedup over the serial run
and the campaign report digest.

Expected shape: identical digests at every jobs level (the engine's
determinism guarantee — each cell's result is a pure function of the
cell, results merge by cell index), and on a machine with >= 4 usable
cores a >= 2x speedup at 4 jobs.  On fewer cores the digest guarantee
still holds; the speedup column just flattens toward 1x, so the
speedup assertion is gated on the visible core count.
"""

import os
import time

from _tables import print_table

from repro.faults import ReferenceWorld, reference_cells, run_campaign
from repro.units import ms

HORIZON = ms(300)
#: Replicating the 5-kind reference matrix over these onsets yields an
#: independent-cell sweep large enough to amortize pool startup.
ONSETS = (ms(50), ms(60), ms(70), ms(80), ms(90), ms(100), ms(110),
          ms(120))
JOB_LEVELS = (1, 2, 4)


def scaling_cells():
    return [cell for onset in ONSETS
            for cell in reference_cells(onset=int(onset))]


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def run() -> list[dict]:
    cells = scaling_cells()
    rows = []
    serial_wall = None
    for jobs in JOB_LEVELS:
        started = time.perf_counter()
        report = run_campaign(ReferenceWorld, cells, horizon=HORIZON,
                              jobs=jobs)
        wall = time.perf_counter() - started
        if serial_wall is None:
            serial_wall = wall
        rows.append({
            "jobs": jobs,
            "cells": report.cells,
            "wall_s": round(wall, 3),
            "cells_per_s": round(report.cells / wall, 2),
            "speedup": round(serial_wall / wall, 2),
            "digest": report.digest()[:12],
        })
    return rows


def check(rows: list[dict]) -> None:
    # The determinism gate: every executor produced the same report.
    assert len({row["digest"] for row in rows}) == 1
    assert all(row["cells"] == len(scaling_cells()) for row in rows)
    # The scaling gate only binds where the cores exist to scale onto.
    if usable_cores() >= 4:
        four = [row for row in rows if row["jobs"] == 4]
        assert four and four[0]["speedup"] >= 2.0


TITLE = (f"E13: campaign scaling over {len(ONSETS) * 5} cells "
         f"({usable_cores()} usable core(s))")


def bench_e13_scaling(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    check(rows)
    print_table(TITLE, rows)


if __name__ == "__main__":
    rows = run()
    check(rows)
    print_table(TITLE, rows)
