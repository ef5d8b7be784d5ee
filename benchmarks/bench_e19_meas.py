"""E19 — Measurement & calibration plane: determinism + mass-trace I/O.

Claims:

* **Determinism** (asserted on every run, quick or full): the A2L-like
  registry digest is byte-stable across rebuilds; the DAQ measurement
  digest is byte-identical for ``jobs=1`` and ``jobs=4``; an MTF store
  round-trips every record it was given.
* **Throughput** (gated in full mode only — CI machines make timing
  assertions flaky): the chunked columnar MTF writer sustains at least
  ``MTF_SPEEDUP_FLOOR``x the events/sec of a JSON-lines writer
  (:func:`jsonl_spill`, this bench's baseline) on the same record
  stream.
* **Overhead** (full mode only): attaching a measurement service
  without running a DAQ list costs at most ``DETACHED_OVERHEAD_CEIL``
  of the bare simulation's wall time — observability that is not used
  is (nearly) free, the property E14 pins for the obs layer.

A full run persists its machine-readable trajectory to
``BENCH_e19_meas.json`` at the repo root (raw seconds, events/sec,
speedups, digests and gate verdicts); a quick run writes
``.bench_build/BENCH_e19_meas.json`` instead, leaving the committed
file alone.
"""

import argparse
import json
import os
import tempfile
import time
from typing import Callable

from _tables import print_table
from trajectory import REPO_ROOT, write_bench

from repro.meas.batch import measure_models
from repro.meas.mtf import MtfReader, MtfWriter
from repro.meas.registry import build_registry
from repro.meas.service import MeasurementService
from repro.sim.trace import Record
from repro.units import ms, us
from repro.verify.generator import generate, generate_many
from repro.verify.oracle import build_system

SEED = 7
MTF_SPEEDUP_FLOOR = 3.0
DETACHED_OVERHEAD_CEIL = 1.05


# ----------------------------------------------------------------------
# Determinism (asserted on every run, quick or full)
# ----------------------------------------------------------------------
def _registry_parity(seeds: int) -> list[str]:
    """Registry digests stable across independent rebuilds."""
    digests = []
    for seed in range(seeds):
        first = build_registry(generate(seed, "small")).digest()
        second = build_registry(generate(seed, "small")).digest()
        assert first == second, f"registry digest unstable: seed {seed}"
        digests.append(first)
    assert len(set(digests)) == seeds, "distinct systems, equal digests"
    return digests


def _daq_parity(systems: int, period: int) -> str:
    """jobs=1 and jobs=4 DAQ runs digest byte-identically."""
    population = list(generate_many(SEED, systems, "small"))
    serial = measure_models(population, period=period, horizon=ms(50))
    parallel = measure_models(population, period=period, horizon=ms(50),
                              jobs=4)
    assert serial.digest() == parallel.digest(), \
        "DAQ digest differs between jobs=1 and jobs=4"
    assert serial.sample_count == parallel.sample_count > 0
    return serial.digest()


def _mtf_roundtrip(records: list[Record], path: str) -> None:
    """Write -> seek -> read returns exactly what went in."""
    with MtfWriter(path, chunk_records=1024) as writer:
        writer.write_batch(records)
    with MtfReader(path) as reader:
        assert reader.records == len(records)
        total = sum(len(reader.read(signal))
                    for signal in reader.signals())
        assert total == len(records), "MTF round-trip lost records"
        # A one-chunk time slice must not touch every block.
        signal = reader.signals()[0]
        reader.blocks_read = 0
        reader.read(signal, start=0, end=0)
        assert reader.blocks_read <= 1


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def jsonl_spill(path: str) -> Callable[[list[Record]], None]:
    """The JSONL baseline: a batch callable that appends records to
    ``path`` as JSON lines (one record per line, sorted keys)."""
    def spill(records: list[Record]) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for rec in records:
                handle.write(json.dumps(
                    {"time": rec.time, "category": rec.category,
                     "subject": rec.subject, "data": rec.data},
                    sort_keys=True) + "\n")
    return spill


def _record_stream(count: int) -> list[Record]:
    """A spill-shaped stream over a handful of hot signals."""
    return [Record(i * 100, "task.complete", f"T{i % 8}",
                   {"response": i % 1000})
            for i in range(count)]


def _time_spill(records: list[Record], repeats: int = 3) -> dict:
    """events/sec of the JSONL spill vs the MTF writer, same stream."""
    def best(write_once) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            write_once()
            times.append(time.perf_counter() - start)
        return min(times)

    with tempfile.TemporaryDirectory() as tmp:
        def jsonl_once(counter=[0]):
            counter[0] += 1
            path = os.path.join(tmp, f"spill{counter[0]}.jsonl")
            spill = jsonl_spill(path)
            for offset in range(0, len(records), 4096):
                spill(records[offset:offset + 4096])

        def mtf_once(counter=[0]):
            counter[0] += 1
            path = os.path.join(tmp, f"spill{counter[0]}.mtf")
            with MtfWriter(path, chunk_records=4096) as writer:
                for offset in range(0, len(records), 4096):
                    writer.write_batch(records[offset:offset + 4096])

        jsonl_s = best(jsonl_once)
        mtf_s = best(mtf_once)
    count = len(records)
    return {
        "events": count,
        "jsonl_s": round(jsonl_s, 6),
        "mtf_s": round(mtf_s, 6),
        "jsonl_events_per_s": round(count / jsonl_s, 0),
        "mtf_events_per_s": round(count / mtf_s, 0),
        "speedup": round(jsonl_s / mtf_s, 2),
    }


def _time_detached_overhead(horizon: int, repeats: int = 3) -> dict:
    """Wall time of a run with an attached-but-idle service vs bare."""
    def bare() -> float:
        system = generate(SEED, "small")
        built = build_system(system)
        start = time.perf_counter()
        built.sim.run_until(horizon)
        return time.perf_counter() - start

    def attached() -> float:
        system = generate(SEED, "small")
        built = build_system(system)
        service = MeasurementService.attach(built, system)
        service.connect()  # connected, but no DAQ list started
        start = time.perf_counter()
        built.sim.run_until(horizon)
        elapsed = time.perf_counter() - start
        service.detach()
        return elapsed

    bare_s = min(bare() for _ in range(repeats))
    attached_s = min(attached() for _ in range(repeats))
    return {
        "horizon_ms": horizon // ms(1),
        "bare_s": round(bare_s, 6),
        "attached_s": round(attached_s, 6),
        "overhead": round(attached_s / bare_s, 4),
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run(quick: bool = False) -> list[dict]:
    registry_seeds = 4 if quick else 10
    daq_systems = 2 if quick else 4
    stream_size = 20_000 if quick else 200_000
    horizon = ms(100) if quick else ms(400)

    registry_digests = _registry_parity(registry_seeds)
    daq_digest = _daq_parity(daq_systems, period=us(500))
    records = _record_stream(stream_size)
    with tempfile.TemporaryDirectory() as tmp:
        _mtf_roundtrip(records, os.path.join(tmp, "roundtrip.mtf"))

    spill = _time_spill(records)
    overhead = _time_detached_overhead(horizon)

    path = write_bench({
        "bench": "e19_meas",
        "quick": quick,
        "determinism": {
            "registry_seeds": registry_seeds,
            "registry_digest_0": registry_digests[0],
            "daq_systems": daq_systems,
            "daq_digest": daq_digest,
            "mtf_roundtrip_records": stream_size,
            "ok": True,
        },
        "spill": spill,
        "overhead": overhead,
        "gates": {
            "mtf_speedup_floor": MTF_SPEEDUP_FLOOR,
            "detached_overhead_ceil": DETACHED_OVERHEAD_CEIL,
            "enforced": not quick,
            "mtf_ok": spill["speedup"] >= MTF_SPEEDUP_FLOOR,
            "overhead_ok": overhead["overhead"] <= DETACHED_OVERHEAD_CEIL,
        },
    })

    rows = [
        {"row": "determinism: registry digests",
         "value": f"{registry_seeds} seeds stable across rebuilds"},
        {"row": "determinism: daq jobs parity",
         "value": f"{daq_systems} systems identical jobs=1/jobs=4"},
        {"row": "determinism: mtf round-trip",
         "value": f"{stream_size} records write->seek->read identical"},
        {"row": "spill jsonl",
         "value": f"{spill['jsonl_events_per_s']:.0f} events/s"},
        {"row": "spill mtf",
         "value": (f"{spill['mtf_events_per_s']:.0f} events/s "
                   f"({spill['speedup']:.2f}x)")},
        {"row": "detached service overhead",
         "value": f"{(overhead['overhead'] - 1) * 100:+.2f}%"},
        {"row": "trajectory", "value": os.path.relpath(path, REPO_ROOT)},
        {"row": "_quick", "value": str(quick)},
        {"row": "_mtf_speedup", "value": str(spill["speedup"])},
        {"row": "_overhead", "value": str(overhead["overhead"])},
    ]
    return rows


def check(rows: list[dict]) -> None:
    by_row = {row["row"]: row["value"] for row in rows}
    # Determinism already asserted inside run().  Timing gates apply to
    # full runs only.
    if by_row["_quick"] == "True":
        return
    mtf_speedup = float(by_row["_mtf_speedup"])
    overhead = float(by_row["_overhead"])
    assert mtf_speedup >= MTF_SPEEDUP_FLOOR, (
        f"MTF write throughput {mtf_speedup}x JSONL is below the "
        f"{MTF_SPEEDUP_FLOOR}x acceptance floor")
    assert overhead <= DETACHED_OVERHEAD_CEIL, (
        f"detached measurement service costs {overhead}x bare run time, "
        f"above the {DETACHED_OVERHEAD_CEIL}x ceiling")


TITLE = (f"E19: measurement & calibration plane "
         f"(seed {SEED}, MTF vs JSONL spill)")


def bench_e19_meas(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    check(rows)
    print_table(TITLE, [r for r in rows if not r["row"].startswith("_")])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller populations, determinism asserts "
                             "only (timing measured and recorded, never "
                             "gated)")
    options = parser.parse_args()
    table_rows = run(quick=options.quick)
    check(table_rows)
    print_table(TITLE, [r for r in table_rows
                        if not r["row"].startswith("_")])
