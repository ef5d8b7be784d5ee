"""Trace recording and querying.

Every simulated subsystem (OS kernel, buses, NoC, BSW services) reports what
happened through a :class:`Trace`: a flat, time-ordered list of records.
Analyses over traces (response times, jitter, end-to-end latencies) live in
:mod:`repro.sim.trace` so that simulation results and analytic bounds can be
compared with the same vocabulary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.digest import canonical_digest
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Record:
    """One traced occurrence.

    ``category`` is a dotted event kind such as ``"task.activate"`` or
    ``"bus.tx_done"``; ``subject`` names the entity (task name, frame id);
    ``data`` carries event-specific details.
    """

    time: int
    category: str
    subject: str
    data: dict = field(default_factory=dict)

    def get(self, key: str, default=None):
        """Tolerant access to an optional ``data`` key (never raises)."""
        return self.data.get(key, default)


class Trace:
    """Append-only record store with simple query helpers.

    By default the trace grows without bound — every record of a run is
    queryable, which is what the verification oracle and the invariants
    need.  Long soak simulations can instead cap memory with
    ``max_records``: when the trace exceeds the cap, the oldest quarter
    (plus any excess) is evicted, optionally handed to a ``spill``
    target first.  The target is either a plain callable (e.g.
    :func:`jsonl_spill` to stream records to disk) or a writer object
    with ``write_batch()`` — and optionally ``close()`` — such as
    :class:`repro.meas.mtf.MtfWriter`.  Queries then see only the
    retained tail; :attr:`spilled` counts what was evicted.
    :meth:`close` spills the retained tail too, so end-of-run records
    are never silently dropped.  With both parameters at their
    defaults the behaviour is exactly the historical unbounded one.
    """

    def __init__(self, max_records: Optional[int] = None,
                 spill=None):
        if max_records is not None and max_records < 4:
            raise ConfigurationError(
                f"max_records must be >= 4, got {max_records}")
        self._records: list[Record] = []
        self._max_records = max_records
        self._spill_target = spill
        self._spill = as_spill_sink(spill)
        #: number of records evicted by the bound (0 in unbounded mode).
        self.spilled = 0
        self._closed = False

    def log(self, time: int, category: str, subject: str, **data: Any) -> None:
        """Append one record.  ``time`` must be non-decreasing per caller
        discipline; the trace itself does not enforce global ordering."""
        self._records.append(Record(time, category, subject, data))
        if self._max_records is not None \
                and len(self._records) > self._max_records:
            # Evict down to 3/4 of the cap in one batch, so the
            # amortised per-log cost stays O(1) instead of shifting the
            # whole list on every append at the boundary.
            keep = (self._max_records * 3) // 4
            evicted = self._records[:len(self._records) - keep]
            if self._spill is not None:
                self._spill(evicted)
            self.spilled += len(evicted)
            del self._records[:len(evicted)]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def records(self, category: Optional[str] = None,
                subject: Optional[str] = None,
                predicate: Optional[Callable[[Record], bool]] = None
                ) -> list[Record]:
        """Filtered view of the trace.

        ``category`` matches exactly or as a dotted prefix (``"task"``
        matches ``"task.activate"``).
        """
        out = []
        for rec in self._records:
            if category is not None and not _category_matches(rec.category,
                                                              category):
                continue
            if subject is not None and rec.subject != subject:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def times(self, category: str, subject: Optional[str] = None) -> list[int]:
        """Timestamps of matching records."""
        return [r.time for r in self.records(category, subject)]

    def data_values(self, category: str, key: str,
                    subject: Optional[str] = None) -> list:
        """Values of a ``data`` key over matching records.

        Records lacking the key are skipped rather than raising — a
        partially-instrumented subsystem yields fewer measurements, not
        a crash.
        """
        return [r.data[key] for r in self.records(category, subject)
                if key in r.data]

    # ------------------------------------------------------------------
    # Derived timing metrics
    # ------------------------------------------------------------------
    def spans(self, start_category: str, end_category: str,
              subject: str) -> list[tuple[int, int]]:
        """Pair each start record with the next end record for ``subject``.

        Used for activation→completion (response time) and tx_request→rx
        (message latency) measurements.  Unmatched trailing starts are
        dropped (the job was still running at the end of the horizon).
        """
        starts = self.times(start_category, subject)
        ends = self.times(end_category, subject)
        pairs = []
        ei = 0
        for s in starts:
            while ei < len(ends) and ends[ei] < s:
                ei += 1
            if ei == len(ends):
                break
            pairs.append((s, ends[ei]))
            ei += 1
        return pairs

    def response_times(self, subject: str,
                       start_category: str = "task.activate",
                       end_category: str = "task.complete") -> list[int]:
        """Per-job response times (end - start) for ``subject``."""
        return [e - s for s, e in self.spans(start_category, end_category,
                                             subject)]

    def jitter(self, category: str, subject: str) -> int:
        """Peak-to-peak inter-arrival jitter of matching records.

        Defined as ``max(interval) - min(interval)`` over consecutive
        occurrences; 0 when fewer than three records exist.
        """
        ts = self.times(category, subject)
        if len(ts) < 3:
            return 0
        intervals = [b - a for a, b in zip(ts, ts[1:])]
        return max(intervals) - min(intervals)

    def clear(self) -> None:
        """Discard all records."""
        self._records.clear()

    def close(self) -> None:
        """Flush the retained tail to the spill target and close it.

        Without this, end-of-run records — everything logged since the
        last eviction — would never reach the spill file.  The tail is
        spilled in order after everything already evicted, the target's
        own ``close()`` is called when it has one (e.g. an MTF writer
        sealing its directory), and the trace is emptied.  Idempotent;
        a no-op spill-wise when no spill target is configured."""
        if self._closed:
            return
        if self._spill is not None and self._records:
            self._spill(list(self._records))
            self.spilled += len(self._records)
            self._records.clear()
        closer = getattr(self._spill_target, "close", None)
        if callable(closer):
            closer()
        self._closed = True

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dicts(self) -> list[dict]:
        """Flat dict rows (time/category/subject + data keys), for
        post-processing with external tooling."""
        rows = []
        for rec in self._records:
            row = {"time": rec.time, "category": rec.category,
                   "subject": rec.subject}
            row.update(rec.data)
            rows.append(row)
        return rows

    def digest(self) -> str:
        """SHA-256 over the canonical JSON of :meth:`to_dicts`.

        Two traces digest equal iff they recorded the same events in
        the same order with the same payloads — the equivalence notion
        the kernel-queue parity tests pin (bucket vs heap dispatch must
        be byte-identical, not merely statistically alike).
        """
        return canonical_digest(self.to_dicts(), default=str)

    def save_csv(self, path: str) -> int:
        """Write the trace as CSV (data dict serialized per-key into a
        ``key=value;...`` column); returns the record count."""
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time", "category", "subject", "data"])
            for rec in self._records:
                data = ";".join(f"{k}={v}" for k, v in rec.data.items())
                writer.writerow([rec.time, rec.category, rec.subject,
                                 data])
        return len(self._records)

    def __repr__(self) -> str:
        return f"<Trace {len(self._records)} records>"


def _category_matches(actual: str, wanted: str) -> bool:
    return actual == wanted or actual.startswith(wanted + ".")


def as_spill_sink(spill) -> Optional[Callable[[list], None]]:
    """Normalize a spill target to a batch callable.

    Accepts ``None``, a plain callable, or a writer object exposing
    ``write_batch()`` (the protocol of :class:`repro.meas.mtf.MtfWriter`
    and the DAQ sinks).  Anything else is a configuration error —
    silently ignoring a mistyped sink would drop records."""
    if spill is None:
        return None
    write_batch = getattr(spill, "write_batch", None)
    if callable(write_batch):
        return write_batch
    if callable(spill):
        return spill
    raise ConfigurationError(
        f"spill target {spill!r} is neither callable nor a writer "
        f"with write_batch()")


def jsonl_spill(path: str) -> Callable[[list[Record]], None]:
    """Spill callback for :class:`Trace` that appends evicted records to
    ``path`` as JSON lines (one record per line, sorted keys)."""
    def spill(records: list[Record]) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for rec in records:
                handle.write(json.dumps(
                    {"time": rec.time, "category": rec.category,
                     "subject": rec.subject, "data": rec.data},
                    sort_keys=True) + "\n")
    return spill


def summarize(values: list[int]) -> dict:
    """min/avg/max summary of a list of durations (empty-safe)."""
    if not values:
        return {"count": 0, "min": None, "avg": None, "max": None}
    return {
        "count": len(values),
        "min": min(values),
        "avg": sum(values) / len(values),
        "max": max(values),
    }
