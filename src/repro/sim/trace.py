"""Trace recording and querying.

Every simulated subsystem (OS kernel, buses, NoC, BSW services) reports what
happened through a :class:`Trace`: a flat, time-ordered list of records.
Analyses over traces (response times, jitter, end-to-end latencies) live in
:mod:`repro.sim.trace` so that simulation results and analytic bounds can be
compared with the same vocabulary.  A trace keeps every record of its run,
so a bound check reads all of its observations, never a retained tail.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Iterator, NamedTuple, Optional

from repro.digest import canonical_digest


class Record(NamedTuple):
    """One traced occurrence.

    ``category`` is a dotted event kind such as ``"task.activate"`` or
    ``"bus.tx_done"``; ``subject`` names the entity (task name, frame id);
    ``data`` carries event-specific details.

    A record is an immutable named tuple: assigning a field raises
    ``AttributeError``, and building one is a single tuple allocation,
    which matters because simulations log close to one record per
    event.  Being a tuple, a record also compares equal to the plain
    tuple ``(time, category, subject, data)``.
    """

    time: int
    category: str
    subject: str
    data: dict

    def get(self, key: str, default=None):
        """Tolerant access to an optional ``data`` key (never raises)."""
        return self.data.get(key, default)


#: ``Record(...)`` goes through a Python-level ``__new__``; building the
#: tuple directly makes the same record without that call.
_new_record = tuple.__new__


class Trace:
    """Append-only, unbounded record store with simple query helpers.

    Beside the record list the trace keeps an index, appended in
    :meth:`log`: ``category -> [Record]`` and ``(category, subject) ->
    [Record]``, both in log order and holding references to the same
    record objects.  :meth:`records` answers every query from that
    index, so bound checks over a long run never rescan it.
    """

    def __init__(self):
        self._records: list[Record] = []
        self._by_category: defaultdict[str, list[Record]] = \
            defaultdict(list)
        self._by_subject: defaultdict[tuple[str, str], list[Record]] = \
            defaultdict(list)

    def log(self, time: int, category: str, subject: str, **data: Any) -> None:
        """Append one record.  ``time`` must be non-decreasing per caller
        discipline; the trace itself does not enforce global ordering."""
        record = _new_record(Record, (time, category, subject, data))
        self._records.append(record)
        self._by_category[category].append(record)
        self._by_subject[category, subject].append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def records(self, category: str,
                subject: Optional[str] = None,
                predicate: Optional[Callable[[Record], bool]] = None
                ) -> list[Record]:
        """Records of exactly ``category`` (and ``subject``, when given)
        that pass ``predicate``, in log order, as a fresh list.

        ``category`` is matched exactly: ``"task"`` does not match
        ``"task.activate"``.  The answer is that category's index list,
        or its ``(category, subject)`` list, filtered by ``predicate``;
        a query never adds a key to the index.
        """
        if subject is None:
            candidates = self._by_category.get(category, ())
        else:
            candidates = self._by_subject.get((category, subject), ())
        if predicate is None:
            return list(candidates)
        return [rec for rec in candidates if predicate(rec)]

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
        """Discard all records.

        A pipeline worker calls this on its world's trace once it has
        read what it needs.  A simulated world is a reference cycle (the
        simulator heap holds callbacks bound to components that hold the
        simulator), so without it a finished world's records would wait
        for the cyclic garbage collector, which must then traverse them.
        Cleared, they are freed by reference counting at once
        (EXPERIMENTS E26).
        """
        self._records.clear()
        self._by_category.clear()
        self._by_subject.clear()

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
        the kernel parity tests pin (kernel and reference dispatch must
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
