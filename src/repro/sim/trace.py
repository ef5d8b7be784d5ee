"""Trace recording and querying.

Every simulated subsystem (OS kernel, buses, NoC, BSW services) reports what
happened through a :class:`Trace`: a flat, time-ordered store of records.
Analyses over traces (response times, jitter, end-to-end latencies) live in
:mod:`repro.sim.trace` so that simulation results and analytic bounds can be
compared with the same vocabulary.  A trace keeps every record of its run,
so a bound check reads all of its observations, never a retained tail.

**Layout.**  A trace is a column store: four parallel lists, ``time``,
``category``, ``subject`` and ``data``, one row per logged record.
:meth:`Trace.log` appends to each and does nothing else.  Readers get
:class:`Record` tuples built from the columns when they ask, and only
for the rows they ask for.

**Why columns.**  Simulations log about two records for every three
events, and most records are never read back (a resilience run reads
about 0.1% of them).  A :class:`Record` is a tuple subclass, which CPython's cyclic
garbage collector tracks, so a trace of records kept every one of them
on the collector's lists, to be walked again by each older-generation
collection.  The columns add no tracked object per row: ints and
strings are atomic, and the keyword ``data`` dict of ints and strings
a simulation logs is untracked too (EXPERIMENTS E27).

**Index on read.**  A query first indexes the rows logged since the
last query, in one pass from a watermark, as ``category -> [row]``.  A
category's ``subject -> [row]`` index is built on its first subject
query, and the same pass keeps it current afterwards.  A query in
mid-run therefore sees every record logged so far, and a run nobody
queries builds no index.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, repeat
from typing import Any, Callable, Container, Iterator, NamedTuple, Optional

from repro.digest import canonical_digest


class Record(NamedTuple):
    """One traced occurrence.

    ``category`` is a dotted event kind such as ``"task.activate"`` or
    ``"bus.tx_done"``; ``subject`` names the entity (task name, frame id);
    ``data`` carries event-specific details.

    A record is an immutable named tuple built from the trace's columns
    when it is read: assigning a field raises ``AttributeError``.  Being
    a tuple, a record also compares equal to the plain tuple ``(time,
    category, subject, data)``.
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
    """Append-only, unbounded column store with simple query helpers.

    :meth:`records` and :meth:`select` answer from the category index
    (see the module docstring) and build :class:`Record` objects only
    for the rows they return, in log order, as a fresh list.
    """

    def __init__(self):
        self._time: list[int] = []
        self._category: list[str] = []
        self._subject: list[str] = []
        self._data: list[dict] = []
        #: Rows below this position are in the index.
        self._indexed = 0
        self._by_category: dict[str, list[int]] = {}
        #: category -> subject -> rows, for categories queried by subject.
        self._by_subject: dict[str, dict[str, list[int]]] = {}

    def log(self, time: int, category: str, subject: str, **data: Any) -> None:
        """Append one record.  ``time`` must be non-decreasing per caller
        discipline; the trace itself does not enforce global ordering."""
        self._time.append(time)
        self._category.append(category)
        self._subject.append(subject)
        self._data.append(data)

    def __len__(self) -> int:
        return len(self._time)

    def __iter__(self) -> Iterator[Record]:
        return map(_new_record, repeat(Record),
                   zip(self._time, self._category, self._subject,
                       self._data))

    def _rows(self, rows) -> list[Record]:
        """The records at positions ``rows``, in that order."""
        time, category = self._time, self._category
        subject, data = self._subject, self._data
        return [_new_record(Record, (time[i], category[i], subject[i],
                                     data[i])) for i in rows]

    def _index(self) -> None:
        """Index the rows logged since the last query."""
        start = self._indexed
        end = len(self._category)
        if start == end:
            return
        by_category = self._by_category
        for row, category in enumerate(self._category[start:end], start):
            rows = by_category.get(category)
            if rows is None:
                by_category[category] = [row]
            else:
                rows.append(row)
        for category, by_subject in self._by_subject.items():
            rows = by_category.get(category, ())
            self._index_subjects(by_subject, rows[bisect_left(rows, start):])
        self._indexed = end

    def _index_subjects(self, by_subject: dict[str, list[int]],
                        rows) -> None:
        """Append ``rows`` (of one category) to its subject index."""
        subjects = self._subject
        for row in rows:
            subject_rows = by_subject.get(subjects[row])
            if subject_rows is None:
                by_subject[subjects[row]] = [row]
            else:
                subject_rows.append(row)

    def records(self, category: str,
                subject: Optional[str] = None,
                predicate: Optional[Callable[[Record], bool]] = None
                ) -> list[Record]:
        """Records of exactly ``category`` (and ``subject``, when given)
        that pass ``predicate``, in log order, as a fresh list.

        ``category`` is matched exactly: ``"task"`` does not match
        ``"task.activate"``.
        """
        self._index()
        if subject is None:
            rows = self._by_category.get(category, ())
        else:
            by_subject = self._by_subject.get(category)
            if by_subject is None:
                by_subject = self._by_subject[category] = {}
                self._index_subjects(by_subject,
                                     self._by_category.get(category, ()))
            rows = by_subject.get(subject, ())
        if predicate is None:
            return self._rows(rows)
        return [rec for rec in self._rows(rows) if predicate(rec)]

    def select(self, categories: Container[str]) -> list[Record]:
        """Records whose category is in ``categories``, in log order, as
        a fresh list.

        ``categories`` is asked ``category in categories`` once per
        distinct category logged, so it may be a set of names or any
        object whose ``__contains__`` picks a family of categories.
        """
        self._index()
        picked = [rows for category, rows in self._by_category.items()
                  if category in categories]
        if len(picked) == 1:
            return self._rows(picked[0])
        return self._rows(sorted(chain.from_iterable(picked)))

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
        simulator), so without it a finished world's rows would wait for
        the cyclic garbage collector.  Cleared, they are freed by
        reference counting at once (EXPERIMENTS E26).
        """
        for column in (self._time, self._category, self._subject,
                       self._data):
            column.clear()
        self._indexed = 0
        self._by_category.clear()
        self._by_subject.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dicts(self) -> list[dict]:
        """Flat dict rows (time/category/subject + data keys), for
        post-processing with external tooling."""
        rows = []
        for time, category, subject, data in zip(
                self._time, self._category, self._subject, self._data):
            row = {"time": time, "category": category, "subject": subject}
            row.update(data)
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
            for time, category, subject, data in zip(
                    self._time, self._category, self._subject, self._data):
                writer.writerow([time, category, subject,
                                 ";".join(f"{k}={v}"
                                          for k, v in data.items())])
        return len(self)

    def __repr__(self) -> str:
        return f"<Trace {len(self)} records>"


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
