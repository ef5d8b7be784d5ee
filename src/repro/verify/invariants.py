"""Pluggable invariants over simulation trace records.

An :class:`Invariant` consumes a stream of :class:`~repro.sim.trace.Record`
objects and reports :class:`Violation` instances whenever the trace shows
behaviour the platform promises can never happen — one CPU running two
jobs at once, a TDMA partition executing outside its windows, an ICPP
ceiling being ignored, an E2E-rejected reception still reaching the
application.  The checkers are pure trace consumers: they can be wired
into *any* simulation (the differential oracle, the fault campaigns, a
hand-built scenario) after the fact, with no coupling to the subsystems
that produced the records.

All record data access is tolerant of missing optional keys — a
partially-instrumented subsystem degrades to "not checked", never to a
crash (see also :meth:`repro.sim.trace.Record.get`).

An invariant sees only the record categories it declares in
:attr:`Invariant.categories`: :class:`InvariantChecker` routes each
record, in invariant order, to the invariants that declare its
category.  When every invariant declares its categories, the checker
reads only their union from the trace
(:meth:`~repro.sim.trace.Trace.select`), so the many CAN, FlexRay and
activation records no invariant reads are never built.  An invariant
that declares no categories (``None``, the default) sees every record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.sim.trace import Record, Trace

#: Trace categories that begin a CPU occupancy interval for a task.
_RUN_BEGIN = ("task.start", "task.resume")
#: Trace categories that end a CPU occupancy interval for a task.
_RUN_END = ("task.preempt", "task.complete", "task.wait",
            "task.budget_overrun")
#: E2E verdicts that must suppress the application-visible reception.
_E2E_BAD = ("e2e.crc_error", "e2e.wrong_sequence", "e2e.repeated")


@dataclass(frozen=True)
class Violation:
    """One observed breach of an invariant."""

    time: int
    invariant: str
    subject: str
    message: str

    def to_dict(self) -> dict:
        """Plain-dict form for deterministic reports."""
        return {"time": self.time, "invariant": self.invariant,
                "subject": self.subject, "message": self.message}


class Invariant:
    """Base class: feed records via :meth:`observe`, then :meth:`finish`.

    Subclasses append to ``self.violations`` as breaches are detected;
    :meth:`finish` may add violations that only become decidable at the
    end of the stream (cross-record joins).
    """

    name = "invariant"
    #: Record categories :meth:`observe` acts on; the checker passes an
    #: invariant only records of these categories.  ``None`` means every
    #: record.
    categories: Optional[frozenset[str]] = None

    def __init__(self):
        self.violations: list[Violation] = []

    def observe(self, record: Record) -> None:
        """Consume one trace record (override)."""

    def finish(self) -> None:
        """Called after the last record (override when needed)."""

    def _flag(self, time: int, subject: str, message: str) -> None:
        self.violations.append(Violation(time, self.name, subject, message))


class NoOverlappingExecution(Invariant):
    """At most one job occupies each ECU's CPU at any time.

    ``task_ecu`` maps task name -> ECU name; tasks not in the map are
    ignored (foreign subsystems sharing the trace).
    """

    name = "no-overlap"
    categories = frozenset(_RUN_BEGIN + _RUN_END)

    def __init__(self, task_ecu: dict[str, str]):
        super().__init__()
        self.task_ecu = dict(task_ecu)
        self._running: dict[str, str] = {}

    def observe(self, record: Record) -> None:
        ecu = self.task_ecu.get(record.subject)
        if ecu is None:
            return
        if record.category in _RUN_BEGIN:
            current = self._running.get(ecu)
            if current is not None:
                self._flag(record.time, record.subject,
                           f"starts on {ecu} while {current} is running")
            self._running[ecu] = record.subject
        elif record.category in _RUN_END:
            if self._running.get(ecu) == record.subject:
                del self._running[ecu]


class TdmaWindowInvariant(Invariant):
    """TDMA slot exclusivity: a partitioned task only executes inside a
    window owned by its partition.

    ``windows`` is a list of ``(start, length, partition)`` tuples within
    ``major_frame``; ``task_partition`` maps task name -> partition.
    Execution intervals are reconstructed from start/resume .. end
    record pairs; each interval must lie inside one window occurrence.
    """

    name = "tdma-window"
    categories = frozenset(_RUN_BEGIN + _RUN_END)

    def __init__(self, windows: Iterable[tuple[int, int, str]],
                 major_frame: int, task_partition: dict[str, str]):
        super().__init__()
        self.windows = [tuple(w) for w in windows]
        self.major_frame = major_frame
        self.task_partition = dict(task_partition)
        self._since: dict[str, int] = {}

    def _window_end(self, begin: int, partition: str) -> Optional[int]:
        """Absolute end of the partition window containing ``begin``."""
        phase = begin % self.major_frame
        base = begin - phase
        for start, length, owner in self.windows:
            if owner == partition and start <= phase < start + length:
                return base + start + length
        return None

    def observe(self, record: Record) -> None:
        partition = self.task_partition.get(record.subject)
        if partition is None:
            return
        if record.category in _RUN_BEGIN:
            self._since[record.subject] = record.time
        elif record.category in _RUN_END:
            begin = self._since.pop(record.subject, None)
            if begin is None:
                return
            end = self._window_end(begin, partition)
            if end is None:
                self._flag(begin, record.subject,
                           f"runs at t={begin} outside every window of "
                           f"partition {partition}")
            elif record.time > end:
                self._flag(record.time, record.subject,
                           f"runs past its {partition} window end "
                           f"({record.time} > {end})")


class PriorityCeilingInvariant(Invariant):
    """ICPP honored: while a resource with ceiling ``c`` is held, no
    other task with base priority <= ``c`` starts on the same ECU.

    ``priorities`` maps task -> base priority; ``ceilings`` maps
    resource name -> ceiling; ``task_ecu`` maps task -> ECU.
    """

    name = "priority-ceiling"
    categories = frozenset(("task.acquire", "task.release") + _RUN_BEGIN)

    def __init__(self, priorities: dict[str, int], ceilings: dict[str, int],
                 task_ecu: dict[str, str]):
        super().__init__()
        self.priorities = dict(priorities)
        self.ceilings = dict(ceilings)
        self.task_ecu = dict(task_ecu)
        #: ECU -> {resource: holder task}
        self._held: dict[str, dict[str, str]] = {}

    def observe(self, record: Record) -> None:
        ecu = self.task_ecu.get(record.subject)
        if ecu is None:
            return
        if record.category == "task.acquire":
            resource = record.data.get("resource")
            if resource is not None:
                self._held.setdefault(ecu, {})[resource] = record.subject
        elif record.category == "task.release":
            resource = record.data.get("resource")
            self._held.get(ecu, {}).pop(resource, None)
        elif record.category in _RUN_BEGIN:
            priority = self.priorities.get(record.subject)
            if priority is None:
                return
            for resource, holder in self._held.get(ecu, {}).items():
                if holder == record.subject:
                    continue
                ceiling = self.ceilings.get(resource, 0)
                if priority <= ceiling:
                    self._flag(
                        record.time, record.subject,
                        f"priority {priority} runs while {holder} holds "
                        f"{resource} (ceiling {ceiling})")


class AliveCounterInvariant(Invariant):
    """The accepted (OK-classified) E2E stream has a monotonically
    advancing alive counter: every consecutive pair of accepted
    receptions differs by ``1..max_delta`` modulo ``modulo``.

    Requires ``e2e.ok`` records to carry a ``counter`` data key; records
    without one are skipped (partially-instrumented receiver).
    """

    name = "alive-counter"
    categories = frozenset(("e2e.ok",))

    def __init__(self, pdu_name: str, modulo: int, max_delta: int = 1):
        super().__init__()
        self.pdu_name = pdu_name
        self.modulo = modulo
        self.max_delta = max_delta
        self._last: Optional[int] = None

    def observe(self, record: Record) -> None:
        if record.category != "e2e.ok" or record.subject != self.pdu_name:
            return
        counter = record.data.get("counter")
        if counter is None:
            return
        if self._last is not None:
            delta = (counter - self._last) % self.modulo
            if not 1 <= delta <= self.max_delta:
                self._flag(record.time, record.subject,
                           f"accepted counter jumped {self._last} -> "
                           f"{counter} (delta {delta} mod {self.modulo})")
        self._last = counter


class E2eContainmentInvariant(Invariant):
    """An E2E verdict other than OK implies no signal update: a bad
    check on a PDU must not co-occur with a ``com.rx`` (application
    delivery) of the same PDU at the same instant."""

    name = "e2e-containment"
    categories = frozenset(_E2E_BAD + ("com.rx",))

    def __init__(self):
        super().__init__()
        self._bad: list[tuple[int, str]] = []
        self._delivered: set[tuple[int, str]] = set()

    def observe(self, record: Record) -> None:
        if record.category in _E2E_BAD:
            self._bad.append((record.time, record.subject))
        elif record.category == "com.rx":
            self._delivered.add((record.time, record.subject))

    def finish(self) -> None:
        for time, subject in self._bad:
            if (time, subject) in self._delivered:
                self._flag(time, subject,
                           "rejected reception still reached the "
                           "application (com.rx at the same instant)")


class InvariantChecker:
    """Runs a set of invariants over a trace and collects violations."""

    def __init__(self, invariants: list[Invariant]):
        self.invariants = list(invariants)

    def _observers(self, category: str) -> tuple[Callable, ...]:
        """``observe`` of each invariant that declares ``category`` (or
        declares none), in invariant order."""
        return tuple(invariant.observe for invariant in self.invariants
                     if invariant.categories is None
                     or category in invariant.categories)

    def run(self, trace: Trace) -> list[Violation]:
        """Feed each record, in invariant order, to the invariants that
        declare its category; returns all violations sorted by (time,
        invariant, subject)."""
        declared = [invariant.categories for invariant in self.invariants]
        records = trace if None in declared \
            else trace.select(frozenset().union(*declared))
        routes: dict[str, tuple[Callable, ...]] = {}
        for record in records:
            observers = routes.get(record.category)
            if observers is None:
                observers = routes[record.category] = \
                    self._observers(record.category)
            for observe in observers:
                observe(record)
        violations: list[Violation] = []
        for invariant in self.invariants:
            invariant.finish()
            violations.extend(invariant.violations)
        return sorted(violations,
                      key=lambda v: (v.time, v.invariant, v.subject))
