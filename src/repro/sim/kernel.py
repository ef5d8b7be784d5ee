"""Discrete-event simulation kernel.

The kernel is deliberately small: a queue of timestamped callbacks and a
``now`` cursor.  All time is integer nanoseconds (:mod:`repro.units`),
so event ordering is exact and runs are reproducible.

Ties are broken by (priority, sequence number): events scheduled at the same
instant fire in ascending priority, then insertion order.  This makes
simultaneous hardware events (e.g. two CAN controllers requesting the bus on
the same bit edge) deterministic without hidden dependence on heap internals.

The queue is a :class:`BucketEventQueue`: an int-heap of *distinct*
timestamps over per-timestamp buckets.  Simulated workloads are
dominated by same-instant bursts (every task release at a hyperperiod
boundary, every CAN controller reacting to the same bus edge), and a
bucket turns each burst into O(1) list appends and cursor bumps instead
of O(log n) heap churn per event.  A bucket stays a plain FIFO list
while every event in it shares one priority — the overwhelmingly common
case — and converts itself to a (priority, seq) heap on the first
mixed-priority push.  ``tests/kernel_reference.py`` holds the plain
single-heap reference that ``tests/test_kernel_queue.py`` pins event
order and trace digests against.

``run_until`` and ``run`` share one dispatch loop that makes one queue
call per event: :meth:`BucketEventQueue.pop` removes and returns the
next live event due at or before the horizon.  Events a callback
schedules *at the current instant* therefore interleave by
(priority, seq) with the ones already waiting, exactly as popping one
global heap would.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional

from repro import obs
from repro.errors import SimulationError


class EventHandle:
    """Handle to a scheduled event, usable for cancellation.

    Cancellation is lazy: the queue entry stays in place but is skipped
    when popped.  This keeps ``cancel`` O(1).
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled")

    def __init__(self, time: int, priority: int, seq: int,
                 callback: Callable[[], Any]):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} prio={self.priority} {state}>"


class _Bucket:
    """Events of one timestamp.

    Lives as a FIFO list (``items`` + ``head`` cursor) while every
    event pushed so far shares one priority — seq order *is* priority
    order then, and push/pop are O(1) appends and cursor bumps.  The
    first push with a different priority converts the unconsumed tail
    into a (priority, seq, handle) heap; ``heap is not None`` marks
    the converted state.
    """

    __slots__ = ("items", "head", "heap")

    def __init__(self, handle: EventHandle):
        self.items: list[EventHandle] = [handle]
        self.head = 0
        self.heap: Optional[list] = None

    def add(self, handle: EventHandle) -> None:
        if self.heap is not None:
            heapq.heappush(self.heap,
                           (handle.priority, handle.seq, handle))
        elif not self.items \
                or handle.priority == self.items[0].priority:
            # Uniform priority so far (items[0] is a valid witness even
            # when already consumed — FIFO mode implies it shares the
            # bucket's one priority): seq is monotonic, append keeps
            # (priority, seq) order.
            self.items.append(handle)
        else:
            self.heap = [(h.priority, h.seq, h)
                         for h in self.items[self.head:]
                         if not h.cancelled]
            heapq.heapify(self.heap)
            heapq.heappush(self.heap,
                           (handle.priority, handle.seq, handle))
            self.items = []
            self.head = 0

    def pop(self) -> Optional[EventHandle]:
        """Remove and return the next live event; None once drained."""
        heap = self.heap
        if heap is not None:
            while heap:
                handle = heapq.heappop(heap)[2]
                if not handle.cancelled:
                    return handle
            return None
        items = self.items
        head = self.head
        while head < len(items):
            handle = items[head]
            head += 1
            if not handle.cancelled:
                self.head = head
                return handle
        self.head = head
        return None

    @property
    def pending(self) -> int:
        if self.heap is not None:
            return sum(1 for entry in self.heap
                       if not entry[2].cancelled)
        return sum(1 for h in self.items[self.head:] if not h.cancelled)


class BucketEventQueue:
    """Array-backed bucket queue: an int-heap of distinct timestamps
    plus a :class:`_Bucket` per timestamp.

    Heap operations happen per *distinct timestamp*, not per event, and
    compare plain ints instead of handle tuples; every same-instant
    burst beyond the first event costs O(1).  A drained bucket stays in
    place until the next :meth:`pop` finds it empty, so an event
    scheduled back into the current instant joins it.
    """

    __slots__ = ("_times", "_buckets")

    def __init__(self):
        self._times: list[int] = []
        self._buckets: dict[int, _Bucket] = {}

    def push(self, handle: EventHandle) -> None:
        bucket = self._buckets.get(handle.time)
        if bucket is None:
            self._buckets[handle.time] = _Bucket(handle)
            heapq.heappush(self._times, handle.time)
        else:
            bucket.add(handle)

    def pop(self, horizon: float) -> Optional[EventHandle]:
        """Remove and return the next live event due at or before
        ``horizon``; None when there is none.  Cancelled entries and
        drained buckets are dropped on the way."""
        times = self._times
        while times:
            time = times[0]
            if time > horizon:
                return None
            handle = self._buckets[time].pop()
            if handle is not None:
                return handle
            del self._buckets[time]
            heapq.heappop(times)
        return None

    @property
    def pending(self) -> int:
        return sum(bucket.pending for bucket in self._buckets.values())


class Simulator:
    """Event-driven simulator with integer-nanosecond virtual time.

    Typical use::

        sim = Simulator()
        sim.schedule(1000, lambda: print("fired at", sim.now))
        sim.run_until(10_000)

    ``queue`` injects an event-queue instance (anything implementing
    ``push(handle)``, ``pop(horizon)`` and ``pending``); by default a
    fresh :class:`BucketEventQueue` is used.
    """

    def __init__(self, queue=None):
        self.now: int = 0
        #: total events executed (introspection / throughput metrics).
        self.executed: int = 0
        self._queue = queue if queue is not None else BucketEventQueue()
        self._seq = itertools.count()
        self._stopped = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[[], Any],
                 priority: int = 0) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, priority)

    def schedule_at(self, time: int, callback: Callable[[], Any],
                    priority: int = 0) -> EventHandle:
        """Schedule ``callback`` to run at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}")
        handle = EventHandle(time, priority, next(self._seq), callback)
        self._queue.push(handle)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, horizon: float,
                  limit: Optional[int]) -> tuple[int, int]:
        """Run events due at or before ``horizon`` until ``limit`` have
        fired, the queue runs dry or :meth:`stop` is called.

        Returns (events run, distinct instants among them).  ``now``
        moves only when an event's time differs from the previous one's.
        """
        self._stopped = False
        pop = self._queue.pop
        events = instants = 0
        previous = None
        while not self._stopped and events != limit:
            handle = pop(horizon)
            if handle is None:
                break
            if handle.time != previous:
                previous = self.now = handle.time
                instants += 1
            events += 1
            self.executed += 1
            handle.callback()
        return events, instants

    def run_until(self, horizon: int) -> None:
        """Run all events with time <= ``horizon``; leave ``now`` at the
        horizon even if the queue drains early."""
        if horizon < self.now:
            raise SimulationError(
                f"horizon {horizon} is before now={self.now}")
        # Telemetry is deliberately coarse here: one counter update per
        # call (events and distinct instants), not per event — the
        # kernel loop is the hottest path in the repo and must not pay
        # a per-event flag check.
        events, instants = self._dispatch(horizon, None)
        if not self._stopped:
            self.now = horizon
        if events:
            obs.count("sim.events", events)
            obs.count("sim.dispatch_batches", instants)

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire).

        Returns the number of events executed.  Guard long-running models
        with ``max_events`` to catch accidental infinite event chains.
        """
        if max_events is not None and max_events < 0:
            raise SimulationError(
                f"max_events must be >= 0 (got {max_events})")
        events, _ = self._dispatch(math.inf, max_events)
        if events:
            obs.count("sim.events", events)
        return events

    def stop(self) -> None:
        """Stop ``run``/``run_until`` after the current event returns."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of scheduled, non-cancelled events."""
        return self._queue.pending

    def __repr__(self) -> str:
        return f"<Simulator now={self.now} pending={self.pending}>"
