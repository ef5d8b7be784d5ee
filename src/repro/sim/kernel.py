"""Discrete-event simulation kernel.

The kernel is deliberately small: one heap of timestamped callbacks and a
``now`` cursor.  All time is integer nanoseconds (:mod:`repro.units`),
so event ordering is exact and runs are reproducible.

Ties are broken by (priority, sequence number): events scheduled at the same
instant fire in ascending priority, then insertion order.  This makes
simultaneous hardware events (e.g. two CAN controllers requesting the bus on
the same bit edge) deterministic without hidden dependence on heap internals.

Every event is one ``[time, priority, seq, callback]`` list on that
heap: :meth:`Simulator.schedule_at` pushes it and returns the same list
as the event's handle, and the dispatch loop pops it inline, so an event
costs one allocation, one push and one pop and no queue method call.
The lists compare in C and ``seq`` is unique, so the callback is never
compared.  :meth:`Simulator.cancel` sets the callback slot to ``None``
and dispatch skips such an entry when it reaches the top (the heapq
documentation's "mark removed" recipe), so cancelling is O(1) and never
re-heapifies.  There is no per-instant bucket: the pipeline workloads
dispatch 1.2–2.3 events per distinct instant, so most buckets would hold
one event and cost more than the heap entries they save (EXPERIMENTS
E17, E22).  ``tests/kernel_reference.py`` holds an independent reference
that fires the smallest live ``(time, priority, seq)`` by linear search;
``tests/test_kernel_queue.py`` pins event order and trace digests against
it.

``run_until`` and ``run`` share one dispatch loop.  Events a callback
schedules *at the current instant* go onto the same heap and interleave
by (priority, seq) with the ones already waiting.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional

from repro import obs
from repro.errors import SimulationError


class Simulator:
    """Event-driven simulator with integer-nanosecond virtual time.

    Typical use::

        sim = Simulator()
        sim.schedule(1000, lambda: print("fired at", sim.now))
        sim.run_until(10_000)
    """

    def __init__(self):
        self.now: int = 0
        #: total events executed (introspection / throughput metrics).
        self.executed: int = 0
        self._heap: list[list] = []
        self._seq = itertools.count()
        self._stopped = False
        #: Job numbers of this world, shared by every OSEK kernel that
        #: runs on it (:class:`repro.osek.task.Job`), so a job's number
        #: does not depend on what ran earlier in the process.
        self.job_seq = itertools.count()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[[], Any],
                 priority: int = 0) -> list:
        """Schedule ``callback`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, priority)

    def schedule_at(self, time: int, callback: Callable[[], Any],
                    priority: int = 0) -> list:
        """Schedule ``callback`` to run at absolute time ``time``.

        Returns the event's heap entry, ``[time, priority, seq,
        callback]``, as its handle for :meth:`cancel`.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}")
        entry = [time, priority, next(self._seq), callback]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, handle: list) -> None:
        """Prevent the event ``handle`` from firing.  Safe to call more
        than once, and after the event has fired."""
        handle[3] = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, horizon: float,
                  limit: Optional[int]) -> tuple[int, int]:
        """Run events due at or before ``horizon`` until ``limit`` have
        fired, the heap runs dry or :meth:`stop` is called.

        Returns (events run, distinct instants among them).  ``now``
        moves only when an event's time differs from the previous one's.
        Cancelled entries (callback ``None``) are dropped as they reach
        the top.
        """
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        events = instants = 0
        previous = None
        while heap and not self._stopped and events != limit:
            if heap[0][0] > horizon:
                break
            time, _, _, callback = pop(heap)
            if callback is None:
                continue
            if time != previous:
                previous = self.now = time
                instants += 1
            events += 1
            self.executed += 1
            callback()
        return events, instants

    def run_until(self, horizon: int) -> None:
        """Run all events with time <= ``horizon``; leave ``now`` at the
        horizon even if the heap drains early."""
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
        """Run until the heap drains (or ``max_events`` fire).

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
        return sum(1 for entry in self._heap if entry[3] is not None)

    def __repr__(self) -> str:
        return f"<Simulator now={self.now} pending={self.pending}>"
