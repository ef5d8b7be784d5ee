"""Reference kernel for parity checks.

:class:`ReferenceSimulator` states the kernel's ordering contract as
directly as it can be stated: scheduled events sit in a plain list, and
each dispatch step fires the live event with the smallest
``(time, priority, seq)``, found by a linear search.  It shares no
queue code with :class:`repro.sim.kernel.Simulator`: it overrides the
four members that touch the queue (``schedule_at``, ``cancel``,
``_dispatch`` and ``pending``) and inherits only the public surface
around them (``schedule``, ``run_until``, ``run``, ``stop`` and the
telemetry counters).  Its handles are :class:`EventHandle` objects with
named fields and a ``cancelled`` flag, where the kernel hands out its
heap entries.  The parity tests run the same workloads through both.
"""

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class EventHandle:
    """One scheduled event of the reference; cancelling sets a flag."""

    __slots__ = ("time", "priority", "seq", "callback", "cancelled")

    def __init__(self, time, priority, seq, callback):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} prio={self.priority} {state}>"


def _order(handle):
    return handle.time, handle.priority, handle.seq


class ReferenceSimulator(Simulator):
    """Fires the smallest live (time, priority, seq) event, one linear
    search per event."""

    def __init__(self):
        super().__init__()
        self._events = []

    def schedule_at(self, time, callback, priority=0):
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}")
        handle = EventHandle(time, priority, next(self._seq), callback)
        self._events.append(handle)
        return handle

    def cancel(self, handle):
        handle.cancelled = True

    def _dispatch(self, horizon, limit):
        self._stopped = False
        events = instants = 0
        while not self._stopped and events != limit:
            self._events = [h for h in self._events if not h.cancelled]
            handle = min(self._events, key=_order, default=None)
            if handle is None or handle.time > horizon:
                break
            self._events.remove(handle)
            if events == 0 or handle.time != self.now:
                instants += 1
            self.now = handle.time
            events += 1
            self.executed += 1
            handle.callback()
        return events, instants

    @property
    def pending(self):
        return sum(1 for h in self._events if not h.cancelled)
