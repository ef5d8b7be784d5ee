"""Reference event queue for kernel parity checks.

The plainest queue that honours the kernel's ordering contract: one
binary heap of ``(time, priority, seq, handle)`` tuples.  The parity
tests and the E17 bench run the same workloads through it and through
the kernel's bucket queue via ``Simulator(queue=HeapEventQueue())``.
"""

import heapq


class HeapEventQueue:
    """Single heap ordered by (time, priority, seq)."""

    def __init__(self):
        self._heap = []

    def push(self, handle):
        heapq.heappush(self._heap, (handle.time, handle.priority,
                                    handle.seq, handle))

    def pop(self, horizon):
        """Remove and return the next live event due at or before
        ``horizon``; None when there is none."""
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            handle = heapq.heappop(heap)[3]
            if not handle.cancelled:
                return handle
        return None

    @property
    def pending(self):
        return sum(1 for entry in self._heap if not entry[3].cancelled)
