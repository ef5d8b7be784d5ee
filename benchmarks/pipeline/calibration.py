"""Machine-speed calibration: time on a shared box in reference seconds.

The benchmark's host shares its cores with other tenants, whose load
slows every process on it, for seconds to minutes at a time.  A fixed
stdlib-only kernel -- a tiny event loop over ``heapq``, slotted objects
and dict counters, touching no code of the program -- run between
pieces of work slows down with the host, so each piece's wall time
times the kernel's relative speed right after it is the piece's time in
*reference seconds*: the seconds it would have taken at the speed the
kernel ran at when :data:`REFERENCE_S` was measured (2-core x86-64 box,
CPython 3.11).  Measured on one fixed work unit alternated with the
kernel for 4 minutes, throughput over 20-second windows spread 5.9% in
wall time and 1.6% in reference time (quartile distance over median).

Program changes cannot move the kernel, so a reference-second metric
moves only when the program does.
"""

from __future__ import annotations

import heapq
import random
import time

#: Median wall time of one :func:`kernel` call on the reference box.
REFERENCE_S = 0.0044
#: Calibration time as a share of the work time it calibrates.
SHARE = 0.1
#: Work seconds accumulated before the next calibration.
SLICE_S = 0.05


class _Event:
    __slots__ = ("time", "seq", "kind")

    def __init__(self, time: int, seq: int, kind: int):
        self.time = time
        self.seq = seq
        self.kind = kind

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def kernel(events: int = 2500) -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    rng = random.Random(12345)
    queue = [_Event(rng.randrange(1000), seq, seq % 7) for seq in range(64)]
    heapq.heapify(queue)
    counts: dict[int, int] = {}
    log = []
    for seq in range(64, events):
        event = heapq.heappop(queue)
        counts[event.kind] = counts.get(event.kind, 0) + 1
        log.append((event.time, event.kind))
        heapq.heappush(queue, _Event(event.time + rng.randrange(1, 1000),
                                     seq, (event.kind * 3 + seq) % 7))
    return len(log) + sum(k * v for k, v in counts.items())


def speed(runs: int) -> tuple[float, float]:
    """(reference seconds per wall second right now, wall seconds spent),
    from ``runs`` kernel calls."""
    start = time.perf_counter()
    for _ in range(runs):
        kernel()
    spent = time.perf_counter() - start
    return REFERENCE_S * runs / spent, spent


class Clock:
    """Accumulates work in wall seconds and in reference seconds,
    calibrating after every :data:`SLICE_S` of work."""

    def __init__(self):
        #: reference seconds of the work accounted so far
        self.ref = 0.0
        #: wall seconds spent calibrating (not work)
        self.spent = 0.0
        #: reference seconds of every item accounted so far, in order
        self.items: list[float] = []
        self._pending = 0.0
        self._pending_items: list[float] = []

    def work(self, seconds: float, item: bool = False,
             flush: bool = False) -> None:
        """Account ``seconds`` of work just done (one item's, when
        ``item``); calibrate when a slice has accumulated, or now when
        ``flush``."""
        self._pending += seconds
        if item:
            self._pending_items.append(seconds)
        if self._pending < SLICE_S and not flush:
            return
        factor, spent = speed(max(1, round(self._pending * SHARE
                                           / REFERENCE_S)))
        self.spent += spent
        self.ref += self._pending * factor
        self.items += [wall * factor for wall in self._pending_items]
        self._pending = 0.0
        self._pending_items = []
