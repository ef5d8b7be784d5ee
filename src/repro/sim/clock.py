"""Local clocks with bounded drift.

Time-triggered protocols rest on the assumption that every node's local
clock stays within a known precision of the global time base.  A
:class:`DriftingClock` models a crystal with a constant ppm deviation plus an
initial offset; :func:`precision` computes the cluster precision the TDMA
design must tolerate (guard times around slots).
"""

from __future__ import annotations

from typing import Iterable

PPM = 1_000_000


class DriftingClock:
    """Converts between global simulation time and a node's local time.

    ``drift_ppm`` > 0 means the local clock runs fast.  A perfect clock is
    ``DriftingClock()``.
    """

    def __init__(self, drift_ppm: float = 0.0, offset_ns: int = 0):
        self.drift_ppm = drift_ppm
        self.offset_ns = offset_ns

    def local_time(self, global_time: int) -> int:
        """Local reading at a given global instant."""
        skew = round(global_time * self.drift_ppm / PPM)
        return global_time + skew + self.offset_ns

    def error_at(self, global_time: int) -> int:
        """Absolute deviation from global time at ``global_time``."""
        return abs(self.local_time(global_time) - global_time)

    def resynchronize(self, global_time: int) -> None:
        """Snap the offset so the local reading equals global time now.

        Models the effect of a clock-synchronization round (e.g. the FTA
        algorithm TTP runs each cluster cycle): accumulated offset is
        cancelled, the rate error remains.
        """
        skew = round(global_time * self.drift_ppm / PPM)
        self.offset_ns = -skew

    def __repr__(self) -> str:
        return (f"<DriftingClock drift={self.drift_ppm}ppm "
                f"offset={self.offset_ns}ns>")


def precision(clocks: Iterable[DriftingClock], resync_interval: int) -> int:
    """Worst-case pairwise clock deviation over one resync interval.

    With resynchronization every ``resync_interval`` ns, each clock drifts at
    most ``|ppm| * interval / 1e6`` between rounds; the cluster precision is
    the maximum pairwise sum, bounded here by twice the largest drift.  TDMA
    slot guard times must exceed this value for slot isolation to hold.
    """
    drifts = [abs(c.drift_ppm) for c in clocks]
    if not drifts:
        return 0
    worst = max(drifts)
    return round(2 * worst * resync_interval / PPM) + 1
