"""Progress and metrics channel for plan executions.

The pool reports every item event to a :class:`ProgressMeter`; the
meter aggregates them into the operational numbers a long campaign is
steered by — items (cells, systems) done / total, items per second, an
ETA extrapolated from the realised rate, and the wall time each worker
process has spent on completed items (the load-balance view).

The meter is observational only: it never influences scheduling, so
attaching one (or printing live lines through ``emit``) cannot change
a run's results.  Live output goes through the ``emit`` callback —
callers wire it to ``stderr`` so report output on ``stdout`` stays
byte-identical with and without progress display.
"""

from __future__ import annotations

import time
from typing import Callable, Optional


class ProgressMeter:
    """Aggregates item completions into rate / ETA / per-worker stats."""

    def __init__(self, total_items: int,
                 clock: Callable[[], float] = time.monotonic,
                 emit: Optional[Callable[[str], None]] = None):
        self.total_items = total_items
        self._clock = clock
        self._emit = emit
        self._started_at = clock()
        self.items_done = 0
        self.items_resumed = 0
        self.items_failed = 0
        #: worker pid -> accumulated wall time over its completed items.
        self.worker_wall: dict[int, float] = {}
        self.worker_items: dict[int, int] = {}

    # -- events reported by the pool -----------------------------------
    def item_resumed(self) -> None:
        """An item recovered from the journal (resume) — not re-run.

        Resumed items are recovered work, not throughput: they are kept
        out of :attr:`items_per_second` and :attr:`eta_seconds` (which
        describe *this* run) and reported as their own number, so a
        resumed campaign shows an honest rate instead of one inflated by
        journal replay.
        """
        self.items_resumed += 1

    def item_done(self, elapsed: float, worker: int) -> None:
        self.items_done += 1
        self.worker_wall[worker] = self.worker_wall.get(worker, 0.0) + elapsed
        self.worker_items[worker] = self.worker_items.get(worker, 0) + 1
        if self._emit is not None:
            self._emit(self.format_line())

    def item_failed(self) -> None:
        self.items_failed += 1
        if self._emit is not None:
            self._emit(self.format_line())

    # -- derived metrics ------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Wall time since the meter was created (this run only)."""
        return self._clock() - self._started_at

    @property
    def items_per_second(self) -> Optional[float]:
        """Realised throughput of this run (resumed items excluded)."""
        if self.items_done == 0 or self.elapsed <= 0:
            return None
        return self.items_done / self.elapsed

    @property
    def eta_seconds(self) -> Optional[float]:
        """Remaining wall time at the realised rate."""
        rate = self.items_per_second
        if rate is None:
            return None
        remaining = self.total_items - self.items_done - self.items_resumed
        return max(0.0, remaining / rate)

    def snapshot(self) -> dict:
        """All metrics as one plain dict."""
        rate = self.items_per_second
        eta = self.eta_seconds
        return {
            "items_total": self.total_items,
            "items_done": self.items_done,
            "items_resumed": self.items_resumed,
            "items_failed": self.items_failed,
            "elapsed_s": round(self.elapsed, 6),
            "items_per_s": None if rate is None else round(rate, 3),
            "eta_s": None if eta is None else round(eta, 3),
            "workers": {
                pid: {"items": self.worker_items[pid],
                      "wall_s": round(self.worker_wall[pid], 6)}
                for pid in sorted(self.worker_wall)
            },
        }

    def format_line(self) -> str:
        """One-line human-readable status (for live ``emit`` output)."""
        finished = self.items_done + self.items_resumed + self.items_failed
        rate = self.items_per_second
        eta = self.eta_seconds
        parts = [f"[{finished}/{self.total_items} items]"]
        if self.items_resumed:
            parts.append(f"({self.items_resumed} resumed)")
        if rate is not None:
            parts.append(f"{rate:.1f} items/s")
        if eta is not None:
            parts.append(f"eta {eta:.1f}s")
        if self.items_failed:
            parts.append(f"{self.items_failed} failed")
        return " ".join(parts)
