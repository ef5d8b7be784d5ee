"""Progress and metrics channel for plan executions.

The pool reports every chunk event to a :class:`ProgressMeter`; the
meter aggregates them into the operational numbers a long campaign is
steered by — chunks done / total, items (cells, systems) per second,
an ETA extrapolated from the realised rate, and the wall time each
worker process has spent on completed chunks (the load-balance view).

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
    """Aggregates chunk completions into rate / ETA / per-worker stats."""

    def __init__(self, total_chunks: int, total_items: int,
                 clock: Callable[[], float] = time.monotonic,
                 emit: Optional[Callable[[str], None]] = None):
        self.total_chunks = total_chunks
        self.total_items = total_items
        self._clock = clock
        self._emit = emit
        self._started_at = clock()
        self.chunks_done = 0
        self.chunks_failed = 0
        self.chunks_resumed = 0
        self.items_done = 0
        self.items_resumed = 0
        #: worker pid -> accumulated wall time over its completed chunks.
        self.worker_wall: dict[int, float] = {}
        self.worker_chunks: dict[int, int] = {}

    # -- events reported by the pool -----------------------------------
    def chunk_resumed(self, items: int) -> None:
        """A chunk recovered from the journal (resume) — not re-run.

        Resumed cells are recovered work, not throughput: they are kept
        out of :attr:`items_per_second` and :attr:`eta_seconds` (which
        describe *this* run) and reported as their own numbers, so a
        resumed campaign shows an honest rate instead of one inflated by
        journal replay.
        """
        self.chunks_resumed += 1
        self.items_resumed += items

    def chunk_done(self, items: int, elapsed: float, worker: int) -> None:
        self.chunks_done += 1
        self.items_done += items
        self.worker_wall[worker] = self.worker_wall.get(worker, 0.0) + elapsed
        self.worker_chunks[worker] = self.worker_chunks.get(worker, 0) + 1
        if self._emit is not None:
            self._emit(self.format_line())

    def chunk_failed(self) -> None:
        self.chunks_failed += 1
        if self._emit is not None:
            self._emit(self.format_line())

    # -- derived metrics ------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Wall time since the meter was created (this run only)."""
        return self._clock() - self._started_at

    @property
    def items_per_second(self) -> Optional[float]:
        """Realised throughput of this run (resumed chunks excluded)."""
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
        """All metrics as one plain dict (merged into execution results)."""
        rate = self.items_per_second
        eta = self.eta_seconds
        return {
            "chunks_total": self.total_chunks,
            "chunks_done": self.chunks_done,
            "chunks_resumed": self.chunks_resumed,
            "chunks_failed": self.chunks_failed,
            "items_total": self.total_items,
            "items_done": self.items_done,
            "items_resumed": self.items_resumed,
            "elapsed_s": round(self.elapsed, 6),
            "items_per_s": None if rate is None else round(rate, 3),
            "eta_s": None if eta is None else round(eta, 3),
            "workers": {
                pid: {"chunks": self.worker_chunks[pid],
                      "wall_s": round(self.worker_wall[pid], 6)}
                for pid in sorted(self.worker_wall)
            },
        }

    def format_line(self) -> str:
        """One-line human-readable status (for live ``emit`` output)."""
        finished = self.chunks_done + self.chunks_resumed + self.chunks_failed
        rate = self.items_per_second
        eta = self.eta_seconds
        parts = [f"[{finished}/{self.total_chunks} chunks]",
                 f"{self.items_done + self.items_resumed}"
                 f"/{self.total_items} items"]
        if self.items_resumed:
            parts.append(f"({self.items_resumed} resumed)")
        if rate is not None:
            parts.append(f"{rate:.1f} items/s")
        if eta is not None:
            parts.append(f"eta {eta:.1f}s")
        if self.chunks_failed:
            parts.append(f"{self.chunks_failed} failed")
        return " ".join(parts)
