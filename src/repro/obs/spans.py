"""Span-based profiling: timed regions with nesting.

A *span* brackets one region of interest — a simulated system run, an
analysis fixpoint, an execution-engine item — and records its
wall-clock start and duration together with a nesting depth and a
per-recorder sequence number.  Spans are the qualitative half of
:mod:`repro.obs` (the metrics registry is the quantitative half): they
feed the Chrome trace-event export that makes a campaign's timeline
loadable in ``chrome://tracing`` / Perfetto.

Wall-clock readings differ run to run, so spans never enter the
telemetry digest directly; instead every finished span increments the
deterministic counter ``span.<name>`` and feeds the *non*-deterministic
histogram ``span.<name>.wall_ns`` in its owning registry.  The span
*sequence* (names, nesting, per-item order) is deterministic because
the execution engine merges worker telemetry in plan order.

The recorder tracks nesting with a plain stack, which is correct for
the single-threaded simulation workers that produce nearly all spans;
concurrent recorders should be process-separated (the execution engine
already does this via per-item capture).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.registry import MetricsRegistry


@dataclass(frozen=True)
class SpanRecord:
    """One finished span."""

    name: str
    category: str
    start_ns: int       # perf_counter_ns at entry (wall clock)
    duration_ns: int
    depth: int          # nesting level at entry (0 = top level)
    seq: int            # completion order within the recorder
    pid: int
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "category": self.category,
                "start_ns": self.start_ns,
                "duration_ns": self.duration_ns, "depth": self.depth,
                "seq": self.seq, "pid": self.pid, "args": dict(self.args)}


class SpanRecorder:
    """Collects finished spans and keeps the live nesting stack."""

    def __init__(self):
        self.records: list[SpanRecord] = []
        self._stack: list[str] = []
        self._seq = 0

    @property
    def depth(self) -> int:
        return len(self._stack)

    def add(self, record: SpanRecord) -> None:
        self.records.append(record)

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def snapshot(self) -> list[dict]:
        return [record.to_dict() for record in self.records]

    def merge(self, spans: list[dict]) -> None:
        """Append spans from a captured snapshot (plan-order merging is
        the caller's responsibility, as with metrics)."""
        for row in spans:
            self.records.append(SpanRecord(
                row["name"], row["category"], row["start_ns"],
                row["duration_ns"], row["depth"], self.next_seq(),
                row["pid"], dict(row.get("args", {}))))

    def clear(self) -> None:
        self.records.clear()
        self._stack.clear()
        self._seq = 0

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"<SpanRecorder {len(self.records)} spans>"


class Span:
    """Context manager measuring one region.  Obtained via
    :func:`repro.obs.span`, never constructed directly in hot paths —
    the factory returns a shared no-op when telemetry is disabled."""

    __slots__ = ("name", "category", "args", "recorder", "registry",
                 "_start", "_depth", "_pid")

    def __init__(self, name: str, category: str, args: dict,
                 recorder: SpanRecorder, registry: MetricsRegistry,
                 pid: int):
        self.name = name
        self.category = category
        self.args = args
        self.recorder = recorder
        self.registry = registry
        self._pid = pid
        self._start = 0
        self._depth = 0

    def __enter__(self) -> "Span":
        self._depth = self.recorder.depth
        self.recorder._stack.append(self.name)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter_ns() - self._start
        self.recorder._stack.pop()
        self.recorder.add(SpanRecord(
            self.name, self.category, self._start, duration, self._depth,
            self.recorder.next_seq(), self._pid, self.args))
        self.registry.counter(f"span.{self.name}").inc()
        self.registry.histogram(f"span.{self.name}.wall_ns",
                                deterministic=False).observe(duration)
        return False


class NullSpan:
    """Shared do-nothing span handed out while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = NullSpan()
