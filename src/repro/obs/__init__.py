"""``repro.obs`` — DLT-style telemetry: metrics, spans, exportable traces.

The paper's basic-software inventory includes error handling and
diagnostics services, and its contract methodology rests on *observing*
resource consumption; this package is that observation substrate for
the whole stack.  Four pieces:

* :mod:`repro.obs.registry` — process-local counters / gauges /
  fixed-bucket histograms with deterministic merge and digest;
* :mod:`repro.obs.spans` — context-manager/decorator profiling spans;
* :mod:`repro.obs.dlt` — the structured log channel for BSW
  error/recovery/watchdog events;
* :mod:`repro.obs.exporters` — Prometheus text, Chrome trace-event
  JSON (``chrome://tracing`` / Perfetto) and JSONL event-log output.

Telemetry is **disabled by default** and every instrumentation helper
bails on one module-flag check, so the instrumented hot paths (sim
kernel, CAN/FlexRay, analysis fixpoints, verify oracle, exec pool) pay
near-zero overhead until someone asks to measure (``repro verify
--metrics``, ``obs.enable()``, or a worker-side capture).

Determinism contract: worker telemetry captured by
:func:`capture` is merged by :mod:`repro.exec` **in plan order**, and
:func:`digest` covers only deterministic instruments (sim-time
quantities, counts — never wall clocks), so the merged telemetry of a
``--jobs N`` run is byte-identical to the ``--jobs 1`` run, exactly
like execution results.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Optional, Sequence

from repro.obs.dlt import (DEBUG, DltChannel, DltRecord, ERROR, FATAL,
                           INFO, SEVERITIES, WARN, severity_for_category)
from repro.obs.exporters import (events_from_jsonl, events_to_jsonl,
                                 parse_prometheus_text, to_chrome_trace,
                                 to_prometheus_text, validate_chrome_trace)
from repro.obs.registry import (Counter, DEFAULT_NS_BUCKETS, Gauge,
                                Histogram, MetricsRegistry, RATIO_BUCKETS)
from repro.obs.spans import NULL_SPAN, Span, SpanRecord, SpanRecorder

__all__ = [
    "enable", "disable", "enabled",
    "count", "gauge_set", "observe", "span", "traced", "dlt",
    "harvest_trace",
    "capture", "Telemetry", "merge_snapshot",
    "snapshot", "digest", "reset",
    "registry", "spans", "dlt_channel",
    "write_prometheus", "write_chrome_trace", "write_events_jsonl",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "DEFAULT_NS_BUCKETS", "RATIO_BUCKETS",
    "SpanRecorder", "SpanRecord", "Span", "NULL_SPAN",
    "DltChannel", "DltRecord", "SEVERITIES",
    "FATAL", "ERROR", "WARN", "INFO", "DEBUG",
    "severity_for_category",
    "to_prometheus_text", "parse_prometheus_text",
    "to_chrome_trace", "validate_chrome_trace",
    "events_to_jsonl", "events_from_jsonl",
]


class _State:
    """One telemetry scope: registry + span recorder + DLT channel."""

    __slots__ = ("registry", "spans", "dlt")

    def __init__(self):
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder()
        self.dlt = DltChannel()


_state = _State()
#: The one flag every instrumentation helper checks first.  Module
#: attribute on purpose: hot call sites may read ``obs._enabled``
#: directly to skip even the helper call.
_enabled = False


def enable() -> None:
    """Turn instrumentation on (idempotent)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn instrumentation off (idempotent); recorded data is kept."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    return _enabled


# ----------------------------------------------------------------------
# Instrumentation helpers (the only API hot paths should use)
# ----------------------------------------------------------------------
def count(name: str, n: int = 1) -> None:
    """Increment counter ``name`` by ``n`` (no-op while disabled)."""
    if _enabled:
        _state.registry.counter(name).inc(n)


def gauge_set(name: str, value) -> None:
    """Set deterministic gauge ``name`` (no-op while disabled)."""
    if _enabled:
        _state.registry.gauge(name).set(value)


def observe(name: str, value,
            buckets: Sequence = DEFAULT_NS_BUCKETS) -> None:
    """Record ``value`` into deterministic histogram ``name`` (no-op
    while disabled)."""
    if _enabled:
        _state.registry.histogram(name, buckets).observe(value)


def span(name: str, category: str = "span", **args):
    """Context manager timing one region; a shared no-op when disabled."""
    if not _enabled:
        return NULL_SPAN
    return Span(name, category, args, _state.spans, _state.registry,
                os.getpid())


def traced(name: Optional[str] = None, category: str = "span"):
    """Decorator form of :func:`span` (span name defaults to the
    function's qualified name)."""
    def decorate(function):
        import functools
        span_name = name if name is not None else function.__qualname__

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return function(*args, **kwargs)
            with span(span_name, category):
                return function(*args, **kwargs)
        return wrapper
    return decorate


def dlt(timestamp: int, severity: str, ecu: str, app_id: str,
        context_id: str, message: str, **payload) -> None:
    """Append a DLT record (no-op while disabled).  Also bumps the
    deterministic ``dlt.<severity>`` counter so DLT volume participates
    in the telemetry digest."""
    if _enabled:
        _state.dlt.log(timestamp, severity, ecu, app_id, context_id,
                       message, **payload)
        _state.registry.counter(f"dlt.{severity}").inc()


def harvest_trace(trace, node: str = "SYS",
                  skip: tuple[str, ...] = ()) -> int:
    """Post-hoc DLT ingestion of a simulation trace's BSW events (no-op
    while disabled); returns the number of records added.  Categories
    under a prefix in ``skip`` are left out
    (:meth:`~repro.obs.dlt.DltChannel.harvest_trace`).  The harvested
    records bump the ``dlt.<severity>`` counters the same way live
    :func:`dlt` emission does, so both paths feed the digest equally."""
    if not _enabled:
        return 0
    before = len(_state.dlt)
    added = _state.dlt.harvest_trace(trace, node, skip)
    for record in _state.dlt.records[before:]:
        _state.registry.counter(f"dlt.{record.severity}").inc()
    return added


# ----------------------------------------------------------------------
# Capture / merge (execution-engine plumbing)
# ----------------------------------------------------------------------
class Telemetry:
    """Handle to a captured scope; valid after the ``with`` block."""

    def __init__(self, state: _State):
        self._captured = state

    def snapshot(self) -> dict:
        """The scope's full telemetry as one JSON-able dict."""
        return {
            "metrics": self._captured.registry.snapshot(),
            "spans": self._captured.spans.snapshot(),
            "dlt": self._captured.dlt.snapshot(),
        }


@contextmanager
def capture():
    """Run the body against a fresh telemetry scope, enabled.

    The ambient scope (and flag) is restored afterwards and is *not*
    polluted: merging the captured snapshot back — in whatever order
    the caller fixes — is the caller's decision.  This is how the
    execution engine isolates per-item telemetry identically whether
    the item runs in-process (``jobs=1``) or in a worker process.
    """
    global _state, _enabled
    previous_state, previous_enabled = _state, _enabled
    fresh = _State()
    _state, _enabled = fresh, True
    try:
        yield Telemetry(fresh)
    finally:
        _state, _enabled = previous_state, previous_enabled


def merge_snapshot(snapshot: dict) -> None:
    """Fold a captured snapshot into the ambient scope.  Merge order is
    the caller's contract (the execution engine uses plan order)."""
    _state.registry.merge(snapshot.get("metrics", {}))
    _state.spans.merge(snapshot.get("spans", []))
    _state.dlt.merge(snapshot.get("dlt", []))


# ----------------------------------------------------------------------
# Ambient-scope access and export
# ----------------------------------------------------------------------
def registry() -> MetricsRegistry:
    return _state.registry


def spans() -> SpanRecorder:
    return _state.spans


def dlt_channel() -> DltChannel:
    return _state.dlt


def snapshot() -> dict:
    return {"metrics": _state.registry.snapshot(),
            "spans": _state.spans.snapshot(),
            "dlt": _state.dlt.snapshot()}


def digest() -> str:
    """Digest of the ambient scope's deterministic telemetry."""
    return _state.registry.digest()


def reset() -> None:
    """Drop all ambient telemetry (flag state is unchanged)."""
    _state.registry.reset()
    _state.spans.clear()
    _state.dlt.clear()


def write_prometheus(path) -> str:
    """Write the ambient metrics as Prometheus text; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_prometheus_text(_state.registry.snapshot()))
    return os.fspath(path)


def write_chrome_trace(path) -> str:
    """Write ambient spans + DLT as Chrome trace-event JSON."""
    trace = to_chrome_trace(_state.spans.snapshot(),
                            _state.dlt.snapshot())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return os.fspath(path)


def write_events_jsonl(path) -> str:
    """Write the ambient telemetry as a JSONL event log."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(events_to_jsonl(_state.registry.snapshot(),
                                     _state.spans.snapshot(),
                                     _state.dlt.snapshot()))
    return os.fspath(path)
