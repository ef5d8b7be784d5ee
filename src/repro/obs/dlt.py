"""DLT-inspired structured log channel.

AUTOSAR's Diagnostic Log and Trace module gives every basic-software
event a severity, a timestamp and a (ECU, application, context) id
triple, so off-board tooling can reconstruct *what the error-handling
stack saw* without parsing free-form text.  :class:`DltChannel` is that
substrate for this codebase: the error manager, recovery orchestrator
and watchdog events of :mod:`repro.bsw` land here as structured
records, ordered by a channel-wide monotonic sequence number.

Records carry *simulated* timestamps (integer nanoseconds), so a
channel's content — unlike span wall-times — is fully deterministic and
participates in the telemetry digest via the ``dlt.<severity>``
counters maintained by :mod:`repro.obs`.

Two ingestion paths:

* **live** — :func:`repro.obs.dlt` is called at the emitting site
  (e.g. :meth:`repro.bsw.errors.ErrorManager.report` on confirm/heal);
* **post-hoc** — :meth:`DltChannel.harvest_trace` converts the BSW
  categories of an existing :class:`~repro.sim.trace.Trace` into
  records, for worlds that ran before telemetry was enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# DLT severity levels, most severe first.
FATAL = "fatal"
ERROR = "error"
WARN = "warn"
INFO = "info"
DEBUG = "debug"

SEVERITIES = (FATAL, ERROR, WARN, INFO, DEBUG)

#: Trace category (exact or dotted prefix) -> severity, for harvesting.
#: The inventory mirrors the campaign runner's detector categories plus
#: the DEM/recovery lifecycle events.
TRACE_SEVERITY = (
    ("wdg.violation", FATAL),
    ("task.budget_overrun", ERROR),
    ("dem.confirmed", ERROR),
    ("dem.healed", INFO),
    ("e2e", ERROR),
    ("com.timeout", ERROR),
    ("recovery.escalate", WARN),
    ("recovery.deescalate", INFO),
    ("recovery", WARN),
    ("mode", INFO),
)


@dataclass(frozen=True)
class DltRecord:
    """One structured log entry."""

    seq: int            # channel-wide monotonic sequence number
    timestamp: int      # simulated time, integer nanoseconds
    severity: str
    ecu: str            # emitting node ("SYS" when unknown)
    app_id: str         # emitting module ("DEM", "WDG", "RECOVERY", ...)
    context_id: str     # entity the event is about (event/task/signal)
    message: str
    payload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"seq": self.seq, "timestamp": self.timestamp,
                "severity": self.severity, "ecu": self.ecu,
                "app_id": self.app_id, "context_id": self.context_id,
                "message": self.message, "payload": dict(self.payload)}


def severity_for_category(category: str) -> str:
    """Severity a trace category maps to (default :data:`WARN`)."""
    for prefix, severity in TRACE_SEVERITY:
        if category == prefix or category.startswith(prefix + "."):
            return severity
    return WARN


class _Harvested:
    """The trace categories :meth:`DltChannel.harvest_trace` lifts, as
    the container :meth:`~repro.sim.trace.Trace.select` asks: every
    DEM, watchdog, recovery, mode and E2E category, plus
    ``task.budget_overrun`` and ``com.timeout``, except those under a
    ``skip`` prefix."""

    def __init__(self, skip: tuple[str, ...]):
        self.skip = skip

    def __contains__(self, category: str) -> bool:
        prefix = category.split(".", 1)[0]
        if prefix in self.skip:
            return False
        if prefix == "task":
            return category == "task.budget_overrun"
        if prefix == "com":
            return category == "com.timeout"
        return prefix in ("dem", "wdg", "recovery", "mode", "e2e")


class DltChannel:
    """Ordered store of :class:`DltRecord` entries."""

    def __init__(self):
        self.records: list[DltRecord] = []
        self._seq = 0

    def log(self, timestamp: int, severity: str, ecu: str, app_id: str,
            context_id: str, message: str, **payload) -> DltRecord:
        """Append one record; returns it (with its sequence number)."""
        if severity not in SEVERITIES:
            severity = WARN
        self._seq += 1
        record = DltRecord(self._seq, timestamp, severity, ecu, app_id,
                           context_id, message, payload)
        self.records.append(record)
        return record

    def harvest_trace(self, trace, node: str = "SYS",
                      skip: tuple[str, ...] = ()) -> int:
        """Convert the BSW-relevant records of a simulation trace into
        DLT records (post-hoc ingestion); returns the count added.

        ``trace`` is a :class:`~repro.sim.trace.Trace`, and only the
        categories harvested are read from it.  Categories under a
        prefix in ``skip`` are left out, for a world that already logged
        them live.
        """
        records = trace.select(_Harvested(skip))
        for rec in records:
            self.log(rec.time, severity_for_category(rec.category), node,
                     rec.category.split(".", 1)[0].upper(), rec.subject,
                     rec.category, **rec.data)
        return len(records)

    # -- queries -------------------------------------------------------
    def by_severity(self, severity: str) -> list[DltRecord]:
        return [r for r in self.records if r.severity == severity]

    def severity_counts(self) -> dict[str, int]:
        counts = {severity: 0 for severity in SEVERITIES}
        for record in self.records:
            counts[record.severity] += 1
        return {severity: n for severity, n in counts.items() if n}

    # -- snapshot / merge (execution-engine plumbing) ------------------
    def snapshot(self) -> list[dict]:
        return [record.to_dict() for record in self.records]

    def merge(self, rows: list[dict]) -> None:
        """Append records from a captured snapshot, re-sequencing them
        into this channel's monotonic order (callers merge in plan
        order, so the result is worker-count invariant)."""
        for row in rows:
            self._seq += 1
            self.records.append(DltRecord(
                self._seq, row["timestamp"], row["severity"], row["ecu"],
                row["app_id"], row["context_id"], row["message"],
                dict(row.get("payload", {}))))

    def clear(self) -> None:
        self.records.clear()
        self._seq = 0

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"<DltChannel {len(self.records)} records>"
