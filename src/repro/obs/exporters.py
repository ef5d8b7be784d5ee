"""Telemetry exporters: Prometheus text, Chrome trace-event JSON, JSONL.

Three formats, three audiences:

* :func:`to_prometheus_text` — the scrape-style metrics dump
  (``--metrics``): counters, gauges and histograms with cumulative
  ``_bucket{le=...}`` lines, parseable back by
  :func:`parse_prometheus_text` (exercised by the round-trip tests and
  ``repro stats``);
* :func:`to_chrome_trace` — span timelines plus DLT instant events as a
  Trace Event Format object (``--trace-out``), loadable in
  ``chrome://tracing`` or Perfetto;
* :func:`events_to_jsonl` — the flat machine-readable event log
  (``--events``): one JSON object per line covering every instrument,
  span and DLT record, read back (and checked line by line) by
  :func:`events_from_jsonl`.

All exporters emit sorted, canonically-separated output, so identical
telemetry produces identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from repro.errors import ConfigurationError

_PROM_PREFIX = "repro_"

#: Quantiles emitted per histogram (reconstructed by interpolation).
_QUANTILES = ("0.5", "0.9", "0.99")


def _histogram_percentile(payload: dict, quantile: float):
    """Percentile of a snapshot-shaped histogram payload, via the same
    bucket interpolation ``repro stats`` uses for its tables."""
    from repro.obs.registry import MetricsRegistry

    scratch = MetricsRegistry()
    histogram = scratch.histogram("scratch", payload["buckets"])
    histogram.counts = list(payload["counts"])
    histogram.count = payload["count"]
    histogram.sum = payload["sum"]
    histogram.min = payload.get("min")
    histogram.max = payload.get("max")
    return histogram.percentile(quantile)


def _prom_name(name: str) -> str:
    """Prometheus metric name: dots and dashes become underscores."""
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return _PROM_PREFIX + cleaned


def _prom_value(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_prometheus_text(snapshot: dict) -> str:
    """Render a registry snapshot as Prometheus exposition text."""
    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, payload in snapshot.get("gauges", {}).items():
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(payload['value'])}")
    for name, payload in snapshot.get("histograms", {}).items():
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(payload["buckets"], payload["counts"]):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {payload["count"]}')
        if payload["count"]:
            for quantile in _QUANTILES:
                value = _histogram_percentile(payload, float(quantile))
                lines.append(f'{metric}{{quantile="{quantile}"}} '
                             f"{_prom_value(value)}")
        lines.append(f"{metric}_sum {_prom_value(payload['sum'])}")
        lines.append(f"{metric}_count {payload['count']}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> dict:
    """Parse :func:`to_prometheus_text` output back into a snapshot-
    shaped dict (used by the round-trip tests and ``repro stats``).

    Only the subset this module emits is understood; unknown lines
    raise, because silently skipping them would make the round-trip
    test vacuous.
    """
    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}
    types: dict[str, str] = {}

    def number(token: str):
        value = float(token)
        return int(value) if value.is_integer() else value

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            __, __, metric, kind = line.split()
            types[metric] = kind
            if kind == "histogram":
                histograms[metric] = {"buckets": [], "counts": [],
                                      "sum": 0, "count": 0,
                                      "min": None, "max": None,
                                      "deterministic": True}
            continue
        if line.startswith("#"):
            continue
        name, __, value_token = line.rpartition(" ")
        if "{" in name:
            metric, __, label = name.partition("{")
            token = label.split('"')[1]
            if metric.endswith("_bucket"):
                metric = metric[:-len("_bucket")]
                if token != "+Inf":
                    histograms[metric]["buckets"].append(number(token))
                    histograms[metric]["counts"].append(
                        number(value_token))
            elif label.startswith("quantile=") and metric in histograms:
                histograms[metric].setdefault("quantiles", {})[token] = (
                    None if value_token == "NaN"
                    else number(value_token))
            else:
                raise ConfigurationError(
                    f"unparseable metrics line: {line!r}")
            continue
        if name.endswith("_sum") and name[:-4] in histograms:
            histograms[name[:-4]]["sum"] = number(value_token)
        elif name.endswith("_count") and name[:-6] in histograms:
            histograms[name[:-6]]["count"] = number(value_token)
        elif types.get(name) == "counter":
            counters[name] = number(value_token)
        elif types.get(name) == "gauge":
            token = number(value_token) if value_token != "NaN" else None
            gauges[name] = {"value": token, "deterministic": True}
        else:
            raise ConfigurationError(
                f"unparseable metrics line: {line!r}")
    for payload in histograms.values():
        # De-cumulate the bucket counts back to per-bucket form.
        counts = payload["counts"]
        payload["counts"] = [counts[0]] + [
            b - a for a, b in zip(counts, counts[1:])] if counts else []
        payload["counts"].append(payload["count"] - (counts[-1]
                                                     if counts else 0))
    return {"counters": counters, "gauges": gauges,
            "histograms": histograms}


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def to_chrome_trace(spans: list[dict], dlt: Optional[list[dict]] = None,
                    label: str = "repro") -> dict:
    """Build a Trace Event Format object from span and DLT snapshots.

    Span timestamps are rebased so the earliest span starts at 0 µs;
    every distinct pid becomes a named process row, nested spans stack
    naturally because complete (``"X"``) events nest by time. DLT
    records become instant (``"i"``) events on a synthetic ``dlt``
    thread, placed by *record order* on a microsecond grid (their
    simulated timestamps live in ``args.sim_time_ns`` — wall and
    simulated clocks are not commensurable, so no attempt is made to
    interleave them with spans by time).
    """
    events: list[dict] = []
    base = min((row["start_ns"] for row in spans), default=0)
    pids = sorted({row["pid"] for row in spans})
    for pid in pids:
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name",
                       "args": {"name": f"{label} worker {pid}"}})
    for row in spans:
        events.append({
            "ph": "X", "name": row["name"], "cat": row["category"],
            "pid": row["pid"], "tid": 0,
            "ts": (row["start_ns"] - base) / 1000.0,
            "dur": row["duration_ns"] / 1000.0,
            "args": dict(row.get("args", {}), depth=row["depth"],
                         seq=row["seq"]),
        })
    for index, row in enumerate(dlt or []):
        events.append({
            "ph": "i", "name": f'{row["app_id"]}:{row["context_id"]}',
            "cat": f'dlt.{row["severity"]}', "pid": 0, "tid": 0,
            "ts": float(index), "s": "g",
            "args": dict(row.get("payload", {}),
                         severity=row["severity"], seq=row["seq"],
                         sim_time_ns=row["timestamp"],
                         message=row["message"]),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"producer": label}}


def validate_chrome_trace(obj) -> list[str]:
    """Minimal schema check for a Trace Event Format object; returns a
    list of problems (empty means loadable by ``chrome://tracing``)."""
    problems = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level must be an object with a 'traceEvents' list"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("ph", "name", "pid"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        if event.get("ph") in ("X", "i", "B", "E"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or math.isnan(ts):
                problems.append(f"{where}: non-numeric ts")
        if event.get("ph") == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur")
    return problems


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------
def events_to_jsonl(snapshot: dict, spans: list[dict],
                    dlt: list[dict]) -> str:
    """Flatten all telemetry into one JSON object per line."""
    lines = []

    def emit(kind: str, body: dict) -> None:
        lines.append(json.dumps(dict({"type": kind}, **body),
                                sort_keys=True, separators=(",", ":")))

    for name, value in snapshot.get("counters", {}).items():
        emit("counter", {"name": name, "value": value})
    for name, payload in snapshot.get("gauges", {}).items():
        emit("gauge", {"name": name, "value": payload["value"]})
    for name, payload in snapshot.get("histograms", {}).items():
        emit("histogram", dict(payload, name=name))
    for row in spans:
        emit("span", row)
    for row in dlt:
        emit("dlt", row)
    return "\n".join(lines) + "\n"


#: JSON type name -> the Python types ``json.loads`` gives it.
_JSON_TYPES = {"string": str, "integer": int, "number": (int, float),
               "array": list}
#: The fields each ``repro stats`` table reads, by JSONL event type:
#: ``(field, JSON type, required)``.  Other event types need only their
#: ``type``.
_EVENT_FIELDS = {
    "counter": (("name", "string", True), ("value", "number", True)),
    "span": (("name", "string", True), ("duration_ns", "number", True)),
    "histogram": (("name", "string", True), ("count", "integer", True),
                  ("sum", "number", True), ("buckets", "array", True),
                  ("counts", "array", True), ("min", "number", False),
                  ("max", "number", False)),
    "dlt": (("severity", "string", True), ("app_id", "string", False),
            ("context_id", "string", False), ("seq", "integer", False)),
}


def _event_problem(event) -> Optional[str]:
    """Why a parsed JSONL line is no event the tables can read, or
    None when it is one."""
    if not isinstance(event, dict):
        return "not an event object"
    kind = event.get("type")
    if not isinstance(kind, str):
        return "event has no string 'type'"
    for name, json_type, required in _EVENT_FIELDS.get(kind, ()):
        value = event.get(name)
        if value is None:
            if required:
                return f"{kind} event lacks {name!r}"
        elif not isinstance(value, _JSON_TYPES[json_type]):
            return f"{kind} event's {name!r} must be a JSON {json_type}"
    if kind == "histogram" and not (
            all(isinstance(bound, (int, float))
                for bound in event["buckets"])
            and len(event["counts"]) == len(event["buckets"]) + 1
            and all(isinstance(count, int) for count in event["counts"])):
        return "histogram event's 'counts' do not fit its 'buckets'"
    return None


def events_from_jsonl(text: str) -> list[dict]:
    """Parse a JSONL event log back into its event dicts; a line that
    is no JSON raises ``ValueError``, one that is no event ``repro
    stats`` can read :class:`~repro.errors.ConfigurationError`, each
    naming the line."""
    parsed = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {number}, column {exc.colno}: "
                             f"{exc.msg}") from exc
        problem = _event_problem(event)
        if problem is not None:
            raise ConfigurationError(f"line {number}: {problem}")
        parsed.append(event)
    return parsed
