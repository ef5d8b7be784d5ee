"""Summaries of exported telemetry — the engine behind ``repro stats``.

Takes the files the exporters produce (Prometheus text, Chrome
trace-event JSON, JSONL event log), autodetects which is which, and
renders the operational one-look tables: counters, top spans by
cumulative time, histogram percentiles, and the DLT error-event table.
"""

from __future__ import annotations

import json

from repro.errors import ConfigurationError
from repro.obs.exporters import (events_from_jsonl, parse_prometheus_text,
                                 validate_chrome_trace)
from repro.obs.registry import Histogram, MetricsRegistry

PROM = "prometheus"
CHROME = "chrome-trace"
JSONL = "events-jsonl"


def load(text: str) -> tuple[str, object]:
    """Parse an exported file, classified by content, not by extension;
    returns ``(kind, parsed)``.

    Prometheus text is recognised by its first line, a JSON object
    carrying ``traceEvents`` is a Chrome trace, and any other text
    starting with ``{`` or ``[`` is a JSONL event log, read line by
    line."""
    stripped = text.lstrip()
    if stripped.startswith(("# TYPE", "repro_")):
        return PROM, parse_prometheus_text(text)
    if stripped.startswith("{"):
        try:
            parsed = json.loads(text)
        except ValueError:  # not one JSON document: a JSONL log
            parsed = {}
        if "traceEvents" in parsed:
            return CHROME, parsed
    if stripped.startswith(("{", "[")):
        return JSONL, events_from_jsonl(text)
    raise ConfigurationError("unrecognized telemetry file format")


# ----------------------------------------------------------------------
# Aggregations
# ----------------------------------------------------------------------
def top_spans(rows: list[dict], top: int = 10) -> list[dict]:
    """Aggregate span rows by name: count / cumulative / mean / max.

    Accepts either JSONL span events (``duration_ns``) or Chrome trace
    ``X`` events (``dur`` in microseconds).
    """
    totals: dict[str, dict] = {}
    for row in rows:
        if "duration_ns" in row:
            name, duration = row["name"], row["duration_ns"]
        elif row.get("ph") == "X":
            name, duration = row["name"], row["dur"] * 1000.0
        else:
            continue
        entry = totals.setdefault(name, {"count": 0, "total_ns": 0.0,
                                         "max_ns": 0.0})
        entry["count"] += 1
        entry["total_ns"] += duration
        entry["max_ns"] = max(entry["max_ns"], duration)
    ranked = sorted(totals.items(),
                    key=lambda item: (-item[1]["total_ns"], item[0]))
    return [{"name": name, "count": entry["count"],
             "total_ms": entry["total_ns"] / 1e6,
             "mean_us": entry["total_ns"] / entry["count"] / 1e3,
             "max_us": entry["max_ns"] / 1e3}
            for name, entry in ranked[:top]]


def histogram_rows(histograms: dict[str, dict]) -> list[dict]:
    """Percentile table rows from snapshot-shaped histogram payloads."""
    rows = []
    for name, payload in sorted(histograms.items()):
        if payload["count"] == 0:
            continue
        scratch = MetricsRegistry()
        histogram: Histogram = scratch.histogram(name, payload["buckets"])
        histogram.counts = list(payload["counts"])
        histogram.count = payload["count"]
        histogram.sum = payload["sum"]
        histogram.min = payload.get("min")
        histogram.max = payload.get("max")
        rows.append({
            "name": name, "count": payload["count"],
            "p50": histogram.percentile(0.50),
            "p90": histogram.percentile(0.90),
            "p99": histogram.percentile(0.99),
            "max": payload.get("max"),
        })
    return rows


def dlt_table(rows: list[dict]) -> list[dict]:
    """Error-event table: one row per (severity, app, context)."""
    grouped: dict[tuple, dict] = {}
    for row in rows:
        if row.get("type") not in (None, "dlt") and "severity" not in row:
            continue
        if "severity" not in row:
            continue
        key = (row["severity"], row.get("app_id", "?"),
               row.get("context_id", "?"))
        entry = grouped.setdefault(key, {"count": 0, "first_seq": None,
                                         "last_seq": None,
                                         "last_time": None})
        entry["count"] += 1
        seq = row.get("seq")
        if seq is not None:
            entry["first_seq"] = seq if entry["first_seq"] is None \
                else min(entry["first_seq"], seq)
            entry["last_seq"] = seq if entry["last_seq"] is None \
                else max(entry["last_seq"], seq)
        entry["last_time"] = row.get("timestamp", entry["last_time"])
    severity_rank = {"fatal": 0, "error": 1, "warn": 2, "info": 3,
                     "debug": 4}
    ordered = sorted(grouped.items(),
                     key=lambda item: (severity_rank.get(item[0][0], 9),
                                       item[0]))
    return [{"severity": severity, "app": app, "context": context,
             **entry}
            for (severity, app, context), entry in ordered]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _render_table(title: str, rows: list[dict],
                  columns: list[str]) -> list[str]:
    lines = [title]
    if not rows:
        lines.append("  (empty)")
        return lines
    widths = {col: max(len(col), *(len(_format_value(row.get(col)))
                                   for row in rows))
              for col in columns}
    lines.append("  " + "  ".join(col.ljust(widths[col])
                                  for col in columns))
    for row in rows:
        lines.append("  " + "  ".join(
            _format_value(row.get(col)).ljust(widths[col])
            for col in columns))
    return lines


def _counters_table(counters: dict) -> list[str]:
    return _render_table("counters:",
                         [{"name": name, "value": value}
                          for name, value in sorted(counters.items())],
                         ["name", "value"]) + [""]


def summarize_file(text: str, top: int = 10) -> str:
    """Render the summary for one exported telemetry file."""
    kind, parsed = load(text)
    lines: list[str] = []
    if kind == PROM:
        lines += _counters_table(parsed["counters"])
        lines += _render_table(
            "histogram percentiles:", histogram_rows(parsed["histograms"]),
            ["name", "count", "p50", "p90", "p99", "max"])
    elif kind == CHROME:
        problems = validate_chrome_trace(parsed)
        if problems:
            raise ConfigurationError(
                f"invalid Chrome trace: {problems[0]}")
        lines += _render_table(
            f"top {top} spans by cumulative time:",
            top_spans(parsed["traceEvents"], top),
            ["name", "count", "total_ms", "mean_us", "max_us"])
    else:  # JSONL
        events = parsed
        spans = [row for row in events if row.get("type") == "span"]
        dlt_rows = [row for row in events if row.get("type") == "dlt"]
        histograms = {row["name"]: row for row in events
                      if row.get("type") == "histogram"}
        lines += _counters_table({row["name"]: row["value"]
                                  for row in events
                                  if row.get("type") == "counter"})
        lines += _render_table(
            f"top {top} spans by cumulative time:", top_spans(spans, top),
            ["name", "count", "total_ms", "mean_us", "max_us"])
        lines.append("")
        lines += _render_table(
            "histogram percentiles:", histogram_rows(histograms),
            ["name", "count", "p50", "p90", "p99", "max"])
        lines.append("")
        lines += _render_table(
            "DLT events:", dlt_table(dlt_rows),
            ["severity", "app", "context", "count", "first_seq",
             "last_seq"])
    return "\n".join(lines)


def summarize_paths(paths: list[str], top: int = 10) -> str:
    """Summaries for several exported files, labelled per file.

    Binary MTF mass-trace stores (:mod:`repro.meas.mtf`) are detected
    by magic and summarized from their chunk directory — no data block
    is read; the text formats are classified by content (:func:`load`).
    A file that cannot be read or parsed raises
    :class:`~repro.errors.ConfigurationError` naming it."""
    from repro.meas.mtf import is_mtf_file, summarize_mtf

    sections = []
    for path in paths:
        sections.append(f"== {path} ==")
        if is_mtf_file(path):
            # A damaged store's error already names the path.
            sections.append(summarize_mtf(path))
            continue
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            sections.append(summarize_file(text, top))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from exc
        except (OSError, ValueError) as exc:
            # ValueError: undecodable bytes, malformed JSON, bad numbers.
            raise ConfigurationError(f"cannot read {path}: {exc}") \
                from exc
    return "\n".join(sections)
