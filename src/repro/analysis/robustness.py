"""Robustness report for fault campaigns.

The counterpart of :func:`~repro.analysis.system_report.timing_report`:
where the timing report proves deadlines *before* implementation, this
condenses a fault campaign's outcome into the rows that show detection,
containment and recovery *after* injection.  It reads only the campaign
report, so a campaign run never loads the RTE plan behind the timing
report.
"""

from __future__ import annotations

from repro.sim.trace import summarize
from repro.units import fmt_time


def robustness_report(campaign) -> dict:
    """Condense a fault-campaign outcome into report rows.

    Takes a :class:`~repro.faults.campaign.CampaignReport` and returns
    the summary plus a per-fault-kind breakdown.

    The row carries the campaign's order-independent ``digest``, so an
    archived report identifies the exact cell outcomes it was built
    from — the same digest any executor (serial, ``--jobs N``, resumed)
    prints for those cells.
    """
    by_kind: dict[str, dict] = {}
    for result in campaign.results:
        bucket = by_kind.setdefault(result.cell.kind, {
            "cells": 0, "detected": 0, "contained": 0, "recoverable": 0,
            "recovered": 0, "latencies": []})
        bucket["cells"] += 1
        bucket["detected"] += result.detected
        bucket["contained"] += result.contained
        if result.cell.duration is not None:
            bucket["recoverable"] += 1
            bucket["recovered"] += result.recovered
        if result.detection_latency is not None:
            bucket["latencies"].append(result.detection_latency)
    kinds = {
        kind: {
            "cells": b["cells"],
            "detected": b["detected"],
            "contained": b["contained"],
            "recovered": (f"{b['recovered']}/{b['recoverable']}"
                          if b["recoverable"] else "n/a"),
            "detection_latency": summarize(b["latencies"]),
        }
        for kind, b in sorted(by_kind.items())
    }
    return {"summary": campaign.summary(), "by_kind": kinds,
            "digest": campaign.digest()}


def format_robustness(report: dict) -> str:
    """Human-readable rendering of :func:`robustness_report` output."""
    summary = report["summary"]

    def rate(value) -> str:
        return "n/a" if value is None else f"{100 * value:.0f}%"

    lines = [
        f"cells              : {summary['cells']}",
        f"detection rate     : {rate(summary['detection_rate'])}",
        f"containment rate   : {rate(summary['containment_rate'])}",
        f"recovery rate      : {rate(summary['recovery_rate'])}",
    ]
    latency = summary["detection_latency"]
    if latency["count"]:
        lines.append(f"detection latency  : max "
                     f"{fmt_time(latency['max'])}, "
                     f"avg {fmt_time(round(latency['avg']))}")
    recovery = summary["recovery_latency"]
    if recovery["count"]:
        lines.append(f"recovery latency   : max "
                     f"{fmt_time(recovery['max'])}")
    if summary["undetected"]:
        lines.append(f"UNDETECTED         : {summary['undetected']}")
    if summary["escaped"]:
        lines.append(f"escaped containment: {summary['escaped']}")
    lines.append("per-kind:")
    for kind, row in report["by_kind"].items():
        latency = row["detection_latency"]
        worst = fmt_time(latency["max"]) if latency["count"] else "-"
        lines.append(
            f"  {kind:<16} cells={row['cells']} "
            f"detected={row['detected']}/{row['cells']} "
            f"contained={row['contained']}/{row['cells']} "
            f"recovered={row['recovered']} worst-detect={worst}")
    return "\n".join(lines)
