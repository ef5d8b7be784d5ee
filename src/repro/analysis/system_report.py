"""Prior-to-implementation timing report for system models.

Paper, Section 2, limitation 2: "the handling of timing and scheduling
requirements is mandatory … the extension of the AUTOSAR meta-model and
the templates is a must for the implementation of system generators
enabling the possibility for prior to implementation system configuration
checks."

:func:`timing_report` is that system generator's analysis half: from a
validated :class:`~repro.core.system.SystemModel` — *before anything is
built or simulated* — it derives exactly the artefacts the RTE generator
would produce (tasks with RM priorities, one I-PDU per cross-ECU source
port with the CAN id :func:`~repro.core.rte.pdu_can_ids` gives it),
assembles the holistic model with the cause-effect links implied by the
connectors and the runnables' declared write accesses, and solves it.
The result reports per-task and per-frame WCRTs, end-to-end latencies
for every cross-ECU data path, and the issues that block analysis
(missing periods, undeclared writers — the very template data the paper
says is missing from AUTOSAR).

Scope: single-domain CAN deployments (the analysis target of Section 3's
CAN branch); other configurations are reported as not analysable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.holistic import HolisticModel, HolisticResult
from repro.core.interface import SenderReceiverInterface
from repro.core.runnable import DataReceivedEvent, TimingEvent
from repro.core.rte import assign_rm_priorities, pdu_can_ids
from repro.errors import AnalysisError
from repro.network.can import CanFrameSpec
from repro.osek.task import TaskSpec


@dataclass
class TimingReport:
    """Outcome of the prior-to-implementation analysis."""

    analysable: bool
    schedulable: bool = False
    task_wcrt: dict[str, int] = field(default_factory=dict)
    frame_wcrt: dict[str, int] = field(default_factory=dict)
    #: "<writer task> -> <frame> -> <consumer task>" -> latency bound.
    chain_latency: dict[str, int] = field(default_factory=dict)
    issues: list[str] = field(default_factory=list)
    iterations: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.analysable and self.schedulable


def timing_report(system) -> TimingReport:
    """Analyse a system model without building it."""
    report = TimingReport(analysable=True)
    issues = system.validate()
    if issues:
        return TimingReport(analysable=False,
                            issues=[f"configuration: {i}" for i in issues])
    domains = {spec.domain for spec in system.ecus.values()}
    kinds = {system._domain_kind(domain) for domain in domains}
    if len(domains) > 1 or (kinds - {None} and kinds != {"can"}):
        return TimingReport(
            analysable=False,
            issues=["timing report currently supports single-domain CAN "
                    "deployments only"])
    bitrate = system.bus_params.get("bitrate_bps", 500_000) \
        if system.bus_kind == "can" else 500_000

    instances, connectors = system.root.flatten()
    by_name = {i.name: i for i in instances}
    model = HolisticModel(bitrate)

    # --- plan the cross-ECU PDUs, writers and consumers ------------------
    cross_ports: dict[tuple, list] = {}
    local_connectors: list = []
    for connector in connectors:
        src = by_name[connector.source.instance]
        port = src.port(connector.source.port)
        if not isinstance(port.interface, SenderReceiverInterface):
            continue  # remote C/S request frames are not chain-analysed
        src_ecu = system.mapping[connector.source.instance]
        dst_ecu = system.mapping[connector.target.instance]
        if src_ecu == dst_ecu:
            local_connectors.append(connector)
            continue
        key = (connector.source.instance, connector.source.port)
        cross_ports.setdefault(key, []).append(connector.target)
    if not cross_ports:
        report.issues.append("no cross-ECU sender-receiver traffic; "
                             "per-ECU task analysis only")

    can_ids = pdu_can_ids(system)
    frames: dict[str, CanFrameSpec] = {}
    writer_of_pdu: dict[str, str] = {}
    consumers_of_pdu: dict[str, list[str]] = {}
    for (instance_name, port_name), targets in sorted(cross_ports.items()):
        pdu_name = f"{instance_name}.{port_name}"
        instance = by_name[instance_name]
        port = instance.port(port_name)
        bits = sum(t.width_bits + 1
                   for t in port.interface.elements.values())
        elements = sorted(port.interface.elements)
        writer = instance.component.writer_of(port_name, elements[0])
        if writer is None:
            report.issues.append(
                f"{pdu_name}: no runnable declares writing "
                f"{port_name}.{elements[0]} — add `writes=` template "
                f"data to analyse this chain (frame excluded)")
            continue
        frames[pdu_name] = CanFrameSpec(pdu_name, can_ids[pdu_name],
                                        dlc=min(8, (bits + 7) // 8))
        writer_of_pdu[pdu_name] = f"{instance_name}.{writer.name}"
        for target in targets:
            target_instance = by_name[target.instance]
            for runnable in target_instance.component.runnables:
                trigger = runnable.trigger
                if (isinstance(trigger, DataReceivedEvent)
                        and trigger.port == target.port):
                    consumers_of_pdu.setdefault(pdu_name, []).append(
                        f"{target.instance}.{runnable.name}")
    # Same-ECU data-triggered consumers are anchored by a direct
    # task -> task link (no bus hop).
    local_links: list[tuple[str, str]] = []
    for connector in local_connectors:
        instance = by_name[connector.source.instance]
        port = instance.port(connector.source.port)
        elements = sorted(port.interface.elements)
        writer = instance.component.writer_of(connector.source.port,
                                              elements[0])
        if writer is None:
            report.issues.append(
                f"{connector.source}: no declared writer — local chain "
                f"through it not analysed")
            continue
        writer_task = f"{connector.source.instance}.{writer.name}"
        target_instance = by_name[connector.target.instance]
        for runnable in target_instance.component.runnables:
            trigger = runnable.trigger
            if (isinstance(trigger, DataReceivedEvent)
                    and trigger.port == connector.target.port):
                local_links.append(
                    (writer_task,
                     f"{connector.target.instance}.{runnable.name}"))

    anchored_consumers = {consumer
                          for consumers in consumers_of_pdu.values()
                          for consumer in consumers}
    anchored_consumers |= {consumer for __, consumer in local_links}

    # --- tasks, with the RTE's priority assignment -----------------------
    plans: dict[str, list] = {}
    for instance in instances:
        ecu = system.mapping[instance.name]
        for runnable in instance.component.runnables:
            plans.setdefault(ecu, []).append((instance.name, runnable))
    for ecu, plan in plans.items():
        priorities = assign_rm_priorities(system.ecus[ecu].priorities,
                                          plan)
        for instance_name, runnable in plan:
            task_name = f"{instance_name}.{runnable.name}"
            trigger = runnable.trigger
            if isinstance(trigger, TimingEvent):
                spec = TaskSpec(task_name, wcet=runnable.wcet,
                                period=trigger.period,
                                offset=trigger.offset,
                                priority=priorities[task_name])
            elif task_name in anchored_consumers:
                spec = TaskSpec(task_name, wcet=runnable.wcet,
                                priority=priorities[task_name],
                                deadline=None)
            else:
                report.issues.append(
                    f"{task_name}: event-activated with no analysable "
                    f"activation source; excluded — remaining WCRTs do "
                    f"not account for its interference")
                continue
            model.add_task(ecu, spec)

    # --- local task -> task links -----------------------------------------
    for writer_task, consumer_task in sorted(set(local_links)):
        try:
            model.link(writer_task, consumer_task)
        except AnalysisError:
            report.issues.append(
                f"{consumer_task}: fed by more than one producer; chain "
                f"kept for its first producer")
            continue
        model.transaction(f"{writer_task} -> {consumer_task}",
                          [writer_task, consumer_task])

    # --- frames, links and transactions ----------------------------------
    for pdu_name, frame in sorted(frames.items()):
        model.add_frame(frame)
        writer_task = writer_of_pdu[pdu_name]
        model.link(writer_task, pdu_name)
        for consumer_task in consumers_of_pdu.get(pdu_name, []):
            try:
                model.link(pdu_name, consumer_task)
            except AnalysisError:
                report.issues.append(
                    f"{consumer_task}: fed by more than one frame; "
                    f"chain kept for its first producer")
                continue
            model.transaction(
                f"{writer_task} -> {pdu_name} -> {consumer_task}",
                [writer_task, pdu_name, consumer_task])

    result: HolisticResult = model.solve()
    report.schedulable = result.schedulable and result.converged
    report.iterations = result.iterations
    report.task_wcrt = result.task_wcrt
    report.frame_wcrt = result.frame_wcrt
    report.chain_latency = result.transaction_latency
    report.issues.extend(result.failures)
    return report


# ---------------------------------------------------------------------------
# Robustness reporting (fault-campaign results)
# ---------------------------------------------------------------------------
def robustness_report(campaign) -> dict:
    """Condense a fault-campaign outcome into report rows.

    Takes a :class:`~repro.faults.campaign.CampaignReport` and returns
    the summary plus a per-fault-kind breakdown — the robustness
    counterpart of :func:`timing_report`: where the timing report proves
    deadlines *before* implementation, this proves detection,
    containment and recovery *after* injection.

    The row carries the campaign's order-independent ``digest``, so an
    archived report identifies the exact cell outcomes it was built
    from — the same digest any executor (serial, ``--jobs N``, resumed)
    prints for those cells.
    """
    from repro.sim.trace import summarize

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
    from repro.units import fmt_time

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
