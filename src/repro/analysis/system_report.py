"""Prior-to-implementation timing report for system models.

Paper, Section 2, limitation 2: "the handling of timing and scheduling
requirements is mandatory … the extension of the AUTOSAR meta-model and
the templates is a must for the implementation of system generators
enabling the possibility for prior to implementation system configuration
checks."

:func:`timing_report` is that system generator's analysis half: from a
validated :class:`~repro.core.system.SystemModel` — *before anything is
built or simulated* — it takes the tasks and frames the RTE generator
would deploy (:func:`~repro.core.rte.rte_plan`: tasks with their RM
priorities, one I-PDU per cross-ECU source port with its CAN id),
assembles the holistic model with the cause-effect links implied by the
connectors and the runnables' declared write accesses, and solves it.
The result reports per-task and per-frame WCRTs, end-to-end latencies
for every cross-ECU data path, and the issues that block analysis
(missing periods, undeclared writers — the very template data the paper
says is missing from AUTOSAR — and client-server request frames, which
no chain releases).

Scope: single-domain CAN deployments (the analysis target of Section 3's
CAN branch); other configurations are reported as not analysable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.holistic import HolisticModel, HolisticResult
from repro.core.runnable import DataReceivedEvent
from repro.core.rte import rte_plan
from repro.errors import AnalysisError
from repro.network.can import CanFrameSpec


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
    # The bus of the one domain, whatever its name.
    kind, params = system.domain_buses.get(next(iter(domains), None),
                                           (None, {}))
    if len(domains) > 1 or kind not in (None, "can"):
        return TimingReport(
            analysable=False,
            issues=["timing report currently supports single-domain CAN "
                    "deployments only"])
    plan = rte_plan(system)
    model = HolisticModel(params.get("bitrate_bps", 500_000))

    def writer(source):
        """(writer task of ``source``'s first element or None, element)."""
        instance = plan.instances[source.instance]
        element = min(instance.port(source.port).interface.elements)
        runnable = instance.component.writer_of(source.port, element)
        task = None if runnable is None else \
            f"{source.instance}.{runnable.name}"
        return task, element

    def consumers(target):
        """The data-triggered tasks a delivery to ``target`` releases."""
        return [f"{target.instance}.{runnable.name}"
                for runnable in plan.instances[target.instance]
                .component.runnables
                if isinstance(runnable.trigger, DataReceivedEvent)
                and runnable.trigger.port == target.port]

    # --- frames with their writers and consumers ---------------------------
    if all(pdu.operation is not None for pdu in plan.pdus.values()):
        report.issues.append("no cross-ECU sender-receiver traffic; "
                             "per-ECU task analysis only")
    frames: dict[str, tuple] = {}
    for pdu in plan.pdus.values():
        if pdu.operation is not None:
            report.issues.append(
                f"{pdu.name}: client-server request frame; excluded — "
                f"remaining WCRTs do not account for its interference")
            continue
        writer_task, element = writer(pdu.source)
        if writer_task is None:
            report.issues.append(
                f"{pdu.name}: no runnable declares writing "
                f"{pdu.source.port}.{element} — add `writes=` template "
                f"data to analyse this chain (frame excluded)")
            continue
        frames[pdu.name] = (
            CanFrameSpec(pdu.name, pdu.can_id,
                         dlc=min(8, pdu.ipdu.size_bytes)),
            writer_task,
            [task for __, target in pdu.targets
             for task in consumers(target)])
    # Same-ECU data-triggered consumers are anchored by a direct
    # task -> task link (no bus hop).
    local_links: list[tuple[str, str]] = []
    for source, target in plan.local_routes:
        writer_task, __ = writer(source)
        if writer_task is None:
            report.issues.append(
                f"{source}: no declared writer — local chain through it "
                f"not analysed")
            continue
        local_links.extend((writer_task, task) for task in consumers(target))

    anchored = {task for __, __, tasks in frames.values() for task in tasks}
    anchored |= {consumer for __, consumer in local_links}

    # --- the deployed tasks -------------------------------------------------
    for task in plan.tasks:
        if task.spec.period is None and task.spec.name not in anchored:
            report.issues.append(
                f"{task.spec.name}: event-activated with no analysable "
                f"activation source; excluded — remaining WCRTs do not "
                f"account for its interference")
            continue
        model.add_task(task.ecu, task.spec)

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
    for pdu_name, (frame, writer_task, consumer_tasks) in frames.items():
        model.add_frame(frame)
        model.link(writer_task, pdu_name)
        for consumer_task in consumer_tasks:
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

