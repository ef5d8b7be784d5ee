"""Holistic distributed schedulability analysis.

The paper's Section 3 requires assessing end-to-end latencies "based on
distributed real-time schedulability analysis for FlexRay- and CAN
bus-based target architectures".  For event-driven chains this is the
classic holistic (jitter-propagation) analysis: a data-triggered task's
release jitter equals the worst-case response of whatever produces its
input, so per-resource analyses (task RTA per ECU, message RTA on the
bus) are iterated until the jitters reach a fixpoint.

Model:

* tasks live on named ECUs (fixed-priority per ECU);
* frames live on one CAN bus;
* a *link* ``producer -> consumer`` states that the consumer (task or
  frame) is released by the producer's completion, inheriting the
  producer's period and taking the producer's WCRT as release jitter;
* a *transaction* is a named chain of linked elements; because each
  element's jitter is measured from the transaction's external release,
  the final element's response time IS the end-to-end latency bound.

Monotonicity of the RTA recurrences in the jitter terms guarantees the
iteration converges (or provably diverges past a deadline/validity
bound, reported as unschedulable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.errors import AnalysisError
from repro.analysis import can_rta, rta
from repro.analysis.sensitivity import replace_spec
from repro.network.can import CanFrameSpec
from repro.osek.task import TaskSpec

MAX_ITERATIONS = 100


@dataclass
class HolisticResult:
    """Fixpoint outcome: per-element WCRTs and transaction latencies."""
    converged: bool
    iterations: int
    schedulable: bool
    task_wcrt: dict[str, int] = field(default_factory=dict)
    frame_wcrt: dict[str, int] = field(default_factory=dict)
    transaction_latency: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def wcrt(self, element: str) -> int:
        """WCRT of a task or frame by element name."""
        if element in self.task_wcrt:
            return self.task_wcrt[element]
        return self.frame_wcrt[element]


class HolisticModel:
    """A distributed system for holistic analysis."""

    def __init__(self, bitrate_bps: int = 500_000):
        self.bitrate_bps = bitrate_bps
        self._tasks: dict[str, tuple[str, TaskSpec]] = {}
        self._frames: dict[str, CanFrameSpec] = {}
        #: consumer element -> producer element.
        self._producer_of: dict[str, str] = {}
        self._transactions: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    def add_task(self, ecu: str, spec: TaskSpec) -> None:
        """Register a task on an ECU (names are global across elements)."""
        if spec.name in self._tasks or spec.name in self._frames:
            raise AnalysisError(f"duplicate element {spec.name!r}")
        self._tasks[spec.name] = (ecu, spec)

    def add_frame(self, spec: CanFrameSpec) -> None:
        """Register a CAN frame on the shared bus."""
        if spec.name in self._tasks or spec.name in self._frames:
            raise AnalysisError(f"duplicate element {spec.name!r}")
        self._frames[spec.name] = spec

    def link(self, producer: str, consumer: str) -> None:
        """Declare that ``consumer`` is released by ``producer``'s
        completion (task->frame, frame->task, or task->task on
        different ECUs)."""
        for name in (producer, consumer):
            if name not in self._tasks and name not in self._frames:
                raise AnalysisError(f"unknown element {name!r}")
        if consumer in self._producer_of:
            raise AnalysisError(
                f"element {consumer!r} already has a producer")
        self._producer_of[consumer] = producer

    def transaction(self, name: str, elements: list[str]) -> None:
        """Declare a chain; consecutive elements must be linked."""
        if len(elements) < 1:
            raise AnalysisError(f"transaction {name}: empty chain")
        for producer, consumer in zip(elements, elements[1:]):
            if self._producer_of.get(consumer) != producer:
                raise AnalysisError(
                    f"transaction {name}: {producer!r} -> {consumer!r} "
                    f"is not a declared link")
        self._transactions[name] = list(elements)

    # ------------------------------------------------------------------
    def _inherited_period(self, element: str,
                          seen: Optional[set] = None) -> int:
        """Period of the chain head (linked elements inherit it)."""
        seen = seen if seen is not None else set()
        if element in seen:
            raise AnalysisError(f"link cycle through {element!r}")
        seen.add(element)
        producer = self._producer_of.get(element)
        if producer is not None:
            return self._inherited_period(producer, seen)
        if element in self._tasks:
            period = self._tasks[element][1].period
        else:
            period = self._frames[element].period
        if period is None:
            raise AnalysisError(
                f"chain head {element!r} needs a period")
        return period

    def solve(self) -> HolisticResult:
        """Iterate per-resource analyses to the jitter fixpoint, for at
        most :data:`MAX_ITERATIONS` rounds."""
        with obs.span("holistic.solve", category="analysis"):
            result = self._solve()
        obs.count("holistic.rounds", result.iterations)
        obs.count("holistic.solves")
        return result

    def _solve(self) -> HolisticResult:
        jitter: dict[str, int] = {
            name: (self._tasks[name][1].jitter if name in self._tasks
                   else self._frames[name].jitter)
            for name in list(self._tasks) + list(self._frames)}
        periods = {name: self._inherited_period(name)
                   for name in jitter}
        result = HolisticResult(converged=False, iterations=0,
                                schedulable=True)
        for iteration in range(1, MAX_ITERATIONS + 1):
            result.iterations = iteration
            result.failures = []
            task_wcrt, frame_wcrt = self._analyse_once(jitter, periods,
                                                       result)
            if result.failures:
                result.schedulable = False
                result.task_wcrt = task_wcrt
                result.frame_wcrt = frame_wcrt
                return result
            new_jitter = dict(jitter)
            for consumer, producer in self._producer_of.items():
                produced_wcrt = (task_wcrt.get(producer)
                                 if producer in self._tasks
                                 else frame_wcrt.get(producer))
                base = (self._tasks[consumer][1].jitter
                        if consumer in self._tasks
                        else self._frames[consumer].jitter)
                new_jitter[consumer] = base + produced_wcrt
            if new_jitter == jitter:
                result.converged = True
                result.task_wcrt = task_wcrt
                result.frame_wcrt = frame_wcrt
                self._fill_transactions(result)
                self._check_deadlines(result)
                return result
            jitter = new_jitter
        result.failures.append("no fixpoint within iteration budget")
        result.schedulable = False
        return result

    def _analyse_once(self, jitter, periods, result):
        task_wcrt: dict[str, int] = {}
        by_ecu: dict[str, list[TaskSpec]] = {}
        for name, (ecu, spec) in self._tasks.items():
            adjusted = replace_spec(spec, period=periods[name],
                                    jitter=jitter[name],
                                    deadline=spec.deadline)
            by_ecu.setdefault(ecu, []).append(adjusted)
        for ecu, specs in by_ecu.items():
            for spec in specs:
                try:
                    task_wcrt[spec.name] = rta.response_time(spec, specs)
                except AnalysisError as exc:
                    result.failures.append(f"task {spec.name}: {exc}")
        frames = [CanFrameSpec(f.name, f.can_id, dlc=f.dlc,
                               period=periods[name],
                               deadline=f.deadline, extended=f.extended,
                               jitter=jitter[name])
                  for name, f in self._frames.items()]
        frame_wcrt: dict[str, int] = {}
        for frame in frames:
            try:
                frame_wcrt[frame.name] = can_rta.response_time(
                    frame, frames, self.bitrate_bps)
            except AnalysisError as exc:
                result.failures.append(f"frame {frame.name}: {exc}")
        return task_wcrt, frame_wcrt

    def _fill_transactions(self, result: HolisticResult) -> None:
        for name, elements in self._transactions.items():
            result.transaction_latency[name] = result.wcrt(elements[-1])

    def _check_deadlines(self, result: HolisticResult) -> None:
        for name, (__, spec) in self._tasks.items():
            if spec.deadline is not None and \
                    result.task_wcrt[name] > spec.deadline:
                result.schedulable = False
                result.failures.append(
                    f"task {name}: WCRT {result.task_wcrt[name]} exceeds "
                    f"deadline {spec.deadline}")

    def __repr__(self) -> str:
        return (f"<HolisticModel tasks={len(self._tasks)} "
                f"frames={len(self._frames)} "
                f"transactions={len(self._transactions)}>")
