"""Fixed-priority response-time analysis for ECU task sets.

Classic Joseph/Pandya recurrence with release jitter and blocking:

    w_i = C_i + B_i + sum_{j in hp(i)} ceil((w_i + J_j) / T_j) * C_j
    R_i = w_i + J_i

valid for constrained deadlines (``R_i <= T_i``); the analyser raises
:class:`~repro.errors.AnalysisError` when the recurrence leaves that
validity region instead of returning an optimistic number.

Inputs are the same :class:`~repro.osek.task.TaskSpec` objects the
simulated kernel runs, so analytic bounds and simulated traces are always
about the same task set (experiment E4 cross-checks them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.errors import AnalysisError
from repro.osek.resource import OsekResource
from repro.osek.task import TaskSpec

MAX_ITERATIONS = 10_000


@dataclass
class RtaResult:
    """Per-task WCRT bounds plus schedulability verdict."""

    wcrt: dict[str, int] = field(default_factory=dict)
    schedulable: bool = True
    unschedulable_tasks: list[str] = field(default_factory=list)

    def slack(self, spec: TaskSpec) -> Optional[int]:
        """Deadline minus WCRT (None when the task has no deadline)."""
        if spec.deadline is None:
            return None
        return spec.deadline - self.wcrt[spec.name]


def utilization(tasks: list[TaskSpec]) -> float:
    """Total CPU utilization of the periodic tasks."""
    return sum(t.utilization for t in tasks)


def blocking_time(task: TaskSpec, tasks: list[TaskSpec],
                  critical_sections: Optional[dict[str, list[tuple]]] = None
                  ) -> int:
    """ICPP blocking bound: the longest critical section of any
    lower-priority task on a resource whose ceiling reaches ``task``.

    ``critical_sections`` maps task name -> list of
    ``(resource, duration)`` pairs.
    """
    if not critical_sections:
        return 0
    worst = 0
    for other in tasks:
        if other.priority >= task.priority:
            continue
        for resource, duration in critical_sections.get(other.name, []):
            ceiling = (resource.ceiling if isinstance(resource, OsekResource)
                       else resource)
            if ceiling >= task.priority:
                worst = max(worst, duration)
    return worst


def response_time(task: TaskSpec, tasks: list[TaskSpec],
                  blocking: int = 0) -> int:
    """WCRT of ``task`` among ``tasks`` under preemptive fixed priority.

    Raises :class:`AnalysisError` if the recurrence exceeds the task's
    period (analysis validity) or deadline ceiling, or fails to converge.
    """
    if task.period is None:
        raise AnalysisError(
            f"task {task.name}: response-time analysis needs a period "
            f"(model sporadic tasks with their minimum inter-arrival)")
    higher = [t for t in tasks
              if t.name != task.name and t.priority > task.priority]
    for t in higher:
        if t.period is None:
            raise AnalysisError(
                f"task {t.name}: interfering task needs a period")
    ceiling = task.period
    w = task.wcet + blocking
    # ``rta.fixpoint_iterations`` counts iterations on *every* exit —
    # convergence and both divergence paths — so fixpoint-cost metrics
    # and the fuzzer's feedback signature see pathological task sets
    # instead of under-reporting exactly the expensive cases.  Divergent exits
    # additionally bump ``rta.divergences`` (and never
    # ``rta.tasks_analyzed``, which stays a success counter).
    for iteration in range(1, MAX_ITERATIONS + 1):
        interference = sum(
            -(-(w + t.jitter) // t.period) * t.wcet for t in higher)
        w_next = task.wcet + blocking + interference
        if w_next > ceiling:
            obs.count("rta.fixpoint_iterations", iteration)
            obs.count("rta.divergences")
            raise AnalysisError(
                f"task {task.name}: busy period exceeds its period "
                f"({w_next} > {ceiling}); the task set is unschedulable "
                f"at this priority or needs busy-period analysis")
        if w_next == w:
            obs.count("rta.fixpoint_iterations", iteration)
            obs.count("rta.tasks_analyzed")
            return w + task.jitter
        w = w_next
    obs.count("rta.fixpoint_iterations", MAX_ITERATIONS)
    obs.count("rta.divergences")
    raise AnalysisError(
        f"task {task.name}: recurrence did not converge")


def analyze(tasks: list[TaskSpec],
            critical_sections: Optional[dict] = None) -> RtaResult:
    """Analyse a whole task set; never raises for individual
    unschedulable tasks — they are reported in the result."""
    result = RtaResult()
    for task in tasks:
        blocking = blocking_time(task, tasks, critical_sections)
        try:
            wcrt = response_time(task, tasks, blocking)
        except AnalysisError:
            result.schedulable = False
            result.unschedulable_tasks.append(task.name)
            result.wcrt[task.name] = -1
            continue
        result.wcrt[task.name] = wcrt
        if task.deadline is not None and wcrt > task.deadline:
            result.schedulable = False
            result.unschedulable_tasks.append(task.name)
    return result


def liu_layland_bound(n: int) -> float:
    """Rate-monotonic utilization bound ``n(2^{1/n} - 1)``."""
    if n <= 0:
        raise AnalysisError("need at least one task")
    return n * (2 ** (1.0 / n) - 1)
