"""Task model for the simulated AUTOSAR/OSEK-like operating system.

A :class:`TaskSpec` is the static description (the information an AUTOSAR
template would carry, extended with the timing attributes the paper argues
must be added to the meta-model: period, WCET, deadline, jitter, budget).
A :class:`Job` is one activation of a task inside the kernel.

Task *bodies* are generators yielding requirements:

* :class:`Execute` — consume CPU time;
* :class:`Acquire` / :class:`Release` — OSEK resource under the immediate
  ceiling priority protocol;
* :class:`WaitEvent` — suspend until an OSEK event is set (extended tasks).

A task without an explicit body runs a single ``Execute`` of its sampled
execution time — the common case for basic periodic tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generator, Optional

from repro.errors import ConfigurationError, SimulationError

#: ASIL criticality levels, least to most critical (ISO 26262 vocabulary;
#: the paper speaks of "DASes of different criticality").
CRITICALITY_LEVELS = ("QM", "A", "B", "C", "D")


class Execute:
    """Requirement: consume ``ticks`` ns of CPU time."""

    __slots__ = ("ticks",)

    def __init__(self, ticks: int):
        if ticks < 0:
            raise SimulationError(f"negative execution time {ticks}")
        self.ticks = ticks


class Acquire:
    """Requirement: lock an OSEK resource (ICPP, never blocks)."""

    __slots__ = ("resource",)

    def __init__(self, resource):
        self.resource = resource


class Release:
    """Requirement: unlock a previously acquired OSEK resource."""

    __slots__ = ("resource",)

    def __init__(self, resource):
        self.resource = resource


class WaitEvent:
    """Requirement: suspend until the given event is set.

    ``clear`` controls whether the event is consumed on wake-up (the usual
    OSEK ``ClearEvent`` immediately after ``WaitEvent`` pattern).
    """

    __slots__ = ("event", "clear")

    def __init__(self, event, clear: bool = True):
        self.event = event
        self.clear = clear


@dataclass
class TaskSpec:
    """Static description of a task.

    ``priority``: larger number = more important (OSEK convention).
    ``period`` ``None`` means event/sporadically activated.
    ``deadline`` is relative to activation; defaults to the period.
    ``budget`` is an enforced per-job execution-time budget (timing
    protection); ``None`` disables enforcement.
    ``partition`` names the time partition / server the task belongs to
    under isolation-aware schedulers.
    """

    name: str
    wcet: int
    period: Optional[int] = None
    offset: int = 0
    deadline: Optional[int] = None
    priority: int = 0
    partition: Optional[str] = None
    max_activations: int = 1
    budget: Optional[int] = None
    jitter: int = 0
    bcet: Optional[int] = None
    criticality: str = "QM"

    def __post_init__(self):
        if self.wcet <= 0:
            raise ConfigurationError(f"task {self.name}: wcet must be > 0")
        if self.period is not None and self.period <= 0:
            raise ConfigurationError(f"task {self.name}: period must be > 0")
        if self.offset < 0:
            raise ConfigurationError(f"task {self.name}: negative offset")
        if self.deadline is None:
            self.deadline = self.period
        if self.bcet is None:
            self.bcet = self.wcet
        if not 0 < self.bcet <= self.wcet:
            raise ConfigurationError(
                f"task {self.name}: need 0 < bcet <= wcet "
                f"(bcet={self.bcet}, wcet={self.wcet})")
        if self.criticality not in CRITICALITY_LEVELS:
            raise ConfigurationError(
                f"task {self.name}: unknown criticality {self.criticality!r}")
        if self.max_activations < 1:
            raise ConfigurationError(
                f"task {self.name}: max_activations must be >= 1")

    @property
    def utilization(self) -> float:
        """WCET/period for periodic tasks, 0.0 for sporadic ones."""
        if self.period is None:
            return 0.0
        return self.wcet / self.period


class JobState(Enum):
    """Lifecycle states of a job."""
    READY = "ready"
    RUNNING = "running"
    WAITING = "waiting"
    DONE = "done"
    KILLED = "killed"


BodyFactory = Callable[["Job"], Generator]


class Task:
    """A task registered with a kernel: spec + behaviour hooks."""

    def __init__(self, spec: TaskSpec,
                 body: Optional[BodyFactory] = None,
                 execution_time: Optional[Callable[[], int]] = None,
                 on_start: Optional[Callable[["Job"], None]] = None,
                 on_complete: Optional[Callable[["Job"], None]] = None):
        self.spec = spec
        self.body = body
        self.execution_time = execution_time
        self.on_start = on_start
        self.on_complete = on_complete
        self.pending_jobs: list[Job] = []
        self.jobs_activated = 0
        self.jobs_completed = 0
        self.activations_lost = 0

    @property
    def name(self) -> str:
        """The task's (spec) name."""
        return self.spec.name

    def sample_execution_time(self) -> int:
        """Execution demand for a new job (default: the WCET)."""
        if self.execution_time is not None:
            demand = self.execution_time()
            if demand <= 0:
                raise SimulationError(
                    f"task {self.name}: execution_time() returned {demand}")
            return demand
        return self.spec.wcet

    def make_body(self, job: "Job") -> Generator:
        """Instantiate the body generator for a new job."""
        if self.body is not None:
            return self.body(job)
        return _default_body(job)

    def __repr__(self) -> str:
        return f"<Task {self.name} prio={self.spec.priority}>"


def _default_body(job: "Job") -> Generator:
    yield Execute(job.demand)


class Job:
    """One activation of a task.

    ``seq`` numbers the job within its simulated world (the kernel draws
    it from :attr:`repro.sim.kernel.Simulator.job_seq`); trace records
    carry it, and schedulers break priority ties by it.  ``name`` (the
    task's name) and ``absolute_deadline`` (activation time plus the
    relative deadline, None when there is none) are fixed at activation,
    since the kernel reads them on every event of the job.
    """

    def __init__(self, task: Task, activation_time: int, seq: int):
        spec = task.spec
        self.task = task
        self.name = spec.name
        self.activation_time = activation_time
        self.absolute_deadline: Optional[int] = (
            None if spec.deadline is None
            else activation_time + spec.deadline)
        self.seq = seq
        self.demand = task.sample_execution_time()
        self.state = JobState.READY
        self.consumed = 0
        self.started_at: Optional[int] = None
        self.completed_at: Optional[int] = None
        self.effective_priority = spec.priority
        self.held_resources: list = []
        self._body = task.make_body(self)
        self._current: Optional[Execute] = None
        self._remaining = 0
        self._miss_logged = False
        self.preemptions = 0

    @property
    def remaining(self) -> int:
        """CPU time still owed to the current ``Execute`` requirement."""
        return self._remaining

    def __repr__(self) -> str:
        return (f"<Job {self.name}#{self.seq} act={self.activation_time} "
                f"{self.state.value}>")
