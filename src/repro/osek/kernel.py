"""Simulated ECU kernel: job lifecycle, dispatching, timing protection.

The kernel executes task bodies on one simulated CPU under a pluggable
:class:`~repro.osek.scheduler.Scheduler`.  It owns everything the scheduler
does not: activation (periodic or sporadic), execution-time accounting,
OSEK events/resources/alarms, per-job execution budgets ("timing
protection"), deadline monitoring and tracing.

Dispatching is event-driven.  Whenever the ready set or a policy boundary
changes, :meth:`EcuKernel.request_dispatch` coalesces a re-dispatch at the
current instant; while a job runs, a timer is armed at the earliest of its
completion, its budget exhaustion, and the scheduler's segment bound.

Most events of an ECU simulation pass through this kernel, so its
per-event path is kept lean: each periodic activation and deadline check is a
``functools.partial`` of a bound method rather than a fresh closure per
job, and a dispatch on an idle CPU skips the running job's accounting.
Each ``schedule_at`` keeps the time, priority and call order it always
had, so event order and trace digests do not depend on these shortcuts
(``tests/osek_reference.py`` keeps the plain version as the reference).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.osek.alarm import Alarm
from repro.osek.events import OsekEvent
from repro.osek.scheduler import Scheduler
from repro.osek.task import (Acquire, Execute, Job, JobState, Release, Task,
                             TaskSpec, WaitEvent)
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace

#: Event-queue priorities: dispatches run after all same-instant activations
#: and wake-ups so one decision sees the complete picture.
_TIMER_PRIORITY = 90
_DISPATCH_PRIORITY = 100

#: What ``next(body, _DONE)`` returns once a job's body is exhausted.
_DONE = object()


class EcuKernel:
    """One ECU's operating system instance.

    Timing protection is always on: a job is terminated the moment it
    exhausts its task's execution budget (and ``task.budget_overrun`` is
    logged).  A task declared with ``budget=None`` runs unprotected.
    """

    def __init__(self, sim: Simulator, scheduler: Scheduler,
                 trace: Optional[Trace] = None, name: str = "ECU"):
        self.sim = sim
        self.scheduler = scheduler
        self.trace = trace if trace is not None else Trace()
        self.name = name
        self.tasks: dict[str, Task] = {}
        self._ready: list[Job] = []
        self._running: Optional[Job] = None
        self._seg_start = 0
        self._timer = None
        self._request_handle = None
        self.busy_ns = 0
        scheduler.attach(self)

    # ------------------------------------------------------------------
    # Task registration & activation
    # ------------------------------------------------------------------
    def add_task(self, spec: TaskSpec, body=None, execution_time=None,
                 on_start=None, on_complete=None,
                 release_jitter: Optional[Callable[[], int]] = None,
                 auto_start: bool = True) -> Task:
        """Register a task.  Periodic specs are activated automatically at
        ``now + offset`` and every ``period`` thereafter (plus optional
        sampled ``release_jitter``) unless ``auto_start`` is False."""
        if spec.name in self.tasks:
            raise SimulationError(
                f"{self.name}: duplicate task name {spec.name!r}")
        task = Task(spec, body=body, execution_time=execution_time,
                    on_start=on_start, on_complete=on_complete)
        self.tasks[spec.name] = task
        if auto_start and spec.period is not None:
            self._schedule_periodic(task, self.sim.now + spec.offset,
                                    release_jitter)
        return task

    def _schedule_periodic(self, task: Task, nominal: int,
                           release_jitter) -> None:
        jitter = release_jitter() if release_jitter is not None else 0
        if jitter < 0:
            raise SimulationError(
                f"task {task.name}: negative release jitter {jitter}")
        self.sim.schedule_at(nominal + jitter,
                             partial(self._periodic_release, task, nominal,
                                     release_jitter))

    def _periodic_release(self, task: Task, nominal: int,
                          release_jitter) -> None:
        self.activate(task)
        self._schedule_periodic(task, nominal + task.spec.period,
                                release_jitter)

    def activate(self, task: Task) -> Optional[Job]:
        """Activate one job of ``task`` (OSEK ``ActivateTask``).

        Returns the new job, or None when the activation limit is reached
        (logged as ``task.activation_lost``)."""
        now = self.sim.now
        if len(task.pending_jobs) >= task.spec.max_activations:
            task.activations_lost += 1
            self.trace.log(now, "task.activation_lost", task.name)
            return None
        job = Job(task, now, next(self.sim.job_seq))
        task.pending_jobs.append(job)
        task.jobs_activated += 1
        self._ready.append(job)
        self.trace.log(now, "task.activate", job.name, job=job.seq)
        deadline = job.absolute_deadline
        if deadline is not None:
            self.sim.schedule_at(deadline, partial(self._deadline_check, job))
        self.request_dispatch()
        return job

    def _deadline_check(self, job: Job) -> None:
        if job.state is JobState.DONE or job._miss_logged:
            return
        job._miss_logged = True
        self.trace.log(self.sim.now, "task.deadline_miss", job.name,
                       job=job.seq, at_deadline=True)

    # ------------------------------------------------------------------
    # OSEK object factories
    # ------------------------------------------------------------------
    def event(self, name: str) -> OsekEvent:
        """Create an OSEK event bound to this kernel."""
        ev = OsekEvent(name)
        ev._bind(self)
        return ev

    def alarm(self, name: str, action: Callable[[], None]) -> Alarm:
        """Create an alarm with an arbitrary action."""
        return Alarm(self, name, action)

    def alarm_activate(self, name: str, task: Task) -> Alarm:
        """Alarm whose action activates ``task``."""
        return Alarm(self, name, lambda: self.activate(task))

    def alarm_set_event(self, name: str, event: OsekEvent) -> Alarm:
        """Alarm whose action sets ``event``."""
        return Alarm(self, name, event.set)

    # ------------------------------------------------------------------
    # Dispatching
    # ------------------------------------------------------------------
    def request_dispatch(self) -> None:
        """Coalesce a dispatch at the current instant."""
        if self._request_handle is None:
            sim = self.sim
            self._request_handle = sim.schedule_at(
                sim.now, self._dispatch, _DISPATCH_PRIORITY)

    def _dispatch(self) -> None:
        self._request_handle = None
        now = self.sim.now
        if self._running is not None:
            self._checkpoint(now)
            # Drive the running job past finished requirements; it leaves
            # the CPU when it completes, waits or is killed.
            if (self._running is not None
                    and self._advance(self._running, now) != "run"):
                self._running = None
        ready = self._ready
        running = self._running
        runnable = ready + [running] if running is not None else ready[:]
        while True:
            pick = self.scheduler.select(runnable, running, now)
            if pick is running:
                break
            if running is not None:
                self._preempt(now)
                running = None
            if pick is None:
                break
            ready.remove(pick)
            if self._advance(pick, now) == "run":
                self._start_segment(pick, now)
                break
            # "done"/"killed"/"wait" were handled inside _advance; the job
            # never occupied the CPU, so select again.
            runnable = ready[:]
        self._arm_timer(now)

    def _advance(self, job: Job, now: int) -> str:
        """Advance the job's body to its next pending Execute.

        Returns ``"run"`` (has CPU demand), or terminal states ``"done"``,
        ``"wait"``, ``"killed"`` — which this method has already applied
        (state change, logging, queue removal).  A job is killed only
        when it still needs CPU time with its budget used up, so a job
        whose last ``Execute`` ends exactly at its budget completes."""
        while True:
            req = job._current
            if req is None:
                req = next(job._body, _DONE)
                if req is _DONE:
                    self._complete(job, now)
                    return "done"
                job._current = req
                if isinstance(req, Execute):
                    job._remaining = req.ticks
            if isinstance(req, Execute):
                if job._remaining > 0:
                    if self._budget_exhausted(job):
                        self._kill(job, now)
                        return "killed"
                    return "run"
                job._current = None
            elif isinstance(req, Acquire):
                req.resource.acquire(job)
                self.trace.log(now, "task.acquire", job.name,
                               resource=req.resource.name)
                job._current = None
            elif isinstance(req, Release):
                req.resource.release(job)
                self.trace.log(now, "task.release", job.name,
                               resource=req.resource.name)
                job._current = None
            else:  # WaitEvent
                event = req.event
                if event.is_set:
                    if req.clear:
                        event.clear()
                    job._current = None
                else:
                    self._suspend(job, event, now)
                    return "wait"

    def _budget_exhausted(self, job: Job) -> bool:
        budget = job.task.spec.budget
        return budget is not None and job.consumed >= budget

    def _checkpoint(self, now: int) -> None:
        """Account CPU time consumed by the running job since the segment
        started; enforce the execution budget.  Called only while a job
        runs."""
        job = self._running
        delta = now - self._seg_start
        self._seg_start = now
        if delta <= 0:
            return
        job._remaining -= delta
        job.consumed += delta
        self.busy_ns += delta
        self.scheduler.account(job, delta, now)
        if job._remaining < 0:
            raise SimulationError(
                f"{self.name}: job {job.name} over-ran its segment "
                f"({job._remaining} remaining)")
        if job._remaining > 0 and self._budget_exhausted(job):
            self._kill(job, now)
            self._running = None

    def _start_segment(self, job: Job, now: int) -> None:
        self._running = job
        self._seg_start = now
        job.state = JobState.RUNNING
        if job.started_at is None:
            job.started_at = now
            self.trace.log(now, "task.start", job.name, job=job.seq)
            if job.task.on_start is not None:
                job.task.on_start(job)
        else:
            self.trace.log(now, "task.resume", job.name, job=job.seq)

    def _preempt(self, now: int) -> None:
        job = self._running
        job.state = JobState.READY
        job.preemptions += 1
        self._ready.append(job)
        self._running = None
        self.trace.log(now, "task.preempt", job.name, job=job.seq)

    def _suspend(self, job: Job, event: OsekEvent, now: int) -> None:
        job.state = JobState.WAITING
        event._add_waiter(job)
        self.trace.log(now, "task.wait", job.name, event=event.name,
                       job=job.seq)

    def _wake_jobs(self, jobs: list[Job], event: OsekEvent) -> None:
        now = self.sim.now
        any_clear = False
        for job in jobs:
            req = job._current
            if isinstance(req, WaitEvent) and req.clear:
                any_clear = True
            job._current = None
            job.state = JobState.READY
            self._ready.append(job)
            self.trace.log(now, "task.wake", job.name, event=event.name,
                           job=job.seq)
        if any_clear:
            event.clear()
        self.request_dispatch()

    def _complete(self, job: Job, now: int) -> None:
        job.state = JobState.DONE
        job.completed_at = now
        task = job.task
        task.jobs_completed += 1
        if job in task.pending_jobs:
            task.pending_jobs.remove(job)
        for resource in list(job.held_resources):
            self.trace.log(now, "task.resource_leak", job.name,
                           resource=resource.name)
            resource.release(job)
        response = now - job.activation_time
        self.trace.log(now, "task.complete", job.name, job=job.seq,
                       response=response)
        deadline = job.absolute_deadline
        if deadline is not None and now > deadline and not job._miss_logged:
            job._miss_logged = True
            self.trace.log(now, "task.deadline_miss", job.name, job=job.seq,
                           lateness=now - deadline)
        if task.on_complete is not None:
            task.on_complete(job)

    def _kill(self, job: Job, now: int) -> None:
        job.state = JobState.KILLED
        task = job.task
        if job in task.pending_jobs:
            task.pending_jobs.remove(job)
        for resource in list(job.held_resources):
            resource.release(job)
        job._body.close()
        self.trace.log(now, "task.budget_overrun", job.name, job=job.seq,
                       consumed=job.consumed, budget=task.spec.budget)

    def _arm_timer(self, now: int) -> None:
        # Cancel and re-push even when the target time is unchanged: the
        # fresh ``seq`` keeps same-instant timers of different kernels in
        # the order they were armed.
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None
        scheduler = self.scheduler
        when = None
        job = self._running
        if job is not None:
            segment = job._remaining
            bound = scheduler.max_segment(job, now)
            if bound is not None and bound < segment:
                segment = bound
            budget = job.task.spec.budget
            if budget is not None:
                segment = min(segment, max(0, budget - job.consumed))
            if segment <= 0:
                raise SimulationError(
                    f"{self.name}: scheduler selected {job.name} for a "
                    f"zero-length segment at t={now}")
            when = now + segment
        boundary = scheduler.next_dispatch_time(now, bool(self._ready))
        if boundary is not None and boundary > now and (
                when is None or boundary < when):
            when = boundary
        if when is not None:
            self._timer = self.sim.schedule_at(
                when, self._dispatch, _TIMER_PRIORITY)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def response_times(self, task_name: str) -> list[int]:
        """Observed response times of completed jobs of ``task_name``.

        Records without a ``response`` key (foreign instrumentation
        sharing the trace) are skipped."""
        return self.trace.data_values("task.complete", "response",
                                      task_name)

    def deadline_misses(self, task_name: Optional[str] = None) -> int:
        """Count of deadline-miss records (optionally for one task)."""
        return len(self.trace.records("task.deadline_miss", task_name))

    def utilization(self, horizon: Optional[int] = None) -> float:
        """Fraction of time the CPU was busy up to ``horizon``
        (default: current simulation time)."""
        span = horizon if horizon is not None else self.sim.now
        if span <= 0:
            return 0.0
        return self.busy_ns / span

    def __repr__(self) -> str:
        return (f"<EcuKernel {self.name} tasks={len(self.tasks)} "
                f"scheduler={self.scheduler!r}>")
