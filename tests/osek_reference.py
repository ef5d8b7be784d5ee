"""Reference OSEK kernel for parity checks.

:class:`ReferenceEcuKernel` runs the kernel's per-event steps the
plainest way: a fresh closure per periodic release and per deadline
check, a dispatch request through ``sim.schedule(0, ...)``, the body
driven by ``send(None)`` and ``StopIteration``, the running job's
accounting attempted on every dispatch, and the runnable list copied
and extended on every selection.  It derives each job's name and
absolute deadline from its task and keeps its own set of jobs whose
deadline miss it logged, rather than reading the values
:class:`~repro.osek.task.Job` fixes at activation.  It overrides only
those steps, so task registration, OSEK objects, preemption, suspension,
completion and killing are the kernel's own.  ``test_osek_kernel.py``
drives the same setups through both and compares traces, event counts
and counters.
"""

from repro.errors import SimulationError
from repro.osek.kernel import (_DISPATCH_PRIORITY, _TIMER_PRIORITY,
                               EcuKernel)
from repro.osek.task import Acquire, Execute, Job, JobState, Release


def _absolute_deadline(job):
    deadline = job.task.spec.deadline
    return None if deadline is None else job.activation_time + deadline


class ReferenceEcuKernel(EcuKernel):
    """Schedules a closure per release and re-derives every lookup."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._missed = set()

    def _schedule_periodic(self, task, nominal, release_jitter):
        jitter = release_jitter() if release_jitter is not None else 0
        if jitter < 0:
            raise SimulationError(
                f"task {task.name}: negative release jitter {jitter}")

        def fire():
            self.activate(task)
            self._schedule_periodic(task, nominal + task.spec.period,
                                    release_jitter)

        self.sim.schedule_at(nominal + jitter, fire)

    def activate(self, task):
        now = self.sim.now
        if len(task.pending_jobs) >= task.spec.max_activations:
            task.activations_lost += 1
            self.trace.log(now, "task.activation_lost", task.name)
            return None
        job = Job(task, now, next(self.sim.job_seq))
        task.pending_jobs.append(job)
        task.jobs_activated += 1
        self._ready.append(job)
        self.trace.log(now, "task.activate", task.name, job=job.seq)
        deadline = _absolute_deadline(job)
        if deadline is not None:
            self.sim.schedule_at(deadline, lambda: self._deadline_check(job))
        self.request_dispatch()
        return job

    def _deadline_check(self, job):
        if job.state in (JobState.DONE,) or job in self._missed:
            return
        self._missed.add(job)
        self.trace.log(self.sim.now, "task.deadline_miss", job.task.name,
                       job=job.seq, at_deadline=True)

    def request_dispatch(self):
        if self._request_handle is not None:
            return
        self._request_handle = self.sim.schedule(
            0, self._dispatch, priority=_DISPATCH_PRIORITY)

    def _dispatch(self):
        self._request_handle = None
        now = self.sim.now
        self._checkpoint(now)
        if self._running is not None:
            self._progress(self._running, now)
        while True:
            runnable = list(self._ready)
            if self._running is not None:
                runnable.append(self._running)
            pick = self.scheduler.select(runnable, self._running, now)
            if pick is self._running:
                break
            if self._running is not None:
                self._preempt(now)
            if pick is None:
                break
            self._ready.remove(pick)
            status = self._advance(pick, now)
            if status == "run":
                self._start_segment(pick, now)
                break
        self._arm_timer(now)

    def _progress(self, job, now):
        status = self._advance(job, now)
        if status != "run":
            self._running = None

    def _advance(self, job, now):
        while True:
            if job._current is None:
                try:
                    req = job._body.send(None)
                except StopIteration:
                    self._complete(job, now)
                    return "done"
                job._current = req
                if isinstance(req, Execute):
                    job._remaining = req.ticks
            req = job._current
            if isinstance(req, Execute):
                if job._remaining > 0:
                    if self._budget_exhausted(job):
                        self._kill(job, now)
                        return "killed"
                    return "run"
                job._current = None
            elif isinstance(req, Acquire):
                req.resource.acquire(job)
                self.trace.log(now, "task.acquire", job.task.name,
                               resource=req.resource.name)
                job._current = None
            elif isinstance(req, Release):
                req.resource.release(job)
                self.trace.log(now, "task.release", job.task.name,
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

    def _budget_exhausted(self, job):
        budget = job.task.spec.budget
        return budget is not None and job.consumed >= budget

    def _checkpoint(self, now):
        job = self._running
        if job is None:
            return
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

    def _complete(self, job, now):
        job.state = JobState.DONE
        job.completed_at = now
        task = job.task
        task.jobs_completed += 1
        if job in task.pending_jobs:
            task.pending_jobs.remove(job)
        for resource in list(job.held_resources):
            self.trace.log(now, "task.resource_leak", task.name,
                           resource=resource.name)
            resource.release(job)
        response = now - job.activation_time
        self.trace.log(now, "task.complete", task.name, job=job.seq,
                       response=response)
        deadline = _absolute_deadline(job)
        if (deadline is not None and now > deadline
                and job not in self._missed):
            self._missed.add(job)
            self.trace.log(now, "task.deadline_miss", task.name, job=job.seq,
                           lateness=now - deadline)
        if task.on_complete is not None:
            task.on_complete(job)

    def _arm_timer(self, now):
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None
        candidates = []
        job = self._running
        if job is not None:
            segment = job._remaining
            bound = self.scheduler.max_segment(job, now)
            if bound is not None:
                segment = min(segment, bound)
            budget = job.task.spec.budget
            if budget is not None:
                segment = min(segment, max(0, budget - job.consumed))
            if segment <= 0:
                raise SimulationError(
                    f"{self.name}: scheduler selected {job.name} for a "
                    f"zero-length segment at t={now}")
            candidates.append(now + segment)
        boundary = self.scheduler.next_dispatch_time(now, bool(self._ready))
        if boundary is not None and boundary > now:
            candidates.append(boundary)
        if candidates:
            self._timer = self.sim.schedule_at(
                min(candidates), self._dispatch, priority=_TIMER_PRIORITY)
