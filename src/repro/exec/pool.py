"""Deterministic fan-out of a work plan over a process pool.

:func:`execute` runs a :class:`~repro.exec.plan.Plan` either in-process
(``jobs=1``) or across a ``concurrent.futures`` process pool, calling
``worker(item)`` once per item and merging the results **by item
index**, never by completion order — so, items being pure functions of
themselves, ``jobs=1`` and ``jobs=N`` produce byte-identical merged
results.

Failure handling (no runner passes ``retries=`` or ``timeout=``; both
stay because the engine tests turn them on):

* a worker that *raises* has the item retried up to ``retries`` extra
  attempts before the item is marked failed;
* a worker that *dies* (segfault, ``os._exit``, OOM-kill) breaks the
  shared pool; every item left unresolved by the broken round is then
  re-run in its own single-worker pool, which attributes the crash to
  the guilty item precisely (an innocent item simply completes in
  isolation) while the same retry budget applies;
* a worker that *hangs* is caught by the per-item watchdog
  (``timeout=SECONDS``): the round is declared hung once its allowance
  (timeout x dispatch waves) elapses, the pool's processes are killed,
  and every unresolved item re-runs in isolation where the watchdog
  is enforced per item precisely — a hung attempt counts against the
  same retry budget as a raise or a crash;
* each granted retry waits out a short **fixed** backoff
  (:data:`_BACKOFF_SCHEDULE`) first — fixed, not randomised, so a
  retried run stays as deterministic as an untroubled one.

None of this affects merged results: any mix of retries, crashes, and
watchdog kills that ends in success produces the byte-identical report
digest at any ``--jobs`` level, interrupted or resumed.  With
``jobs=1`` the worker runs on the caller's thread and cannot be
preempted — the watchdog applies to pool execution only.

Every item transition is journaled through
:mod:`repro.exec.checkpoint` when a checkpoint path is given, and
``resume=True`` replays the journal to skip completed items and re-run
in-flight or failed ones.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, \
    as_completed
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.errors import ExecutionError, ExecutionInterrupted
from repro.exec.checkpoint import Journal
from repro.exec.plan import Plan
from repro.exec.progress import ProgressMeter

#: Fixed pre-retry backoff in seconds, indexed by failed attempts so
#: far (the last entry repeats).  Fixed rather than exponential-with-
#: jitter on purpose: wall time never feeds the result digest, and a
#: deterministic schedule keeps retried runs reproducible.
_BACKOFF_SCHEDULE = (0.0, 0.05, 0.2)

#: Seam for tests (monkeypatch to observe or skip backoff sleeps).
_sleep = time.sleep


def _backoff(failed_attempts: int) -> None:
    index = min(failed_attempts - 1, len(_BACKOFF_SCHEDULE) - 1)
    delay = _BACKOFF_SCHEDULE[index]
    if delay > 0:
        _sleep(delay)


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill a pool whose workers may be hung (shutdown alone would
    block behind the hung task forever)."""
    for process in list(getattr(pool, "_processes", {}).values()):
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def _run_item(worker, index: int, item, collect: bool = False
              ) -> tuple[object, Optional[dict], int, float]:
    """Worker-side body: ``worker(item)`` for the plan's item ``index``.

    With ``collect=True`` the item runs inside a fresh telemetry
    capture scope (identical whether this executes in-process or in a
    worker), and the captured snapshot travels back with the result so
    the parent can merge all items in plan order.
    """
    import os
    started = time.perf_counter()
    if collect:
        with obs.capture() as telemetry:
            # The span keeps its old name: its `span.exec.chunk`
            # counter is part of every pinned telemetry digest.
            with obs.span("exec.chunk", category="exec", index=index):
                result = worker(item)
        snapshot = telemetry.snapshot()
    else:
        result = worker(item)
        snapshot = None
    return result, snapshot, os.getpid(), time.perf_counter() - started


@dataclass
class ExecutionResult:
    """Outcome of one :func:`execute` call."""

    label: str
    results: list = field(default_factory=list)
    #: item index -> last error string, for items past their budget.
    failures: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    #: items recovered from the journal vs freshly run (resumed cells
    #: are *not* throughput — the progress meter reports them apart).
    items_resumed: int = 0
    items_executed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_on_failure(self) -> None:
        if self.failures:
            detail = "; ".join(f"item {index}: {error}"
                               for index, error in sorted(self.failures.items()))
            raise ExecutionError(
                f"plan {self.label!r}: {len(self.failures)} item(s) "
                f"failed after retries — {detail}")


class _NullJournal:
    """Journal stand-in when no checkpoint path was given."""

    def begin(self, plan):
        pass

    def reopen(self):
        pass

    def record_start(self, index):
        pass

    def record_done(self, index, result, elapsed, worker,
                    telemetry=None):
        pass

    def record_failed(self, index, error, attempts):
        pass

    def close(self):
        pass


def execute(plan: Plan, jobs: int = 1, retries: int = 1,
            checkpoint=None, resume: bool = False,
            progress: Optional[ProgressMeter] = None,
            interrupt_after: Optional[int] = None,
            timeout: Optional[float] = None) -> ExecutionResult:
    """Run ``worker(item)`` for every item of ``plan`` and return the
    results in item order.

    ``jobs=1`` runs in-process; ``jobs>1`` fans items out over a
    process pool.  Either way the merged results are identical.

    ``checkpoint`` names a JSONL journal; with ``resume=True`` items
    already journaled as done are recovered instead of re-run (the
    journal must match the plan's fingerprint, or
    :class:`~repro.errors.JournalError` is raised).
    ``interrupt_after=N`` aborts the run with
    :class:`ExecutionInterrupted` after ``N`` item completions — the
    programmatic equivalent of killing the process, used to exercise
    the resume path.

    ``retries`` bounds *extra* attempts per item (``retries=1`` means
    at most two attempts) for raised exceptions, worker deaths, and
    watchdog timeouts alike; each granted retry first waits out the
    fixed :data:`_BACKOFF_SCHEDULE` backoff.

    ``timeout`` arms a per-item watchdog (seconds of wall clock a
    single item attempt may take).  A hung worker is killed and the
    item re-runs deterministically in isolation.  Ignored when
    ``jobs=1`` — an in-process worker cannot be preempted.
    """
    if jobs < 1:
        raise ExecutionError(f"jobs must be >= 1, got {jobs}")
    if resume and checkpoint is None:
        raise ExecutionError("resume=True requires a checkpoint path")
    if timeout is not None and timeout <= 0:
        raise ExecutionError(f"timeout must be > 0, got {timeout}")

    journal = Journal(checkpoint) if checkpoint is not None \
        else _NullJournal()
    #: collect telemetry per item when the caller has obs enabled —
    #: decided here once so workers behave identically under any pool
    #: start method (the flag travels with the submit call).
    collect = obs.enabled()

    completed: dict[int, object] = {}
    telemetry_by_item: dict[int, dict] = {}
    if resume:
        state = journal.load(plan)
        completed = dict(state.completed)
        if collect:
            telemetry_by_item.update(state.telemetry)
        journal.reopen()
    else:
        journal.begin(plan)

    meter = progress if progress is not None \
        else ProgressMeter(plan.n_items)
    for _ in completed:
        meter.item_resumed()

    pending = [index for index in range(plan.n_items)
               if index not in completed]
    failures: dict[int, str] = {}
    attempts: dict[int, int] = {}
    done_this_run = 0

    def note_done(index: int, result, telemetry: Optional[dict],
                  worker: int, elapsed: float) -> bool:
        """Record a completion; True when the interrupt budget is hit."""
        nonlocal done_this_run
        completed[index] = result
        if telemetry is not None:
            telemetry_by_item[index] = telemetry
        journal.record_done(index, result, elapsed, worker, telemetry)
        meter.item_done(elapsed, worker)
        done_this_run += 1
        return interrupt_after is not None \
            and done_this_run >= interrupt_after

    def note_failure(index: int, error: Exception) -> bool:
        """Count a failed attempt; True when the item may retry
        (after the fixed backoff for this attempt count)."""
        attempts[index] = attempts.get(index, 0) + 1
        if attempts[index] <= retries:
            _backoff(attempts[index])
            return True
        message = f"{type(error).__name__}: {error}"
        failures[index] = message
        journal.record_failed(index, message, attempts[index])
        meter.item_failed()
        return False

    try:
        if jobs == 1:
            _serial(plan, pending, collect, journal, note_done,
                    note_failure)
        else:
            _parallel(plan, pending, jobs, collect, journal, note_done,
                      note_failure, timeout)
    finally:
        journal.close()

    merged = [completed[index] for index in sorted(completed)]
    # Telemetry merges exactly like results: by item index, never by
    # completion order — jobs=1 and jobs=N yield identical digests.
    for index in sorted(telemetry_by_item):
        obs.merge_snapshot(telemetry_by_item[index])
    return ExecutionResult(plan.label, merged, failures, meter.snapshot(),
                           meter.items_resumed, meter.items_done)


def _serial(plan: Plan, pending: list, collect: bool, journal, note_done,
            note_failure) -> None:
    """In-process execution: same journal/merge path as the pool."""
    queue = list(pending)
    while queue:
        index = queue.pop(0)
        journal.record_start(index)
        try:
            result, telemetry, worker, elapsed = _run_item(
                plan.worker, index, plan.items[index], collect)
        except Exception as error:
            if note_failure(index, error):
                queue.insert(0, index)
            continue
        if note_done(index, result, telemetry, worker, elapsed):
            raise ExecutionInterrupted(
                f"plan {plan.label!r}: interrupted with "
                f"{len(queue)} item(s) outstanding")


def _parallel(plan: Plan, pending: list, jobs: int, collect: bool,
              journal, note_done, note_failure,
              timeout: Optional[float] = None) -> None:
    """Round-based pool execution with crash and hang isolation."""
    queue = list(pending)
    while queue:
        batch, queue = queue, []
        workers = min(jobs, len(batch))
        pool = ProcessPoolExecutor(max_workers=workers)
        futures = {}
        for index in batch:
            journal.record_start(index)
            futures[pool.submit(_run_item, plan.worker, index,
                                plan.items[index], collect)] = index
        # The shared pool dispatches the batch in waves of `workers`
        # items; its watchdog allowance covers every wave.  Which
        # item is actually hung is only attributable from the
        # isolation path, where the per-item timeout is exact.
        allowance = None if timeout is None \
            else timeout * math.ceil(len(batch) / workers)
        unresolved = set(batch)
        interrupted = broken = hung = False
        try:
            for future in as_completed(futures, timeout=allowance):
                index = futures[future]
                try:
                    result, telemetry, worker, elapsed = future.result()
                except BrokenExecutor:
                    # A worker died; attribution is impossible from the
                    # shared pool — resolve the leftovers in isolation.
                    broken = True
                    continue
                except Exception as error:
                    unresolved.discard(index)
                    if note_failure(index, error):
                        queue.append(index)
                    continue
                unresolved.discard(index)
                if note_done(index, result, telemetry, worker, elapsed):
                    interrupted = True
                    break
        except FuturesTimeout:
            # Watchdog: at least one worker is hung.  Kill the pool;
            # every unresolved item re-runs in isolation where the
            # per-item timeout attributes the hang precisely.
            hung = True
        finally:
            if hung or broken:
                _terminate_workers(pool)
            else:
                pool.shutdown(wait=not interrupted, cancel_futures=True)
        if interrupted:
            raise ExecutionInterrupted(
                f"plan {plan.label!r}: interrupted with "
                f"{len(queue) + len(unresolved)} item(s) outstanding")
        if broken or hung:
            for index in sorted(unresolved):
                if _run_isolated(plan, index, collect, journal,
                                 note_done, note_failure, timeout):
                    raise ExecutionInterrupted(
                        f"plan {plan.label!r}: interrupted during "
                        f"crash isolation")
        queue.sort()


def _run_isolated(plan: Plan, index: int, collect: bool, journal,
                  note_done, note_failure,
                  timeout: Optional[float] = None) -> bool:
    """Run one item alone in a single-worker pool until it succeeds or
    exhausts its retry budget; returns True on interrupt-budget hit.
    ``timeout`` is enforced exactly here: the item is the pool's only
    occupant, so a watchdog expiry is attributable to it alone."""
    while True:
        journal.record_start(index)
        pool = ProcessPoolExecutor(max_workers=1)
        killed = False
        try:
            future = pool.submit(_run_item, plan.worker, index,
                                 plan.items[index], collect)
            result, telemetry, worker, elapsed = future.result(
                timeout=timeout)
        except FuturesTimeout:
            killed = True
            _terminate_workers(pool)
            hang = TimeoutError(
                f"item {index} exceeded the {timeout}s watchdog")
            if note_failure(index, hang):
                continue
            return False
        except Exception as error:
            if note_failure(index, error):
                continue
            return False
        finally:
            if not killed:
                pool.shutdown(wait=False, cancel_futures=True)
        return note_done(index, result, telemetry, worker, elapsed)
