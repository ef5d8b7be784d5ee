"""Deterministic fan-out of a work plan over a process pool.

:func:`execute` runs a :class:`~repro.exec.plan.Plan` either in-process
(``jobs=1``) or across a ``concurrent.futures`` process pool, and
merges chunk results **by chunk index**, never by completion order —
so together with the index-derived seeds of :mod:`repro.exec.shard`,
``jobs=1`` and ``jobs=N`` produce byte-identical merged results.

Failure handling:

* a worker that *raises* has the chunk retried up to ``retries`` extra
  attempts before the chunk is marked failed;
* a worker that *dies* (segfault, ``os._exit``, OOM-kill) breaks the
  shared pool; every chunk left unresolved by the broken round is then
  re-run in its own single-worker pool, which attributes the crash to
  the guilty chunk precisely (an innocent chunk simply completes in
  isolation) while the same retry budget applies;
* a worker that *hangs* is caught by the per-chunk watchdog
  (``timeout=SECONDS``): the round is declared hung once its allowance
  (timeout x dispatch waves) elapses, the pool's processes are killed,
  and every unresolved chunk re-runs in isolation where the watchdog
  is enforced per chunk precisely — a hung attempt counts against the
  same retry budget as a raise or a crash;
* each granted retry waits out a short **fixed** backoff
  (:data:`_BACKOFF_SCHEDULE`) first — fixed, not randomised, so a
  retried run stays as deterministic as an untroubled one.

None of this affects merged results: chunk results are a pure function
of ``(item, seed)``, so any mix of retries, crashes, and watchdog
kills that ends in success produces the byte-identical report digest
at any ``--jobs`` level, interrupted or resumed.  With ``jobs=1`` the
worker runs on the caller's thread and cannot be preempted — the
watchdog applies to pool execution only.

Every chunk transition is journaled through
:mod:`repro.exec.checkpoint` when a checkpoint path is given, and
``resume=True`` replays the journal to skip completed chunks and re-run
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
from repro.exec.shard import Chunk

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


def _run_chunk(worker, chunk: Chunk, collect: bool = False
               ) -> tuple[list, Optional[dict], int, float]:
    """Worker-side chunk body: run every item with its derived seed.

    With ``collect=True`` the chunk runs inside a fresh telemetry
    capture scope (identical whether this executes in-process or in a
    worker), and the captured snapshot travels back with the results so
    the parent can merge all chunks in plan order.
    """
    import os
    started = time.perf_counter()
    if collect:
        with obs.capture() as telemetry:
            with obs.span("exec.chunk", category="exec",
                          index=chunk.index, items=chunk.size):
                results = [worker(item, seed)
                           for item, seed in zip(chunk.items, chunk.seeds)]
        snapshot = telemetry.snapshot()
    else:
        results = [worker(item, seed)
                   for item, seed in zip(chunk.items, chunk.seeds)]
        snapshot = None
    return results, snapshot, os.getpid(), time.perf_counter() - started


@dataclass
class ExecutionResult:
    """Outcome of one :func:`execute` call."""

    label: str
    results: list = field(default_factory=list)
    #: chunk index -> last error string, for chunks past their budget.
    failures: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    chunks_resumed: int = 0
    chunks_executed: int = 0
    #: items recovered from the journal vs freshly run (resumed cells
    #: are *not* throughput — the progress meter reports them apart).
    items_resumed: int = 0
    items_executed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_on_failure(self) -> None:
        if self.failures:
            detail = "; ".join(f"chunk {index}: {error}"
                               for index, error in sorted(self.failures.items()))
            raise ExecutionError(
                f"plan {self.label!r}: {len(self.failures)} chunk(s) "
                f"failed after retries — {detail}")


class _NullJournal:
    """Journal stand-in when no checkpoint path was given."""

    def begin(self, plan):
        pass

    def reopen(self):
        pass

    def record_start(self, index):
        pass

    def record_done(self, index, results, elapsed, worker,
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
    """Run ``plan`` and return its merged, plan-ordered results.

    ``jobs=1`` runs in-process; ``jobs>1`` fans chunks out over a
    process pool.  Either way the merged results are identical.

    ``checkpoint`` names a JSONL journal; with ``resume=True`` chunks
    already journaled as done are recovered instead of re-run (the
    journal must match the plan's fingerprint).  ``interrupt_after=N``
    aborts the run with :class:`ExecutionInterrupted` after ``N`` chunk
    completions — the programmatic equivalent of killing the process,
    used to exercise the resume path.

    ``retries`` bounds *extra* attempts per chunk (``retries=1`` means
    at most two attempts) for raised exceptions, worker deaths, and
    watchdog timeouts alike; each granted retry first waits out the
    fixed :data:`_BACKOFF_SCHEDULE` backoff.

    ``timeout`` arms a per-chunk watchdog (seconds of wall clock a
    single chunk attempt may take).  A hung worker is killed and the
    chunk re-runs deterministically in isolation.  Ignored when
    ``jobs=1`` — an in-process worker cannot be preempted.
    """
    if jobs < 1:
        raise ExecutionError(f"jobs must be >= 1, got {jobs}")
    if resume and checkpoint is None:
        raise ExecutionError("resume=True requires a checkpoint path")
    if timeout is not None and timeout <= 0:
        raise ExecutionError(f"timeout must be > 0, got {timeout}")

    chunks = plan.chunks()
    journal = Journal(checkpoint) if checkpoint is not None \
        else _NullJournal()
    #: collect telemetry per chunk when the caller has obs enabled —
    #: decided here once so workers behave identically under any pool
    #: start method (the flag travels with the submit call).
    collect = obs.enabled()

    completed: dict[int, list] = {}
    telemetry_by_chunk: dict[int, dict] = {}
    chunks_resumed = 0
    if resume:
        state = journal.load(plan)
        completed = dict(state.completed)
        if collect:
            telemetry_by_chunk.update(state.telemetry)
        chunks_resumed = len(completed)
        journal.reopen()
    else:
        journal.begin(plan)

    meter = progress if progress is not None \
        else ProgressMeter(len(chunks), plan.n_items)
    for index in sorted(completed):
        meter.chunk_resumed(len(completed[index]))

    pending = [chunk for chunk in chunks if chunk.index not in completed]
    failures: dict[int, str] = {}
    attempts: dict[int, int] = {}
    done_this_run = 0

    def note_done(chunk: Chunk, results: list, telemetry: Optional[dict],
                  worker: int, elapsed: float) -> bool:
        """Record a completion; True when the interrupt budget is hit."""
        nonlocal done_this_run
        completed[chunk.index] = results
        if telemetry is not None:
            telemetry_by_chunk[chunk.index] = telemetry
        journal.record_done(chunk.index, results, elapsed, worker,
                            telemetry)
        meter.chunk_done(chunk.size, elapsed, worker)
        done_this_run += 1
        return interrupt_after is not None \
            and done_this_run >= interrupt_after

    def note_failure(chunk: Chunk, error: Exception) -> bool:
        """Count a failed attempt; True when the chunk may retry
        (after the fixed backoff for this attempt count)."""
        attempts[chunk.index] = attempts.get(chunk.index, 0) + 1
        if attempts[chunk.index] <= retries:
            _backoff(attempts[chunk.index])
            return True
        message = f"{type(error).__name__}: {error}"
        failures[chunk.index] = message
        journal.record_failed(chunk.index, message,
                              attempts[chunk.index])
        meter.chunk_failed()
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

    merged = [result for index in sorted(completed)
              for result in completed[index]]
    # Telemetry merges exactly like results: by chunk index, never by
    # completion order — jobs=1 and jobs=N yield identical digests.
    for index in sorted(telemetry_by_chunk):
        obs.merge_snapshot(telemetry_by_chunk[index])
    return ExecutionResult(plan.label, merged, failures, meter.snapshot(),
                           chunks_resumed, len(completed) - chunks_resumed,
                           meter.items_resumed, meter.items_done)


def _serial(plan: Plan, pending: list, collect: bool, journal, note_done,
            note_failure) -> None:
    """In-process execution: same journal/merge path as the pool."""
    queue = sorted(pending, key=lambda c: c.index)
    while queue:
        chunk = queue.pop(0)
        journal.record_start(chunk.index)
        try:
            results, telemetry, worker, elapsed = _run_chunk(
                plan.worker, chunk, collect)
        except Exception as error:
            if note_failure(chunk, error):
                queue.insert(0, chunk)
            continue
        if note_done(chunk, results, telemetry, worker, elapsed):
            raise ExecutionInterrupted(
                f"plan {plan.label!r}: interrupted with "
                f"{len(queue)} chunk(s) outstanding")


def _parallel(plan: Plan, pending: list, jobs: int, collect: bool,
              journal, note_done, note_failure,
              timeout: Optional[float] = None) -> None:
    """Round-based pool execution with crash and hang isolation."""
    queue = sorted(pending, key=lambda c: c.index)
    while queue:
        batch, queue = queue, []
        workers = min(jobs, len(batch))
        pool = ProcessPoolExecutor(max_workers=workers)
        futures = {}
        for chunk in batch:
            journal.record_start(chunk.index)
            futures[pool.submit(_run_chunk, plan.worker, chunk,
                                collect)] = chunk
        # The shared pool dispatches the batch in waves of `workers`
        # chunks; its watchdog allowance covers every wave.  Which
        # chunk is actually hung is only attributable from the
        # isolation path, where the per-chunk timeout is exact.
        allowance = None if timeout is None \
            else timeout * math.ceil(len(batch) / workers)
        unresolved = {chunk.index: chunk for chunk in batch}
        interrupted = broken = hung = False
        try:
            for future in as_completed(futures, timeout=allowance):
                chunk = futures[future]
                try:
                    results, telemetry, worker, elapsed = future.result()
                except BrokenExecutor:
                    # A worker died; attribution is impossible from the
                    # shared pool — resolve the leftovers in isolation.
                    broken = True
                    continue
                except Exception as error:
                    unresolved.pop(chunk.index, None)
                    if note_failure(chunk, error):
                        queue.append(chunk)
                    continue
                unresolved.pop(chunk.index, None)
                if note_done(chunk, results, telemetry, worker, elapsed):
                    interrupted = True
                    break
        except FuturesTimeout:
            # Watchdog: at least one worker is hung.  Kill the pool;
            # every unresolved chunk re-runs in isolation where the
            # per-chunk timeout attributes the hang precisely.
            hung = True
        finally:
            if hung or broken:
                _terminate_workers(pool)
            else:
                pool.shutdown(wait=not interrupted, cancel_futures=True)
        if interrupted:
            raise ExecutionInterrupted(
                f"plan {plan.label!r}: interrupted with "
                f"{len(queue) + len(unresolved)} chunk(s) outstanding")
        if broken or hung:
            for index in sorted(unresolved):
                if _run_isolated(plan, unresolved[index], collect, journal,
                                 note_done, note_failure, timeout):
                    raise ExecutionInterrupted(
                        f"plan {plan.label!r}: interrupted during "
                        f"crash isolation")
        queue.sort(key=lambda c: c.index)


def _run_isolated(plan: Plan, chunk: Chunk, collect: bool, journal,
                  note_done, note_failure,
                  timeout: Optional[float] = None) -> bool:
    """Run one chunk alone in a single-worker pool until it succeeds or
    exhausts its retry budget; returns True on interrupt-budget hit.
    ``timeout`` is enforced exactly here: the chunk is the pool's only
    occupant, so a watchdog expiry is attributable to it alone."""
    while True:
        journal.record_start(chunk.index)
        pool = ProcessPoolExecutor(max_workers=1)
        killed = False
        try:
            future = pool.submit(_run_chunk, plan.worker, chunk, collect)
            results, telemetry, worker, elapsed = future.result(
                timeout=timeout)
        except FuturesTimeout:
            killed = True
            _terminate_workers(pool)
            hang = TimeoutError(
                f"chunk {chunk.index} exceeded the {timeout}s watchdog")
            if note_failure(chunk, hang):
                continue
            return False
        except Exception as error:
            if note_failure(chunk, error):
                continue
            return False
        finally:
            if not killed:
                pool.shutdown(wait=False, cancel_futures=True)
        return note_done(chunk, results, telemetry, worker, elapsed)
