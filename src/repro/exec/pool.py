"""Deterministic fan-out of a work plan over a process pool.

:func:`execute` runs a :class:`~repro.exec.plan.Plan` either in-process
(``jobs=1``) or across a ``concurrent.futures`` process pool, calling
``worker(item)`` exactly once per item and merging the results **by item
index**, never by completion order — so, items being pure functions of
themselves, ``jobs=1`` and ``jobs=N`` produce byte-identical merged
results.

Failure handling:

* a worker that *raises* fails its item at once — the item being a pure
  function of itself, a second attempt would raise again;
* a worker that *dies* (segfault, ``os._exit``, OOM-kill) breaks the
  shared pool.  At most ``jobs + 1`` items are in flight at a time, and
  each in-flight item the broken pool left unresolved re-runs once in
  its own single-worker pool, which pins the crash on the guilty item
  (an innocent item simply completes in isolation).  The items not yet
  submitted go on in a fresh shared pool.

A failed item does not stop the run: once every item has run and been
journaled, :func:`execute` raises one
:class:`~repro.errors.ExecutionError` that names every failed item.

Every item transition is journaled through
:mod:`repro.exec.checkpoint` when a checkpoint path is given, and
``resume=True`` replays the journal to skip completed items and re-run
in-flight or failed ones.

``concurrent.futures`` is imported inside the ``jobs > 1`` path only,
and the journal only when a checkpoint path is given: a serial run
without one never loads ``multiprocessing``, ``pickle``,
``subprocess`` and the rest of the process-pool stack.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional

from repro import obs
from repro.errors import ExecutionError
from repro.exec.plan import Plan
from repro.exec.progress import ProgressMeter


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

    def record_failed(self, index, error):
        pass

    def close(self):
        pass


def execute(plan: Plan, jobs: int = 1, checkpoint=None,
            resume: bool = False,
            progress: Optional[ProgressMeter] = None) -> list:
    """Run ``worker(item)`` once for every item of ``plan`` and return
    the results in item order.

    ``jobs=1`` runs in-process; ``jobs>1`` fans items out over a
    process pool.  Either way the merged results are identical.

    ``checkpoint`` names a JSONL journal; with ``resume=True`` items
    already journaled as done are recovered instead of re-run (the
    journal must match the plan's fingerprint, or
    :class:`~repro.errors.JournalError` is raised).  ``progress``
    receives every item event; an exception it raises stops the run
    the way a kill does, with the items finished so far journaled.

    Raises :class:`~repro.errors.ExecutionError` naming every failed
    item once all items have run.
    """
    if jobs < 1:
        raise ExecutionError(f"jobs must be >= 1, got {jobs}")
    if resume and checkpoint is None:
        raise ExecutionError("resume=True requires a checkpoint path")

    if checkpoint is not None:
        from repro.exec.checkpoint import Journal
        journal = Journal(checkpoint)
    else:
        journal = _NullJournal()
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

    def note_done(index: int, result, telemetry: Optional[dict],
                  worker: int, elapsed: float) -> None:
        completed[index] = result
        if telemetry is not None:
            telemetry_by_item[index] = telemetry
        journal.record_done(index, result, elapsed, worker, telemetry)
        meter.item_done(elapsed, worker)

    def note_failure(index: int, error: Exception) -> None:
        message = f"{type(error).__name__}: {error}"
        failures[index] = message
        journal.record_failed(index, message)
        meter.item_failed()

    try:
        if jobs == 1:
            _serial(plan, pending, collect, journal, note_done,
                    note_failure)
        elif pending:
            _parallel(plan, pending, jobs, collect, journal, note_done,
                      note_failure)
    finally:
        journal.close()

    # Telemetry merges exactly like results: by item index, never by
    # completion order — jobs=1 and jobs=N yield identical digests.
    for index in sorted(telemetry_by_item):
        obs.merge_snapshot(telemetry_by_item[index])
    if failures:
        detail = "; ".join(f"item {index}: {error}"
                           for index, error in sorted(failures.items()))
        raise ExecutionError(f"plan {plan.label!r}: {len(failures)} "
                             f"item(s) failed — {detail}")
    return [completed[index] for index in range(plan.n_items)]


def _serial(plan: Plan, pending: list, collect: bool, journal, note_done,
            note_failure) -> None:
    """In-process execution: same journal/merge path as the pool."""
    for index in pending:
        journal.record_start(index)
        try:
            result, telemetry, worker, elapsed = _run_item(
                plan.worker, index, plan.items[index], collect)
        except Exception as error:
            note_failure(index, error)
            continue
        note_done(index, result, telemetry, worker, elapsed)


def _parallel(plan: Plan, pending: list, jobs: int, collect: bool,
              journal, note_done, note_failure) -> None:
    """Pool execution; after a worker death the items that were in
    flight re-run in isolation and the rest go on in a fresh pool."""
    queue = deque(pending)
    while queue:
        for index in _shared_pool(plan, queue, jobs, collect, journal,
                                  note_done, note_failure):
            _run_isolated(plan, index, collect, journal, note_done,
                          note_failure)


def _shared_pool(plan: Plan, queue: deque, jobs: int, collect: bool,
                 journal, note_done, note_failure) -> list:
    """Run items off ``queue`` in one shared pool, at most ``jobs + 1``
    in flight, each journaled as started when it is submitted.  Stops
    submitting once the pool is broken, whether ``submit`` or a result
    says so, and returns the items the break left unresolved."""
    from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                    ProcessPoolExecutor, wait)

    pool = ProcessPoolExecutor(max_workers=min(jobs, len(queue)))
    in_flight = {}
    unresolved = []
    broken = False
    try:
        while True:
            while queue and not broken and len(in_flight) <= jobs:
                index = queue[0]
                try:
                    future = pool.submit(_run_item, plan.worker, index,
                                         plan.items[index], collect)
                except BrokenExecutor:
                    broken = True
                    break
                queue.popleft()
                journal.record_start(index)
                in_flight[future] = index
            if not in_flight:
                return sorted(unresolved)
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                index = in_flight.pop(future)
                try:
                    result, telemetry, worker, elapsed = future.result()
                except BrokenExecutor:
                    # A worker died; the shared pool cannot tell whose
                    # item killed it.
                    broken = True
                    unresolved.append(index)
                    continue
                except Exception as error:
                    note_failure(index, error)
                    continue
                note_done(index, result, telemetry, worker, elapsed)
    finally:
        pool.shutdown(cancel_futures=True)


def _run_isolated(plan: Plan, index: int, collect: bool, journal,
                  note_done, note_failure) -> None:
    """Run one item once, alone in a single-worker pool: a worker death
    here is the item's own."""
    from concurrent.futures import ProcessPoolExecutor

    journal.record_start(index)
    pool = ProcessPoolExecutor(max_workers=1)
    try:
        result, telemetry, worker, elapsed = pool.submit(
            _run_item, plan.worker, index, plan.items[index],
            collect).result()
    except Exception as error:
        note_failure(index, error)
        return
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    note_done(index, result, telemetry, worker, elapsed)
