"""Checkpoint journal: append-only JSONL record of a plan execution.

One journal file per run.  The first line identifies the plan (its
fingerprint and item count); every subsequent line is one event about
one item, addressed by its index in the plan:

* ``start`` — an item was handed to a worker;
* ``done``  — an item completed; carries its pickled result (base85-
  encoded so the journal stays line-oriented UTF-8 JSON) plus the
  worker pid and wall time;
* ``failed`` — an item's worker raised or died; carries the error.

The layout is the one journals had when several items could share a
record, so journals written then still resume: records key the item
index as ``"chunk"``, a ``done`` payload is a one-element result list,
and the header repeats the item count as ``"chunks"``.  A ``failed``
record written when items were retried also counts its ``attempts``;
replay ignores it.

Records are flushed line-by-line, so a killed run loses at most the
items that were in flight.  On ``resume`` the journal is replayed:
``done`` items are recovered from their payloads and skipped,
``start``-without-``done`` items (in flight when the run died) and
``failed`` items are re-run.  A journal whose plan fingerprint does
not match the plan being resumed is refused — silently mixing results
of two different sweeps is exactly the corruption this check exists to
prevent.

A run killed mid-``write`` (power loss, ``kill -9``, a full disk) can
leave the journal's **last** line truncated or garbled.  That is
expected damage for an append-only log, so replay tolerates it:
the trailing line is discarded with a :class:`JournalCorruptionWarning`
and its item simply re-runs — losing one item of progress, never
correctness.  A record is damaged when it does not parse, names no
item of the plan, or carries a ``done`` payload that is not one result.
Damage anywhere *before* the trailing line cannot be explained by an
interrupted append and fails the resume with
:class:`~repro.errors.JournalError`, as does a missing journal or a
damaged or foreign header.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import warnings
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ExecutionError, JournalError
from repro.exec.plan import _PICKLE_PROTOCOL, Plan


class JournalCorruptionWarning(UserWarning):
    """A corrupt trailing journal line was discarded during replay."""


def _encode_payload(results: list) -> str:
    return base64.b85encode(
        pickle.dumps(results, protocol=_PICKLE_PROTOCOL)).decode("ascii")


def _decode_payload(payload: str) -> list:
    return pickle.loads(base64.b85decode(payload.encode("ascii")))


@dataclass
class JournalState:
    """Replay of a journal: what is already done, what must re-run."""

    completed: dict = field(default_factory=dict)  # item index -> result
    #: item index -> telemetry snapshot (only for journals written
    #: with telemetry collection enabled).
    telemetry: dict = field(default_factory=dict)
    in_flight: set = field(default_factory=set)
    failed: set = field(default_factory=set)

    @property
    def pending(self) -> set:
        """Items that must re-run: started-but-unfinished or failed."""
        return (self.in_flight | self.failed) - set(self.completed)


class Journal:
    """Append-only JSONL checkpoint for one plan execution."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self._handle = None

    # -- writing -------------------------------------------------------
    def begin(self, plan: Plan) -> None:
        """Start a fresh journal (truncates any previous one)."""
        self._handle = open(self.path, "w", encoding="utf-8")
        self._write({"type": "plan", "label": plan.label,
                     "fingerprint": plan.fingerprint(),
                     "chunks": plan.n_items,
                     "items": plan.n_items})

    def reopen(self) -> None:
        """Continue appending to an existing journal (resume path)."""
        self._handle = open(self.path, "a", encoding="utf-8")

    def record_start(self, index: int) -> None:
        self._write({"type": "start", "chunk": index})

    def record_done(self, index: int, result, elapsed: float, worker: int,
                    telemetry: Optional[dict] = None) -> None:
        record = {"type": "done", "chunk": index,
                  "payload": _encode_payload([result]),
                  "elapsed": round(elapsed, 6), "worker": worker}
        if telemetry is not None:
            # Journaled alongside the result so a resumed run can
            # re-merge the skipped items' telemetry in plan order and
            # keep the telemetry digest identical to an uninterrupted
            # run (same guarantee as the result digest).
            record["telemetry"] = telemetry
        self._write(record)

    def record_failed(self, index: int, error: str) -> None:
        self._write({"type": "failed", "chunk": index, "error": error})

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _write(self, record: dict) -> None:
        if self._handle is None:
            raise ExecutionError(
                f"journal {self.path}: write before begin()/reopen()")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    # -- replay --------------------------------------------------------
    def load(self, plan: Plan) -> JournalState:
        """Replay the journal, validated against ``plan``."""
        if not os.path.exists(self.path):
            raise JournalError(
                f"cannot resume: no checkpoint journal at {self.path}")
        try:
            with open(self.path, encoding="utf-8") as handle:
                lines = [line for line in handle if line.strip()]
        except (OSError, ValueError) as error:
            raise JournalError(
                f"cannot resume: journal {self.path} is unreadable "
                f"({error})")
        if not lines:
            raise JournalError(
                f"cannot resume: journal {self.path} is empty")
        try:
            header = json.loads(lines[0])
        except ValueError as error:
            raise JournalError(
                f"journal {self.path}: corrupt plan header "
                f"({error}); refusing to resume")
        if not isinstance(header, dict) or header.get("type") != "plan":
            raise JournalError(
                f"journal {self.path}: missing plan header")
        if header.get("fingerprint") != plan.fingerprint():
            raise JournalError(
                f"journal {self.path} was written for a different plan "
                f"(journal {header.get('label')!r} "
                f"fingerprint {header.get('fingerprint')!r}); refusing "
                f"to mix results")
        state = JournalState()
        last = len(lines) - 1
        for position, line in enumerate(lines[1:], start=1):
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not a JSON object")
                kind, index = record.get("type"), record.get("chunk")
                if type(index) is not int or not 0 <= index < plan.n_items:
                    raise ValueError(f"item index {index!r} is not one of "
                                     f"the plan's {plan.n_items} items")
                if kind == "start":
                    state.in_flight.add(index)
                elif kind == "done":
                    # Decode BEFORE mutating state: a garbled payload
                    # must not leave a half-registered item behind.
                    payload = _decode_payload(record["payload"])
                    if not isinstance(payload, list) or len(payload) != 1:
                        raise ValueError("done payload is not one result")
                    state.completed[index] = payload[0]
                    if "telemetry" in record:
                        state.telemetry[index] = record["telemetry"]
                    state.in_flight.discard(index)
                    state.failed.discard(index)
                elif kind == "failed":
                    state.failed.add(index)
                    state.in_flight.discard(index)
            except (ValueError, KeyError, TypeError, EOFError,
                    pickle.UnpicklingError) as error:
                if position == last:
                    # An interrupted append can only damage the tail.
                    # Discard it; the item's `start` record (if any)
                    # keeps it in_flight, so it simply re-runs.
                    warnings.warn(
                        f"journal {self.path}: discarding corrupt "
                        f"trailing line ({type(error).__name__}: "
                        f"{error}); the affected item will re-run",
                        JournalCorruptionWarning, stacklevel=2)
                    break
                raise JournalError(
                    f"journal {self.path}: corrupt record at line "
                    f"{position + 1} of {last + 1} — damage before the "
                    f"trailing line cannot come from an interrupted "
                    f"append; refusing to resume "
                    f"({type(error).__name__}: {error})")
        return state
