"""Work plans: the unit the execution engine schedules.

A :class:`Plan` is a picklable description of an embarrassingly
parallel sweep: a worker callable, a tuple of work items, a base seed
and a chunk size.  Everything the engine needs — sharding, per-item
seeds, the checkpoint fingerprint — derives deterministically from
these four fields, so two processes constructing the same plan agree
on every chunk boundary and every seed without coordinating.

The worker must be picklable (a module-level function, or a
:func:`functools.partial` over one with picklable arguments) and is
called as ``worker(item, seed)`` in a worker process; its return value
must itself be picklable, because results travel back through the pool
and into the checkpoint journal.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError
from repro.exec.shard import Chunk, shard

#: Pin the pickle protocol so fingerprints agree across interpreter
#: versions with different default protocols.
_PICKLE_PROTOCOL = 4


@dataclass(frozen=True)
class Plan:
    """One sweep: ``worker(item, seed)`` over every item, chunked."""

    label: str
    worker: Callable
    items: tuple = field(default_factory=tuple)
    base_seed: int = 0
    chunk_size: int = 1

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ConfigurationError(
                f"plan {self.label!r}: chunk_size must be >= 1")
        if not isinstance(self.items, tuple):
            object.__setattr__(self, "items", tuple(self.items))

    @property
    def n_items(self) -> int:
        return len(self.items)

    def chunks(self) -> list[Chunk]:
        """The plan's chunk list — stable across runs and job counts."""
        return shard(self.items, self.chunk_size, self.base_seed)

    def fingerprint(self) -> str:
        """SHA-256 identity of the plan's *work* (label, seed, chunking,
        items) — the key a checkpoint journal is validated against on
        resume.  The worker callable is deliberately excluded: partials
        capture live objects whose pickled form may differ between the
        interrupted and the resuming process even when the work is the
        same."""
        payload = pickle.dumps(
            (self.label, self.base_seed, self.chunk_size, self.items),
            protocol=_PICKLE_PROTOCOL)
        return hashlib.sha256(payload).hexdigest()
