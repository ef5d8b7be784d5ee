"""Work plans: the unit the execution engine schedules.

A :class:`Plan` is a picklable description of an embarrassingly
parallel sweep: a label, a worker callable and a tuple of work items.
The engine calls ``worker(item)`` once per item and addresses each
result by its item index, so two processes constructing the same plan
agree on every unit of work without coordinating.

The worker must be picklable (a module-level function, or a
:func:`functools.partial` over one with picklable arguments) and must
be a pure function of its item; its return value must itself be
picklable, because results travel back through the pool and into the
checkpoint journal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.digest import sha256

#: Pin the pickle protocol so fingerprints agree across interpreter
#: versions with different default protocols.
_PICKLE_PROTOCOL = 4


@dataclass(frozen=True)
class Plan:
    """One sweep: ``worker(item)`` over every item, in item order.

    ``base_seed`` names the sweep's seed in the journal fingerprint
    (runners that generate their items from a seed pass it); the
    engine hands it to no worker."""

    label: str
    worker: Callable
    items: tuple = field(default_factory=tuple)
    base_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.items, tuple):
            object.__setattr__(self, "items", tuple(self.items))

    @property
    def n_items(self) -> int:
        return len(self.items)

    def fingerprint(self) -> str:
        """SHA-256 identity of the plan's *work* (label, seed, items) —
        the key a checkpoint journal is validated against on resume.
        The worker callable is deliberately excluded: partials capture
        live objects whose pickled form may differ between the
        interrupted and the resuming process even when the work is the
        same."""
        import pickle

        # The 1 is the chunk size every earlier journal hashed; keeping
        # it keeps those journals resumable.
        payload = pickle.dumps(
            (self.label, self.base_seed, 1, self.items),
            protocol=_PICKLE_PROTOCOL)
        return sha256(payload).hexdigest()
