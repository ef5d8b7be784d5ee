"""Deterministic parallel execution engine for sweeps and campaigns.

``repro.exec`` runs any embarrassingly parallel workload — fault-
campaign cells, differential-verification fleets, fuzzing rounds — as
one ``worker(item)`` call per item, fanned out over a process pool,
with the guarantee that ``jobs=1`` and ``jobs=N`` produce
**byte-identical merged results** (same report digests): each item's
result is a pure function of the item, and results merge by item
index, never by completion order.

* :mod:`repro.exec.shard` — spawn-style ``(base_seed, index)`` seed
  derivation for the generators that build a sweep's items;
* :mod:`repro.exec.plan` — the picklable work-plan description and its
  checkpoint fingerprint;
* :mod:`repro.exec.pool` — in-process or process-pool execution of
  each item once, with index-ordered merging and crash isolation;
* :mod:`repro.exec.checkpoint` — the append-only JSONL journal behind
  ``--resume``;
* :mod:`repro.exec.progress` — items/sec, ETA and per-worker wall-time
  metrics, observational only.

The package-level names resolve on first access (:mod:`repro._lazy`):
a run loads the pool, plan and progress modules when it first executes,
and the journal (with ``pickle`` and ``base64``) only when it is given
a checkpoint path.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "shard": ("derive_seed",),
    "plan": ("Plan",),
    "pool": ("execute",),
    "checkpoint": ("Journal", "JournalState"),
    "progress": ("ProgressMeter",),
})
