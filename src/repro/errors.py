"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors
(``TypeError``/``ValueError`` from misuse still propagate where appropriate).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """A model or platform was configured inconsistently.

    Raised by "prior to implementation system configuration checks"
    (paper Section 2): duplicate identifiers, unmapped components, slot
    overlaps, frames exceeding payload capacity, and similar static problems.
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state."""


class SchedulingError(ReproError):
    """A scheduler could not honour its invariants (e.g. budget overrun
    in an enforced-isolation policy, or an unschedulable TT table)."""


class AnalysisError(ReproError):
    """A timing-analysis routine cannot produce a bound.

    The most common case is non-convergence: utilization above 1, or a
    response-time recurrence that exceeds its deadline/period ceiling.
    """


class ContractError(ReproError):
    """Contract algebra failure: incompatible interfaces, failed dominance,
    or an unsatisfied vertical assumption."""


class CompositionError(ReproError):
    """Components cannot be composed: port type mismatch, dangling
    connector, or duplicate port names."""


class ProtocolError(ReproError):
    """A communication controller violated its protocol rules
    (e.g. transmission outside the node's TDMA slot without a fault model)."""


class MeasurementError(ReproError):
    """The measurement & calibration service refused an operation:
    not connected, read-only entry, unknown registry name, or a write
    against a registry with no configuration set attached.

    Configuration-class refusals (pre-compile/link-time writes in the
    linked stage) and validator rejections raise
    :class:`ConfigurationError` from the underlying
    :class:`~repro.core.config.ConfigurationSet` instead — the freeze
    semantics live there, not in the service."""


class ExecutionError(ReproError):
    """The parallel execution engine could not complete a work plan.

    Raised once every item has run when any item failed (naming each
    failed item), when the engine is called with invalid arguments, or
    — as :class:`JournalError` — when a checkpoint journal cannot be
    resumed.
    """


class JournalError(ExecutionError):
    """A checkpoint journal cannot be resumed: it is missing, was
    written for a different plan, or is damaged before its trailing
    line.  The CLI reports it as unreadable input (exit 2)."""

