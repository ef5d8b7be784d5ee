"""Containment monitors: did a fault stay inside its region?

A *fault containment region* (FCR) is a set of trace subjects belonging
to the faulty element.  :func:`containment_violations` scans a trace for
damage (deadline misses, COM timeouts, collisions) attributed to subjects
*outside* the region — exactly the paper's error-containment criterion.
:func:`compare_runs` supports the stronger differential form: a victim's
observable timing must be identical with and without the fault.

:func:`first_detection` and :func:`last_recovery` are the detect and
recover evidence both fault evaluators (campaign cells and resilience
scenarios) read from a trace.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.errors import FaultContainmentViolation
from repro.sim.trace import Record, Trace

#: Trace categories that indicate damage to the subject.
DAMAGE_CATEGORIES = (
    "task.deadline_miss",
    "task.budget_overrun",
    "com.timeout",
    "ttp.collision",
    "ttp.membership_drop",
    "flexray.slot_lost",
)

#: Trace categories that mark a recovery step after a fault window.
RECOVERY_CATEGORIES = ("dem.healed", "recovery.deescalate")


def containment_violations(trace: Trace, region: Iterable[str],
                           since: int = 0) -> list:
    """Damage records (:data:`DAMAGE_CATEGORIES`) outside the fault
    containment region.

    ``region`` subjects are matched exactly or as dotted prefixes, so a
    region of ``{"N2"}`` also owns ``"N2.state"``.
    """
    region = set(region)

    def in_region(subject: str) -> bool:
        return any(subject == r or subject.startswith(r + ".")
                   for r in region)

    violations = []
    for category in DAMAGE_CATEGORIES:
        for record in trace.records(category):
            if record.time < since:
                continue
            if not in_region(record.subject):
                violations.append(record)
    return violations


def first_detection(trace: Trace, categories: Iterable[str],
                    since: int) -> Optional[Record]:
    """The earliest record of ``categories`` at or after ``since``; on
    a tie the category listed first wins.  None when nothing fired."""
    first = None
    for category in categories:
        for record in trace.records(category):
            if record.time >= since:
                if first is None or record.time < first.time:
                    first = record
                break  # records are time-ordered per category
    return first


def last_recovery(trace: Trace, since: int, modes,
                  nominal: Optional[str]) -> Optional[int]:
    """Time of the latest recovery evidence at or after ``since``: a
    healed DEM event, a recovery de-escalation or, unless ``modes`` is
    None, the mode machine's return to ``nominal``.  None when there
    is none."""
    times = [record.time for category in RECOVERY_CATEGORIES
             for record in trace.records(category) if record.time >= since]
    if modes is not None:
        times += [time for time, mode in modes.history
                  if time >= since and mode == nominal]
    return max(times, default=None)


def assert_contained(trace: Trace, region: Iterable[str],
                     since: int = 0) -> None:
    """Raise :class:`FaultContainmentViolation` when damage escaped."""
    violations = containment_violations(trace, region, since)
    if violations:
        first = violations[0]
        raise FaultContainmentViolation(
            f"{len(violations)} damage record(s) outside region "
            f"{sorted(region)}; first: {first.category} on "
            f"{first.subject} at t={first.time}")


def compare_runs(build_and_run: Callable[[bool], list],
                 ) -> tuple[list, list]:
    """Run a scenario twice — baseline and faulted.

    ``build_and_run(faulted)`` must construct a *fresh* simulation,
    run it, and return the victim's observable metric series (e.g.
    reception times or response times).  Returns (baseline, faulted).
    """
    return build_and_run(False), build_and_run(True)


def is_isolated(baseline: list, faulted: list) -> bool:
    """Strong isolation: the victim's series is bit-for-bit identical."""
    return baseline == faulted


def degradation(baseline: list, faulted: list) -> Optional[float]:
    """Relative worst-case degradation of a latency series
    (``max_f / max_b - 1``); None when either series is empty."""
    if not baseline or not faulted:
        return None
    return max(faulted) / max(baseline) - 1.0
