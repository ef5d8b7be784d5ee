"""Fault monitors: was a fault detected, contained and recovered from?

A *fault containment region* (FCR) is a set of trace subjects belonging
to the faulty element.  :func:`containment_violations` scans a trace for
damage (deadline misses, COM timeouts, collisions) attributed to subjects
*outside* the region — exactly the paper's error-containment criterion.

:func:`judge` is the one detect/contain/recover rule both fault
pipelines apply to a world that has run: campaign cells
(:mod:`repro.faults.campaign`) and resilience scenarios and their
baselines (:mod:`repro.verify.resilience`).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.sim.trace import Record, Trace

#: Trace categories counted as *detection* of an injected fault.  E2E
#: receiver error verdicts, watchdog expiry, OS budget enforcement and
#: COM deadline monitoring are the paper's detector inventory.
DETECTION_CATEGORIES = (
    "e2e.crc_error",
    "e2e.wrong_sequence",
    "e2e.repeated",
    "e2e.timeout",
    "wdg.violation",
    "task.budget_overrun",
    "com.timeout",
)

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


def judge(world, categories: Iterable[str], region: Iterable[str],
          onset: int, end: Optional[int], nominal: str
          ) -> tuple[Optional[Record], list, bool, Optional[int]]:
    """Judge one fault in a world that has run; returns ``(detection,
    escaped, recovered, recovery_time)``.

    ``detection`` is the earliest record of ``categories`` at or after
    ``onset`` (on a tie the category listed first wins), ``escaped``
    the damage records outside ``region`` since ``onset``.  The world
    recovered when the window closed (``end`` is not None), no DEM
    event is confirmed and the mode is back at ``nominal``; a world
    whose ``errors`` and ``modes`` are None counts as healthy.  The
    recovery time is then the latest healed DEM event, recovery
    de-escalation or return to ``nominal`` at or after ``end`` (None
    without a recovery stack).
    """
    trace = world.trace
    detection = None
    for category in categories:
        for record in trace.records(category):
            if record.time >= onset:
                if detection is None or record.time < detection.time:
                    detection = record
                break  # records are time-ordered per category
    escaped = containment_violations(trace, region, since=onset)
    if end is None:
        return detection, escaped, False, None
    if world.errors is None:
        return detection, escaped, True, None
    if world.errors.confirmed_events() or world.modes.current != nominal:
        return detection, escaped, False, None
    times = [record.time for category in RECOVERY_CATEGORIES
             for record in trace.records(category) if record.time >= end]
    times += [time for time, mode in world.modes.history
              if time >= end and mode == nominal]
    return detection, escaped, True, max(times, default=None)
