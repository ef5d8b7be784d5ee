"""AUTOSAR/OSEK-like operating system layer.

Provides the task model, three scheduling policies (fixed priority, strict
TDMA partitions, deferrable reservation servers), OSEK alarms, events,
ICPP resources, and a simulated ECU kernel with timing protection.

The package-level names resolve on first access (:mod:`repro._lazy`),
so a kernel loads only the policies and services it names: a
fixed-priority or TDMA ECU never imports the reservation-server or
schedule-table modules.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "alarm": ("Alarm",),
    "events": ("OsekEvent",),
    "kernel": ("EcuKernel",),
    "resource": ("OsekResource",),
    "schedule_table": ("ExpiryPoint", "ScheduleTable"),
    "scheduler": ("FixedPriorityScheduler", "Scheduler"),
    "server": ("DeferrableServerScheduler", "ServerSpec"),
    "task": ("CRITICALITY_LEVELS", "Acquire", "Execute", "Job", "JobState",
             "Release", "Task", "TaskSpec", "WaitEvent"),
    "tdma": ("TdmaScheduler", "Window", "build_even_schedule"),
})
