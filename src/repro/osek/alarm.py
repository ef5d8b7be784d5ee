"""OSEK alarms: timed activation of tasks, event setting, or callbacks.

Alarms are the OSEK mechanism behind periodic task release.  The kernel also
offers direct periodic activation for specs with a ``period``; alarms remain
useful for phase-shifted activations, watchdog kicks, and mode-dependent
timing.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError


class Alarm:
    """A (possibly cyclic) alarm bound to a kernel.

    ``action`` runs each time the alarm expires.  Use the factory helpers on
    the kernel (``kernel.alarm_activate`` / ``kernel.alarm_set_event``) for
    the two standard OSEK actions.
    """

    def __init__(self, kernel, name: str, action: Callable[[], None]):
        self.kernel = kernel
        self.name = name
        self.action = action
        self.cycle: Optional[int] = None
        self.expirations = 0
        self._handle = None

    @property
    def armed(self) -> bool:
        """Whether the alarm is currently set."""
        return self._handle is not None

    def set_rel(self, delay: int, cycle: Optional[int] = None) -> None:
        """Arm the alarm ``delay`` ns from now; repeat every ``cycle`` ns
        if given (OSEK ``SetRelAlarm``)."""
        if self.armed:
            raise ConfigurationError(f"alarm {self.name} already armed")
        if cycle is not None and cycle <= 0:
            raise ConfigurationError(f"alarm {self.name}: cycle must be > 0")
        self.cycle = cycle
        self._handle = self.kernel.sim.schedule(delay, self._expire)

    def set_abs(self, when: int, cycle: Optional[int] = None) -> None:
        """Arm the alarm at absolute time ``when`` (OSEK ``SetAbsAlarm``)."""
        if self.armed:
            raise ConfigurationError(f"alarm {self.name} already armed")
        if cycle is not None and cycle <= 0:
            raise ConfigurationError(f"alarm {self.name}: cycle must be > 0")
        self.cycle = cycle
        self._handle = self.kernel.sim.schedule_at(when, self._expire)

    def cancel(self) -> None:
        """Disarm the alarm (OSEK ``CancelAlarm``); idempotent."""
        if self._handle is not None:
            self.kernel.sim.cancel(self._handle)
            self._handle = None

    def _expire(self) -> None:
        self._handle = None
        self.expirations += 1
        if self.cycle is not None:
            self._handle = self.kernel.sim.schedule(self.cycle, self._expire)
        self.action()

    def __repr__(self) -> str:
        state = "armed" if self.armed else "idle"
        return f"<Alarm {self.name} {state} cycle={self.cycle}>"
