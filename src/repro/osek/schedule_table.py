"""Schedule tables: statically planned, time-triggered task activation.

OSEKtime / AUTOSAR OS provide *schedule tables*: a repeating timeline of
expiry points, each activating tasks or setting events at a fixed offset
— the activation-side counterpart of TDMA execution windows, and the
mechanism mode management uses to change an ECU's temporal behaviour
atomically (``next_table`` switches take effect only at a cycle
boundary, so a mode change never tears a cycle in half).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError


class ExpiryPoint:
    """One expiry point: actions fired at ``offset`` into each cycle."""

    def __init__(self, offset: int,
                 activate: Optional[list] = None,
                 set_events: Optional[list] = None,
                 callback: Optional[Callable[[], None]] = None):
        if offset < 0:
            raise ConfigurationError("expiry offset must be >= 0")
        self.offset = offset
        self.activate = list(activate or [])
        self.set_events = list(set_events or [])
        self.callback = callback

    def fire(self, kernel) -> None:
        """Execute the expiry actions against the kernel."""
        for task in self.activate:
            kernel.activate(task)
        for event in self.set_events:
            event.set()
        if self.callback is not None:
            self.callback()

    def __repr__(self) -> str:
        return (f"<ExpiryPoint @{self.offset} "
                f"activates={[t.name for t in self.activate]}>")


class ScheduleTable:
    """A cyclic activation timeline bound to a kernel."""

    def __init__(self, kernel, name: str, duration: int,
                 expiry_points: list[ExpiryPoint],
                 repeating: bool = True):
        if duration <= 0:
            raise ConfigurationError(
                f"table {name}: duration must be > 0")
        if not expiry_points:
            raise ConfigurationError(
                f"table {name}: needs at least one expiry point")
        points = sorted(expiry_points, key=lambda p: p.offset)
        offsets = [p.offset for p in points]
        if len(set(offsets)) != len(offsets):
            raise ConfigurationError(
                f"table {name}: duplicate expiry offsets")
        if points[-1].offset >= duration:
            raise ConfigurationError(
                f"table {name}: expiry offset {points[-1].offset} "
                f"outside duration {duration}")
        self.kernel = kernel
        self.name = name
        self.duration = duration
        self.points = points
        self.repeating = repeating
        self.state = "stopped"
        self.cycles = 0
        self._next: Optional["ScheduleTable"] = None
        self._pending: list = []

    # ------------------------------------------------------------------
    def start_rel(self, delay: int = 0) -> None:
        """Start the table ``delay`` ns from now (OSEK
        ``StartScheduleTableRel``)."""
        if self.state != "stopped":
            raise ConfigurationError(
                f"table {self.name}: already {self.state}")
        self.state = "running"
        self._schedule_cycle(self.kernel.sim.now + delay)

    def stop(self) -> None:
        """Stop immediately; pending expiries of this cycle are
        cancelled (OSEK ``StopScheduleTable``)."""
        self.state = "stopped"
        for handle in self._pending:
            self.kernel.sim.cancel(handle)
        self._pending.clear()

    def next_table(self, table: "ScheduleTable") -> None:
        """Switch to ``table`` at the end of the current cycle (OSEK
        ``NextScheduleTable``): the running cycle completes untouched."""
        if self.state != "running":
            raise ConfigurationError(
                f"table {self.name}: next_table needs a running table")
        if table.state != "stopped":
            raise ConfigurationError(
                f"table {table.name}: switch target must be stopped")
        self._next = table

    # ------------------------------------------------------------------
    def _schedule_cycle(self, cycle_start: int) -> None:
        self._pending.clear()
        for point in self.points:
            handle = self.kernel.sim.schedule_at(
                cycle_start + point.offset,
                lambda p=point: self._fire(p))
            self._pending.append(handle)
        self._pending.append(self.kernel.sim.schedule_at(
            cycle_start + self.duration,
            lambda: self._cycle_end(cycle_start + self.duration)))

    def _fire(self, point: ExpiryPoint) -> None:
        if self.state != "running":
            return
        self.kernel.trace.log(self.kernel.sim.now, "schedtable.expiry",
                              self.name, offset=point.offset)
        point.fire(self.kernel)

    def _cycle_end(self, at: int) -> None:
        if self.state != "running":
            return
        self.cycles += 1
        if self._next is not None:
            successor, self._next = self._next, None
            self.state = "stopped"
            self.kernel.trace.log(at, "schedtable.switch", self.name,
                                  to=successor.name)
            successor.state = "running"
            successor._schedule_cycle(at)
            return
        if not self.repeating:
            self.state = "stopped"
            return
        self._schedule_cycle(at)

    def __repr__(self) -> str:
        return (f"<ScheduleTable {self.name} {self.state} "
                f"points={len(self.points)} duration={self.duration}>")
