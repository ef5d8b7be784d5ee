"""Generator-based processes on top of the event kernel.

A process is a Python generator that yields *wait requests*:

* ``yield Delay(ticks)`` — sleep for a duration of virtual time;
* ``yield Wait(signal)`` — block until a :class:`Signal` fires (the value
  passed to :meth:`Signal.fire` is returned by the ``yield``).

This gives bus nodes, application tasks and fault injectors a natural
sequential coding style while the kernel stays callback-based underneath.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class Delay:
    """Wait request: sleep for ``ticks`` nanoseconds."""

    __slots__ = ("ticks",)

    def __init__(self, ticks: int):
        if ticks < 0:
            raise SimulationError(f"negative delay {ticks}")
        self.ticks = ticks


class Signal:
    """A broadcast condition processes can wait on.

    Firing a signal wakes every currently-waiting process exactly once and
    hands each the fired value.  Signals are reusable (fire repeatedly).
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._waiters: list[Process] = []
        self.fire_count = 0

    def fire(self, value: Any = None) -> None:
        """Wake all waiters, delivering ``value`` to their yield."""
        self.fire_count += 1
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            process._resume(value)

    @property
    def waiter_count(self) -> int:
        """Processes currently blocked on the signal."""
        return len(self._waiters)

    def __repr__(self) -> str:
        return f"<Signal {self.name!r} waiters={len(self._waiters)}>"


class Wait:
    """Wait request: block until ``signal`` fires."""

    __slots__ = ("signal",)

    def __init__(self, signal: Signal):
        self.signal = signal


class Process:
    """Drives a generator against a :class:`Simulator`.

    The process starts immediately (its first segment runs at the current
    simulation time via a zero-delay event) and ends when the generator
    returns.  ``process.done`` and ``process.result`` expose completion.
    """

    def __init__(self, sim: Simulator, generator: Generator,
                 name: str = "process"):
        self.sim = sim
        self.name = name
        self._gen = generator
        self.done = False
        self.result: Any = None
        #: the signal this process is blocked on, if any.
        self._waiting_on: Optional[Signal] = None
        self._pending_handle = sim.schedule(0, lambda: self._resume(None))

    def _resume(self, value: Any) -> None:
        if self.done:
            return
        self._pending_handle = None
        self._waiting_on = None
        try:
            request = self._gen.send(value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            return
        if isinstance(request, Delay):
            self._pending_handle = self.sim.schedule(
                request.ticks, lambda: self._resume(None))
        elif isinstance(request, Wait):
            request.signal._waiters.append(self)
            self._waiting_on = request.signal
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {request!r}; "
                f"expected Delay or Wait")

    def kill(self) -> None:
        """Terminate the process without running it further.  A process
        blocked on a :class:`Signal` leaves the signal's waiters."""
        if self.done:
            return
        self.done = True
        if self._pending_handle is not None:
            self.sim.cancel(self._pending_handle)
        # A process killed by a co-waiter while its signal fires is no
        # longer in the signal's list; it is skipped as done instead.
        if self._waiting_on is not None \
                and self in self._waiting_on._waiters:
            self._waiting_on._waiters.remove(self)
        self._gen.close()

    def __repr__(self) -> str:
        state = "done" if self.done else "active"
        return f"<Process {self.name!r} {state}>"


def spawn(sim: Simulator, generator: Generator, name: str = "process") -> Process:
    """Start ``generator`` as a process on ``sim``."""
    return Process(sim, generator, name)


def all_done(processes: Iterable[Process]) -> bool:
    """True when every process in the iterable has finished."""
    return all(p.done for p in processes)
