"""Runnables and RTE events.

A runnable is the schedulable unit of a component's behaviour.  Its
``function`` receives a :class:`~repro.core.component.RunnableContext`
(``ctx``) with ``read``/``receive``/``write``/``call``/``state``/``now``
— the one context class of the VFB and of every deployed RTE, so the
same code runs on both, which is the transferability property the RTE
exists to provide.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError


class TimingEvent:
    """Periodic activation."""

    def __init__(self, period: int, offset: int = 0):
        if period <= 0:
            raise ConfigurationError("TimingEvent period must be > 0")
        if offset < 0:
            raise ConfigurationError("TimingEvent offset must be >= 0")
        self.period = period
        self.offset = offset

    def __repr__(self) -> str:
        return f"<TimingEvent period={self.period}>"


class DataReceivedEvent:
    """Activation on reception of a data element on an R-port."""

    def __init__(self, port: str, element: str):
        self.port = port
        self.element = element

    def __repr__(self) -> str:
        return f"<DataReceivedEvent {self.port}.{self.element}>"


class OperationInvokedEvent:
    """Activation by a client calling an operation on a P-port."""

    def __init__(self, port: str, operation: str):
        self.port = port
        self.operation = operation

    def __repr__(self) -> str:
        return f"<OperationInvokedEvent {self.port}.{self.operation}>"


class InitEvent:
    """One-shot activation at system start."""

    def __repr__(self) -> str:
        return "<InitEvent>"


class Runnable:
    """A named behaviour entry point with its activation trigger.

    ``wcet`` is the execution budget the runnable's task gets when
    deployed (ignored on the VFB, which abstracts from time).

    ``writes`` optionally declares the ``(port, element)`` pairs the
    runnable's code writes — the data-access metadata the paper's
    Section 2 says must be added to the AUTOSAR templates so "system
    generators" can run timing checks *before* implementation.  The
    declaration is advisory for execution but load-bearing for
    :func:`repro.analysis.system_report.timing_report`, which uses it to
    derive cause-effect chains.
    """

    def __init__(self, name: str, trigger, function: Callable,
                 wcet: int = 1_000,
                 writes: Optional[list] = None):
        if wcet <= 0:
            raise ConfigurationError(f"runnable {name}: wcet must be > 0")
        self.name = name
        self.trigger = trigger
        self.function = function
        self.wcet = wcet
        self.writes = [tuple(w) for w in (writes or [])]

    def __repr__(self) -> str:
        return f"<Runnable {self.name} trigger={self.trigger!r}>"
