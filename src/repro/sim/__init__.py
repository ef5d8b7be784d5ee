"""Discrete-event simulation substrate (virtual time, traces, clocks)."""

from repro.sim.kernel import Simulator
from repro.sim.trace import Record, Trace, summarize
from repro.sim.clock import DriftingClock, precision

__all__ = [
    "Simulator",
    "Record", "Trace", "summarize",
    "DriftingClock", "precision",
]
