"""Discrete-event simulation substrate (virtual time, processes, traces)."""

from repro.sim.kernel import Simulator
from repro.sim.process import Delay, Process, Signal, Wait, all_done, spawn
from repro.sim.trace import Record, Trace, summarize
from repro.sim.clock import DriftingClock, precision

__all__ = [
    "Simulator",
    "Delay", "Process", "Signal", "Wait", "all_done", "spawn",
    "Record", "Trace", "summarize",
    "DriftingClock", "precision",
]
