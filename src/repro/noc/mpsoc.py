"""MPSoC: IP cores hosting DAS components over an on-chip interconnect.

Section 4: "the advent of Multiprocessor MPSoCs that link a number of
independent IP Cores on a single chip by a proper Network on Chip provides
an execution environment where each component of a DAS can be hosted on
its own IP-Core … such that fault-isolation and error containment, both
in the logical and temporal domain, are achieved by design.  Since the
IP-Cores communicate solely by the exchange of messages …"

An :class:`IpCore` therefore has *no* shared-memory access to its peers —
its only I/O is ``send``/``on_receive`` through the interconnect, plus
fault controls used by the containment experiments.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.noc.interconnect import Interconnect, TdmaNoc
from repro.sim.kernel import Simulator


class IpCore:
    """One IP core: a named compute element with message-only I/O."""

    def __init__(self, mpsoc: "Mpsoc", index: int, name: str):
        self.mpsoc = mpsoc
        self.index = index
        self.name = name
        self.sent = 0
        self.received = 0
        self._babbling_handle = None
        mpsoc.interconnect.on_receive(index, self._on_message)
        self._callbacks: list[Callable] = []

    def send(self, dst: "IpCore", payload=None, size_bytes: int = 32,
             priority: int = 0):
        """Send one message to another core."""
        self.sent += 1
        return self.mpsoc.interconnect.send(self.index, dst.index, payload,
                                            size_bytes, priority)

    def send_periodic(self, dst: "IpCore", period: int, payload=None,
                      size_bytes: int = 32, priority: int = 0) -> None:
        """Install a periodic sender (first send immediately)."""

        def fire():
            self.send(dst, payload, size_bytes, priority)
            self.mpsoc.sim.schedule(period, fire)

        self.mpsoc.sim.schedule(0, fire)

    def on_receive(self, callback: Callable) -> None:
        """Register a callback for messages addressed to this core."""
        self._callbacks.append(callback)

    def _on_message(self, msg) -> None:
        self.received += 1
        for callback in self._callbacks:
            callback(msg)

    # ------------------------------------------------------------------
    # Fault behaviours (driven by repro.faults)
    # ------------------------------------------------------------------
    def start_babbling(self, dst: "IpCore", interval: int,
                       size_bytes: int = 256, priority: int = 10 ** 6
                       ) -> None:
        """Flood the interconnect as fast as ``interval`` allows, at the
        highest priority the (broken) software can request."""
        if self._babbling_handle is not None:
            return

        def babble():
            self.send(dst, payload="garbage", size_bytes=size_bytes,
                      priority=priority)
            self._babbling_handle = self.mpsoc.sim.schedule(interval,
                                                            babble)

        self._babbling_handle = self.mpsoc.sim.schedule(0, babble)

    def stop_babbling(self) -> None:
        """End a babbling episode."""
        if self._babbling_handle is not None:
            self.mpsoc.sim.cancel(self._babbling_handle)
            self._babbling_handle = None

    def __repr__(self) -> str:
        return f"<IpCore {self.name}@{self.index}>"


class Mpsoc:
    """A mesh of IP cores over a pluggable interconnect."""

    def __init__(self, sim: Simulator, interconnect: Interconnect,
                 core_names: Optional[list[str]] = None):
        self.sim = sim
        self.interconnect = interconnect
        size = interconnect.topology.size
        names = core_names if core_names is not None else [
            f"core{i}" for i in range(size)]
        if len(names) != size:
            raise ConfigurationError(
                f"need {size} core names, got {len(names)}")
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate core names")
        self.cores = [IpCore(self, i, name)
                      for i, name in enumerate(names)]
        self._by_name = {core.name: core for core in self.cores}

    def core(self, name: str) -> IpCore:
        """Look up a core by name."""
        core = self._by_name.get(name)
        if core is None:
            raise ConfigurationError(f"unknown core {name!r}")
        return core

    def start(self) -> None:
        """Start time-triggered interconnects (no-op for shared bus)."""
        if isinstance(self.interconnect, TdmaNoc):
            self.interconnect.start()

    def __repr__(self) -> str:
        return (f"<Mpsoc cores={len(self.cores)} "
                f"interconnect={self.interconnect.name}>")
