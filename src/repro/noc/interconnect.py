"""On-chip interconnects: shared bus (baseline) vs time-triggered NoC.

Section 4 requires the NoC to satisfy four composability requirements;
the two interconnects here differ exactly on requirements 3 and 4:

* :class:`SharedBusInterconnect` — one transaction at a time, priority or
  FIFO arbitration.  A hot sender *does* delay everyone else (temporal
  interference), and a babbling core can starve the chip.
* :class:`TdmaNoc` — each core owns a periodic transmission slot enforced
  by its network interface (the on-chip analogue of the bus guardian).  A
  core's worst-case latency depends only on the schedule; out-of-slot
  traffic from a faulty core is physically gated.

Both present the same message-passing interface, so the same workload
runs on either (experiment E6 is precisely that comparison).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.errors import ConfigurationError, ProtocolError
from repro.network.message import Message
from repro.noc.topology import MeshTopology
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace
from repro.units import bit_time

MAX_MESSAGE_BYTES = 4096


class Interconnect:
    """Common message-passing surface of both interconnects."""

    def __init__(self, sim: Simulator, topology: MeshTopology,
                 trace: Optional[Trace] = None, name: str = "NOC"):
        self.sim = sim
        self.topology = topology
        self.trace = trace if trace is not None else Trace()
        self.name = name
        self._rx_callbacks: dict[int, list[Callable]] = {
            core: [] for core in range(topology.size)}
        self.delivered = 0

    def on_receive(self, core: int, callback: Callable) -> None:
        """Register a message callback for a core."""
        self._check_core(core)
        self._rx_callbacks[core].append(callback)

    def send(self, src: int, dst: int, payload=None,
             size_bytes: int = 32, priority: int = 0) -> Message:
        """Send a message core-to-core (subclass responsibility)."""
        raise NotImplementedError

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.topology.size:
            raise ConfigurationError(
                f"{self.name}: core {core} outside the mesh")

    def _check_message(self, src: int, dst: int, size_bytes: int) -> None:
        """Requirement 1: precise interface specification — malformed
        traffic is rejected at the network interface."""
        self._check_core(src)
        self._check_core(dst)
        if src == dst:
            raise ProtocolError(f"{self.name}: core {src} sending to "
                                f"itself")
        if not 0 < size_bytes <= MAX_MESSAGE_BYTES:
            raise ProtocolError(
                f"{self.name}: message size {size_bytes} outside "
                f"1..{MAX_MESSAGE_BYTES}")

    def _deliver(self, dst: int, msg: Message, category: str) -> None:
        msg.rx_time = self.sim.now
        self.delivered += 1
        self.trace.log(self.sim.now, category, msg.name,
                       latency=msg.latency)
        for callback in self._rx_callbacks[dst]:
            callback(msg)

    def latencies(self, category: str, name: Optional[str] = None
                  ) -> list[int]:
        """Observed latencies from the trace, by exact category and name.

        Records without a ``latency`` key (``noc.gated_drop``) are
        skipped."""
        return self.trace.data_values(category, "latency", name)


class SharedBusInterconnect(Interconnect):
    """Baseline: one shared medium, store-and-forward, single transaction
    at a time."""

    def __init__(self, sim: Simulator, topology: MeshTopology,
                 bandwidth_bps: int = 1_000_000_000,
                 arbitration: str = "priority",
                 overhead: int = 50, trace: Optional[Trace] = None,
                 name: str = "SHARED-BUS"):
        super().__init__(sim, topology, trace, name)
        if arbitration not in ("priority", "fifo"):
            raise ConfigurationError(
                f"unknown arbitration {arbitration!r}")
        self.bandwidth_bps = bandwidth_bps
        self.arbitration = arbitration
        self.overhead = overhead
        self._queue: list[tuple] = []
        self._busy = False
        self._seq = 0

    def send(self, src: int, dst: int, payload=None,
             size_bytes: int = 32, priority: int = 0) -> Message:
        """Queue a message; arbitration per the configured policy."""
        self._check_message(src, dst, size_bytes)
        msg = Message(f"core{src}->core{dst}", f"core{src}", payload,
                      size_bytes, enqueue_time=self.sim.now)
        self._seq += 1
        order = (-priority, self._seq) if self.arbitration == "priority" \
            else (self._seq,)
        self._queue.append((order, msg, dst))
        self._queue.sort(key=lambda item: item[0])
        self._pump()
        return msg

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        __, msg, dst = self._queue.pop(0)
        self._busy = True
        msg.tx_start = self.sim.now
        duration = (msg.size_bytes * 8 * bit_time(self.bandwidth_bps)
                    + self.overhead)

        def complete():
            self._busy = False
            self._deliver(dst, msg, "noc.rx_bus")
            self._pump()

        self.sim.schedule(duration, complete)

    @property
    def backlog(self) -> int:
        """Messages queued and not yet on the medium."""
        return len(self._queue)


class TdmaNoc(Interconnect):
    """Time-triggered NoC: one slot per core per round, NI-enforced.

    In its slot a core transmits the head of its outbound queue; the
    message then traverses its XY route at ``hop_latency`` per hop.
    Slots are globally exclusive, so routes never contend.  ``gate(core)``
    models the NI guardian: a gated (faulty) core's slot passes unused
    and its queue is discarded — error containment by design.
    """

    def __init__(self, sim: Simulator, topology: MeshTopology,
                 slot_length: int = 1_000, hop_latency: int = 100,
                 trace: Optional[Trace] = None, name: str = "TT-NOC"):
        super().__init__(sim, topology, trace, name)
        if slot_length <= 0 or hop_latency < 0:
            raise ConfigurationError("bad slot_length/hop_latency")
        self.slot_length = slot_length
        self.hop_latency = hop_latency
        self._queues: dict[int, deque] = {
            core: deque() for core in range(topology.size)}
        self._gated: set[int] = set()
        self.gated_drops = 0
        self._started = False

    @property
    def round_length(self) -> int:
        """Duration of one slot round over all cores."""
        return self.slot_length * self.topology.size

    def start(self) -> None:
        """Begin the TDMA slot rotation."""
        if self._started:
            raise ConfigurationError(f"{self.name} already started")
        self._started = True
        self._schedule_slot(0)

    def send(self, src: int, dst: int, payload=None,
             size_bytes: int = 32, priority: int = 0) -> Message:
        """Queue a message; ``priority`` is accepted for interface
        symmetry but ignored — TT arbitration is by schedule, not
        priority."""
        self._check_message(src, dst, size_bytes)
        msg = Message(f"core{src}->core{dst}", f"core{src}", payload,
                      size_bytes, enqueue_time=self.sim.now)
        if src in self._gated:
            self.gated_drops += 1
            self.trace.log(self.sim.now, "noc.gated_drop", msg.name)
            return msg
        self._queues[src].append((msg, dst))
        return msg

    def gate(self, core: int) -> None:
        """NI guardian action: isolate a faulty core (requirement 4)."""
        self._check_core(core)
        self._gated.add(core)
        dropped = len(self._queues[core])
        self.gated_drops += dropped
        self._queues[core].clear()
        self.trace.log(self.sim.now, "noc.gate", f"core{core}",
                       dropped=dropped)

    def _schedule_slot(self, slot: int) -> None:
        self.sim.schedule(self.slot_length, lambda: self._slot_end(slot))

    def _slot_end(self, slot: int) -> None:
        owner = slot
        if owner not in self._gated and self._queues[owner]:
            msg, dst = self._queues[owner].popleft()
            msg.tx_start = self.sim.now - self.slot_length
            hops = max(1, self.topology.hops(owner, dst))
            arrival_delay = hops * self.hop_latency
            self.sim.schedule(arrival_delay,
                              lambda m=msg, d=dst:
                              self._deliver(d, m, "noc.rx_tt"))
        self._schedule_slot((slot + 1) % self.topology.size)

    def worst_case_latency(self, src: int, dst: int) -> int:
        """Analytic bound for an empty queue: miss your slot by a whole
        round, then traverse."""
        hops = max(1, self.topology.hops(src, dst))
        return self.round_length + self.slot_length \
            + hops * self.hop_latency
