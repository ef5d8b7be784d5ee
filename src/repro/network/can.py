"""CAN bus simulation (Bosch CAN 2.0, 11-bit identifiers).

The model is faithful at the arbitration/timing level used by the paper's
analysis references [9]:

* the bus is a broadcast medium with non-preemptive fixed-priority
  arbitration — when the bus goes idle, the queued frame with the lowest
  identifier wins;
* a frame that loses arbitration (or arrives during a transmission) waits
  for the next idle instant;
* frame transmission time uses the standard worst-case bit-stuffing formula
  ``(g + 8*s + 13 + floor((g + 8*s - 1)/4)) * t_bit`` with ``g = 34`` for
  standard frames (``54`` for extended);
* transmission errors destroy the frame after an error-frame overhead and
  the controller automatically retransmits.

What is deliberately *not* modelled (out of scope for the paper's claims):
bit-level sample points, CRC contents, and the fault-confinement counters
(bus-off is modelled coarsely via :meth:`CanController.set_bus_off`).
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro import obs
from repro.errors import ConfigurationError
from repro.network.message import Message
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace
from repro.units import bit_time

MAX_STANDARD_ID = 0x7FF
MAX_EXTENDED_ID = 0x1FFF_FFFF
#: Protocol overhead bits subject to stuffing (standard / extended format).
_OVERHEAD_BITS = {False: 34, True: 54}
#: Non-stuffed trailer bits (CRC delimiter, ACK, EOF) + interframe space.
_TRAILER_BITS = 13
#: Worst-case error frame + recovery, in bits.
ERROR_FRAME_BITS = 31


def frame_bits(dlc: int, extended: bool = False) -> int:
    """Number of bit times a frame with ``dlc`` payload bytes occupies,
    with the maximal stuff-bit count (one per four bits of the stuffable
    region) that the response-time analysis assumes."""
    if not 0 <= dlc <= 8:
        raise ConfigurationError(f"CAN dlc must be 0..8, got {dlc}")
    stuffable = _OVERHEAD_BITS[extended] + 8 * dlc
    return stuffable + _TRAILER_BITS + (stuffable - 1) // 4


def frame_time(dlc: int, bitrate_bps: int) -> int:
    """Wire time (ns) of one standard-format frame."""
    return frame_bits(dlc) * bit_time(bitrate_bps)


class CanFrameSpec:
    """Static description of a CAN frame (an AUTOSAR I-PDU on CAN)."""

    def __init__(self, name: str, can_id: int, dlc: int = 8,
                 period: Optional[int] = None, deadline: Optional[int] = None,
                 extended: bool = False, jitter: int = 0):
        limit = MAX_EXTENDED_ID if extended else MAX_STANDARD_ID
        if not 0 <= can_id <= limit:
            raise ConfigurationError(
                f"frame {name}: id {can_id:#x} out of range")
        if not 0 <= dlc <= 8:
            raise ConfigurationError(f"frame {name}: dlc must be 0..8")
        if period is not None and period <= 0:
            raise ConfigurationError(f"frame {name}: period must be > 0")
        self.name = name
        self.can_id = can_id
        self.dlc = dlc
        self.period = period
        self.deadline = deadline if deadline is not None else period
        self.extended = extended
        self.jitter = jitter

    def bits(self) -> int:
        """Wire length of the frame in bit times."""
        return frame_bits(self.dlc, self.extended)

    def __repr__(self) -> str:
        return f"<CanFrameSpec {self.name} id={self.can_id:#x} dlc={self.dlc}>"


class CanController:
    """One node's CAN controller: priority-ordered transmit queue plus
    receive callbacks.  Created via :meth:`CanBus.attach`."""

    def __init__(self, bus: "CanBus", node: str):
        self.bus = bus
        self.node = node
        self._queue: list[tuple[int, int, CanFrameSpec, Message]] = []
        self._rx_callbacks: list[Callable[[CanFrameSpec, Message], None]] = []
        self.bus_off = False
        self.tx_count = 0
        self.rx_count = 0

    def send(self, spec: CanFrameSpec, payload=None) -> Message:
        """Queue a frame for transmission.  Within one controller the queue
        is ordered by CAN id (priority-ordered transmit buffers)."""
        msg = Message(spec.name, self.node, payload, spec.dlc,
                      enqueue_time=self.bus.sim.now)
        if self.bus_off:
            self.bus.trace.log(self.bus.sim.now, "can.tx_rejected", spec.name,
                               node=self.node, reason="bus_off")
            return msg
        heapq.heappush(self._queue, (spec.can_id, msg.seq, spec, msg))
        self.bus.trace.log(self.bus.sim.now, "can.enqueue", spec.name,
                           node=self.node, can_id=spec.can_id)
        self.bus._try_start()
        return msg

    def on_receive(self, callback: Callable[[CanFrameSpec, Message], None]
                   ) -> None:
        """Register a callback invoked for every frame from *other* nodes."""
        self._rx_callbacks.append(callback)

    def set_bus_off(self, off: bool = True) -> None:
        """Coarse bus-off model: a bus-off controller neither sends nor
        queues; pending frames are flushed."""
        self.bus_off = off
        if off:
            self._queue.clear()

    def flush(self) -> int:
        """Drop all queued frames (controller reset); returns the count."""
        count = len(self._queue)
        self._queue.clear()
        return count

    @property
    def pending(self) -> int:
        """Frames waiting in the transmit queue."""
        return len(self._queue)

    def _deliver(self, spec: CanFrameSpec, msg: Message) -> None:
        self.rx_count += 1
        for callback in self._rx_callbacks:
            callback(spec, msg)

    def __repr__(self) -> str:
        return f"<CanController {self.node} pending={self.pending}>"


class CanBus:
    """The shared CAN medium.

    ``error_model`` is an optional callable ``(spec, message) -> bool``
    evaluated at transmission start; returning True destroys this
    transmission attempt (error frame + automatic retransmission).
    """

    def __init__(self, sim: Simulator, bitrate_bps: int = 500_000,
                 trace: Optional[Trace] = None, name: str = "CAN",
                 error_model: Optional[Callable] = None):
        self.sim = sim
        self.bitrate_bps = bitrate_bps
        self.bit_time = bit_time(bitrate_bps)
        self.trace = trace if trace is not None else Trace()
        self.name = name
        self.error_model = error_model
        self.controllers: dict[str, CanController] = {}
        self.busy_until = 0
        self._current: Optional[tuple] = None
        self._start_pending = False
        self.frames_delivered = 0
        self.error_count = 0

    def attach(self, node: str) -> CanController:
        """Attach a node; returns its controller."""
        if node in self.controllers:
            raise ConfigurationError(
                f"{self.name}: node {node!r} already attached")
        controller = CanController(self, node)
        self.controllers[node] = controller
        return controller

    @property
    def idle(self) -> bool:
        """Whether no transmission is in progress."""
        return self._current is None and self.sim.now >= self.busy_until

    # ------------------------------------------------------------------
    def _try_start(self) -> None:
        """Coalesce an arbitration attempt at the current instant (after
        all same-time enqueues have happened)."""
        if self._start_pending:
            return
        self._start_pending = True
        self.sim.schedule(0, self._arbitrate, priority=50)

    def _arbitrate(self) -> None:
        """Start the frame with the lowest identifier if the bus is idle.

        One pass over the controllers' queue heads.  A head is a
        ``(can_id, seq, spec, msg)`` tuple and ``seq`` is unique, so the
        smallest head is the lowest id, ties broken by enqueue order.
        ``_try_start`` schedules an attempt whether or not the bus is
        busy, and one that finds it busy returns at once.  Not
        scheduling those would change the number of kernel events every
        run dispatches, which the pipeline benchmark pins.
        """
        self._start_pending = False
        if self._current is not None or self.sim.now < self.busy_until:
            return
        winner = best = None
        for controller in self.controllers.values():
            queue = controller._queue
            if queue and (best is None or queue[0] < best):
                best = queue[0]
                winner = controller
        if winner is None:
            return
        __, __, spec, msg = heapq.heappop(winner._queue)
        obs.count("can.arbitrations")
        self._transmit(winner, spec, msg)

    def _transmit(self, controller: CanController, spec: CanFrameSpec,
                  msg: Message) -> None:
        now = self.sim.now
        msg.tx_start = now
        duration = spec.bits() * self.bit_time
        corrupted = (self.error_model is not None
                     and self.error_model(spec, msg))
        if corrupted:
            self.error_count += 1
            obs.count("can.error_frames")
            recovery = ERROR_FRAME_BITS * self.bit_time
            self.trace.log(now, "can.error", spec.name,
                           node=controller.node, bus=self.name)
            self._current = None
            self.busy_until = now + recovery
            # Automatic retransmission: requeue and retry after recovery.
            heapq.heappush(controller._queue,
                           (spec.can_id, msg.seq, spec, msg))
            self.sim.schedule_at(self.busy_until, self._try_start)
            return
        self._current = (controller, spec, msg)
        self.busy_until = now + duration
        self.trace.log(now, "can.tx_start", spec.name, node=controller.node,
                       can_id=spec.can_id, bus=self.name)
        self.sim.schedule_at(self.busy_until, self._complete)

    def _complete(self) -> None:
        controller, spec, msg = self._current
        self._current = None
        now = self.sim.now
        msg.rx_time = now
        controller.tx_count += 1
        self.frames_delivered += 1
        obs.count("can.frames_delivered")
        if obs.enabled() and msg.latency is not None:
            # Frame latency is simulated time — deterministic by
            # construction, so it participates in the telemetry digest.
            obs.observe("can.frame_latency_ns", msg.latency)
        self.trace.log(now, "can.rx", spec.name, node=controller.node,
                       latency=msg.latency, bus=self.name)
        for node, peer in self.controllers.items():
            if peer is not controller:
                peer._deliver(spec, msg)
        self._try_start()

    def records(self, category: str, subject=None) -> list:
        """This bus's trace records (the trace may be shared with other
        buses in multi-domain systems)."""
        return self.trace.records(
            category, subject,
            predicate=lambda r: r.data.get("bus") == self.name)

    def latencies(self, frame_name: str) -> list[int]:
        """Observed enqueue-to-reception latencies for a frame.

        Records without a ``latency`` key are skipped."""
        return [r.data["latency"]
                for r in self.records("can.rx", frame_name)
                if "latency" in r.data]

    def utilization(self, horizon: Optional[int] = None) -> float:
        """Fraction of wire time occupied by completed frames (error frames
        excluded).  Successive tx_start/rx trace records bracket each frame."""
        span = horizon if horizon is not None else self.sim.now
        if span <= 0:
            return 0.0
        starts = self.records("can.tx_start")
        ends = self.records("can.rx")
        busy_ns = sum(e.time - s.time for s, e in zip(starts, ends))
        return min(1.0, busy_ns / span)

    def __repr__(self) -> str:
        return (f"<CanBus {self.name} {self.bitrate_bps // 1000}kbit/s "
                f"nodes={len(self.controllers)}>")
