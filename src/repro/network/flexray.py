"""FlexRay bus simulation (protocol spec v2.1 structure).

A FlexRay communication cycle consists of

* a **static segment**: ``n_static_slots`` equal TDMA slots, each statically
  owned by one (node, frame) pair — this is the interference-free,
  composable part;
* a **dynamic segment**: ``n_minislots`` minislots arbitrated by frame ID
  (lower ID = earlier transmission opportunity); a dynamic frame consumes
  as many minislots as its transmission needs, and is postponed to the next
  cycle when the remaining minislots cannot hold it;
* (symbol window and NIT are folded into the cycle remainder).

Static frames support cycle multiplexing via ``base_cycle`` /
``repetition`` over the 64-cycle matrix, as in the real schedule tables.
"""

from __future__ import annotations

import bisect
import functools
from typing import Callable, Optional

from repro import obs
from repro.errors import ConfigurationError, ProtocolError
from repro.network.message import Message
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace
from repro.units import bit_time

CYCLE_COUNT_MAX = 64


class FlexRayConfig:
    """Timing parameters of one FlexRay cluster."""

    def __init__(self, slot_length: int, n_static_slots: int,
                 minislot_length: int = 0, n_minislots: int = 0,
                 nit_length: int = 0, bitrate_bps: int = 10_000_000):
        if slot_length <= 0 or n_static_slots <= 0:
            raise ConfigurationError("static segment must be non-empty")
        if minislot_length < 0 or n_minislots < 0:
            raise ConfigurationError("negative dynamic segment parameters")
        if n_minislots > 0 and minislot_length <= 0:
            raise ConfigurationError("minislots need a positive length")
        if nit_length < 0:
            raise ConfigurationError("negative NIT length")
        if bitrate_bps <= 0:
            raise ConfigurationError("bitrate must be positive")
        if bit_time(bitrate_bps) == 0:
            raise ConfigurationError(
                f"bitrate {bitrate_bps} bit/s has a bit time under 1 ns")
        self.slot_length = slot_length
        self.n_static_slots = n_static_slots
        self.minislot_length = minislot_length
        self.n_minislots = n_minislots
        self.nit_length = nit_length
        self.bitrate_bps = bitrate_bps

    @property
    def static_segment_length(self) -> int:
        """Duration of the static TDMA segment."""
        return self.slot_length * self.n_static_slots

    @property
    def dynamic_segment_length(self) -> int:
        """Duration of the dynamic (minislot) segment."""
        return self.minislot_length * self.n_minislots

    @property
    def cycle_length(self) -> int:
        """Duration of one full communication cycle."""
        return (self.static_segment_length + self.dynamic_segment_length
                + self.nit_length)

    def minislots_for(self, size_bytes: int) -> int:
        """Minislots a dynamic frame of ``size_bytes`` payload bytes
        consumes: its transmission time (payload plus ~80 bits of frame
        overhead) rounded up to whole minislots, at least one.  Needs a
        positive ``minislot_length``."""
        frame_ns = (size_bytes * 8 + 80) * bit_time(self.bitrate_bps)
        return max(1, -(-frame_ns // self.minislot_length))

    def payload_capacity_bytes(self) -> int:
        """Payload bytes that fit a static slot (frame overhead ~ 80 bits:
        header 40 + trailer 24 + TSS/FES margins)."""
        bits = self.slot_length // bit_time(self.bitrate_bps)
        return max(0, (bits - 80) // 8)

    def __repr__(self) -> str:
        return (f"<FlexRayConfig {self.n_static_slots}x{self.slot_length}ns"
                f" + {self.n_minislots} minislots>")


class StaticSlotAssignment:
    """Ownership of one static slot by a frame of a node."""

    def __init__(self, slot: int, node: str, frame_name: str,
                 base_cycle: int = 0, repetition: int = 1):
        if repetition not in (1, 2, 4, 8, 16, 32, 64):
            raise ConfigurationError(
                f"slot {slot}: repetition must be a power of two <= 64")
        if not 0 <= base_cycle < repetition:
            raise ConfigurationError(
                f"slot {slot}: base_cycle must be < repetition")
        self.slot = slot
        self.node = node
        self.frame_name = frame_name
        self.base_cycle = base_cycle
        self.repetition = repetition

    def active_in_cycle(self, cycle: int) -> bool:
        """Whether the cycle-multiplexing selects this cycle."""
        return cycle % self.repetition == self.base_cycle

    def __repr__(self) -> str:
        return (f"<StaticSlot {self.slot} {self.node}/{self.frame_name} "
                f"{self.base_cycle}/{self.repetition}>")


class DynamicFrameSpec:
    """A frame transmitted in the dynamic segment."""

    def __init__(self, name: str, frame_id: int, size_bytes: int = 8):
        if frame_id <= 0:
            raise ConfigurationError(f"frame {name}: frame_id must be > 0")
        if size_bytes < 0:
            raise ConfigurationError(f"frame {name}: negative size")
        self.name = name
        self.frame_id = frame_id
        self.size_bytes = size_bytes

    def __repr__(self) -> str:
        return f"<DynamicFrameSpec {self.name} id={self.frame_id}>"


class FlexRayController:
    """Node-local controller: transmit buffers + receive callbacks."""

    def __init__(self, bus: "FlexRayBus", node: str):
        self.bus = bus
        self.node = node
        self._static_buffers: dict[int, Message] = {}
        self._dynamic_queue: list[tuple[int, int, DynamicFrameSpec, Message]] = []
        self._rx_callbacks: list[Callable] = []
        self.tx_count = 0

    def send_static(self, slot: int, payload=None) -> Message:
        """Update the transmit buffer of an owned static slot.  The newest
        value is sent at the next slot occurrence (sender overwrites)."""
        assignment = self.bus._slot_table.get(slot)
        if assignment is None or assignment.node != self.node:
            raise ProtocolError(
                f"node {self.node} does not own static slot {slot}")
        msg = Message(assignment.frame_name, self.node, payload,
                      enqueue_time=self.bus.sim.now)
        self._static_buffers[slot] = msg
        return msg

    def queue_dynamic(self, spec: DynamicFrameSpec, payload=None) -> Message:
        """Queue a frame for the dynamic segment (kept in frame-ID, then
        enqueue order)."""
        msg = Message(spec.name, self.node, payload, spec.size_bytes,
                      enqueue_time=self.bus.sim.now)
        bisect.insort(self._dynamic_queue, (spec.frame_id, msg.seq, spec, msg))
        return msg

    def on_receive(self, callback: Callable) -> None:
        """Register a reception callback (frame name, message, slot)."""
        self._rx_callbacks.append(callback)

    def _deliver(self, frame_name: str, msg: Message, slot) -> None:
        for callback in self._rx_callbacks:
            callback(frame_name, msg, slot)

    def __repr__(self) -> str:
        return f"<FlexRayController {self.node}>"


class FlexRayBus:
    """The cluster: slot table, cycle engine, delivery.

    ``fault_model`` optionally decides per static slot whether the owning
    node's transmission is lost (``(assignment, cycle) -> bool``); used by
    the fault-injection experiments.  It is consulted at every active
    slot, so it may be swapped while the bus runs.

    :meth:`start` turns the slot table into a static schedule: for each
    cycle of the multiplex pattern (the largest assigned ``repetition``,
    which divides 64) a tuple of ``(slot offset, callback)`` pairs for
    the slots active in that cycle, in slot order, where the callback is
    the assignment's one pre-bound ``_static_slot_end``.  A cycle start
    pushes exactly those events.  An :meth:`assign_slot` after
    :meth:`start` rebuilds the schedule, so it takes effect from the
    next cycle.
    """

    def __init__(self, sim: Simulator, config: FlexRayConfig,
                 trace: Optional[Trace] = None, name: str = "FlexRay",
                 fault_model: Optional[Callable] = None):
        self.sim = sim
        self.config = config
        self.trace = trace if trace is not None else Trace()
        self.name = name
        self.fault_model = fault_model
        self.controllers: dict[str, FlexRayController] = {}
        self._slot_table: dict[int, StaticSlotAssignment] = {}
        self.cycle = 0
        self._started = False
        #: per cycle of the multiplex pattern: ((slot offset, slot end), ...)
        self._schedule: tuple = ()
        #: payload bytes -> minislots a dynamic frame of that size needs.
        self._minislot_needs: dict[int, int] = {}

    def attach(self, node: str) -> FlexRayController:
        """Attach a node; returns its controller."""
        if node in self.controllers:
            raise ConfigurationError(
                f"{self.name}: node {node!r} already attached")
        controller = FlexRayController(self, node)
        self.controllers[node] = controller
        return controller

    def assign_slot(self, assignment: StaticSlotAssignment) -> None:
        """Install a static-slot ownership; slots are exclusive per
        (slot, cycle-multiplex) — this simplified table is exclusive per
        slot outright."""
        if not 1 <= assignment.slot <= self.config.n_static_slots:
            raise ConfigurationError(
                f"slot {assignment.slot} outside 1.."
                f"{self.config.n_static_slots}")
        if assignment.slot in self._slot_table:
            raise ConfigurationError(
                f"slot {assignment.slot} already assigned")
        if assignment.node not in self.controllers:
            raise ConfigurationError(
                f"unknown node {assignment.node!r} for slot "
                f"{assignment.slot}")
        self._slot_table[assignment.slot] = assignment
        if self._started:
            self._build_schedule()

    def start(self) -> None:
        """Begin cycle 0 at the current simulation time."""
        if self._started:
            raise ConfigurationError(f"{self.name} already started")
        self._started = True
        config = self.config
        self._slot_length = config.slot_length
        self._static_length = config.static_segment_length
        self._cycle_length = config.cycle_length
        self._minislot_length = config.minislot_length
        self._n_minislots = config.n_minislots
        self._build_schedule()
        self._cycle_start(self.sim.now)

    def _build_schedule(self) -> None:
        assignments = [self._slot_table[slot]
                       for slot in sorted(self._slot_table)]
        entries = [(a.slot * self._slot_length,
                    functools.partial(self._static_slot_end, a))
                   for a in assignments]
        pattern = max((a.repetition for a in assignments), default=1)
        self._schedule = tuple(
            tuple(entry for a, entry in zip(assignments, entries)
                  if a.active_in_cycle(cycle))
            for cycle in range(pattern))

    # ------------------------------------------------------------------
    def _cycle_start(self, t0: int) -> None:
        self.trace.log(t0, "flexray.cycle", self.name, cycle=self.cycle)
        schedule_at = self.sim.schedule_at
        schedule = self._schedule
        for offset, slot_end in schedule[self.cycle % len(schedule)]:
            schedule_at(t0 + offset, slot_end)
        if self._n_minislots > 0:
            schedule_at(t0 + self._static_length, self._run_dynamic_segment)
        schedule_at(t0 + self._cycle_length, self._advance_cycle)

    def _advance_cycle(self) -> None:
        self.cycle += 1
        self._cycle_start(self.sim.now)

    def _static_slot_end(self, assignment: StaticSlotAssignment) -> None:
        now = self.sim.now
        controller = self.controllers[assignment.node]
        msg = controller._static_buffers.pop(assignment.slot, None)
        if self.fault_model is not None and self.fault_model(assignment,
                                                             self.cycle):
            self.trace.log(now, "flexray.slot_lost", assignment.frame_name,
                           node=assignment.node, slot=assignment.slot)
            return
        if msg is None:
            # Null frame: the slot elapses, peers observe absence.
            self.trace.log(now, "flexray.null_frame", assignment.frame_name,
                           node=assignment.node, slot=assignment.slot)
            return
        msg.tx_start = now - self._slot_length
        msg.rx_time = now
        controller.tx_count += 1
        obs.count("flexray.static_tx")
        self.trace.log(now, "flexray.rx", assignment.frame_name,
                       node=assignment.node, slot=assignment.slot,
                       latency=now - msg.enqueue_time)
        for peer in self.controllers.values():
            if peer is not controller and peer._rx_callbacks:
                peer._deliver(assignment.frame_name, msg, assignment.slot)

    def _run_dynamic_segment(self) -> None:
        """Arbitrate the whole dynamic segment at its start.

        Minislot counting is evaluated eagerly and strictly in frame-ID
        order: each queued frame consumes ``ceil(tx_time / minislot)``
        minislots (:meth:`FlexRayConfig.minislots_for`).  The first
        frame that does not fit the remaining minislots waits for the
        next cycle, and so does every higher frame ID behind it, even a
        smaller one that would fit; ``dynamic_latency_bound`` counts
        minislots in the same ID order.  A frame larger than the whole
        segment therefore never transmits, which the analysis declines
        as a ``None`` bound.
        """
        queues = [controller._dynamic_queue
                  for controller in self.controllers.values()
                  if controller._dynamic_queue]
        if not queues:
            return
        pending = sorted(entry for queue in queues for entry in queue)
        t0 = self.sim.now
        minislot = self._minislot_length
        needs = self._minislot_needs
        schedule_at = self.sim.schedule_at
        used = 0
        for entry in pending:
            __, __, spec, msg = entry
            need = needs.get(spec.size_bytes)
            if need is None:
                need = needs[spec.size_bytes] = \
                    self.config.minislots_for(spec.size_bytes)
            if used + need > self._n_minislots:
                break
            start = t0 + used * minislot
            used += need
            self.controllers[msg.sender]._dynamic_queue.remove(entry)
            schedule_at(start + need * minislot,
                        functools.partial(self._dynamic_rx, spec, msg, start))

    def _dynamic_rx(self, spec: DynamicFrameSpec, msg: Message,
                    start: int) -> None:
        now = self.sim.now
        msg.tx_start = start
        msg.rx_time = now
        controller = self.controllers[msg.sender]
        controller.tx_count += 1
        obs.count("flexray.dynamic_tx")
        self.trace.log(now, "flexray.rx_dynamic", spec.name, node=msg.sender,
                       frame_id=spec.frame_id,
                       latency=now - msg.enqueue_time)
        for peer in self.controllers.values():
            if peer is not controller and peer._rx_callbacks:
                peer._deliver(spec.name, msg, None)

    # ------------------------------------------------------------------
    def latencies(self, frame_name: str) -> list[int]:
        """Observed latencies of a frame (static and dynamic).

        Records without a ``latency`` key are skipped."""
        recs = (self.trace.records("flexray.rx", frame_name)
                + self.trace.records("flexray.rx_dynamic", frame_name))
        return [r.data["latency"] for r in recs if "latency" in r.data]

    def __repr__(self) -> str:
        return f"<FlexRayBus {self.name} cycle={self.cycle}>"
