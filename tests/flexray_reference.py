"""Reference FlexRay cycle engine for parity checks.

:class:`ReferenceFlexRayBus` runs every cycle the plainest way: at each
cycle start it walks all static slots, asks every assignment whether it
is active in this cycle and schedules a fresh closure for it, and at
each dynamic segment it gathers and sorts every queued frame and
recomputes each frame's minislot need from the bit time.  It overrides
only the four cycle-engine methods, so configuration, slot assignment,
controllers and delivery are the bus's own.  The property test in
``test_network_flexray.py`` drives the same traffic through both.
"""

import math

from repro import obs
from repro.network.flexray import CYCLE_COUNT_MAX, FlexRayBus
from repro.units import bit_time


class ReferenceFlexRayBus(FlexRayBus):
    """Rebuilds each cycle's slot events from the slot table."""

    def _cycle_start(self, t0):
        self.trace.log(t0, "flexray.cycle", self.name, cycle=self.cycle)
        for slot in range(1, self.config.n_static_slots + 1):
            slot_end = t0 + slot * self.config.slot_length
            assignment = self._slot_table.get(slot)
            if assignment is not None and assignment.active_in_cycle(
                    self.cycle % CYCLE_COUNT_MAX):
                self.sim.schedule_at(
                    slot_end,
                    lambda a=assignment: self._static_slot_end(a))
        dyn_start = t0 + self.config.static_segment_length
        if self.config.n_minislots > 0:
            self.sim.schedule_at(dyn_start, self._run_dynamic_segment)
        next_cycle = t0 + self.config.cycle_length
        self.sim.schedule_at(next_cycle, lambda: self._advance_cycle())

    def _static_slot_end(self, assignment):
        now = self.sim.now
        controller = self.controllers[assignment.node]
        msg = controller._static_buffers.pop(assignment.slot, None)
        if self.fault_model is not None and self.fault_model(assignment,
                                                             self.cycle):
            self.trace.log(now, "flexray.slot_lost", assignment.frame_name,
                           node=assignment.node, slot=assignment.slot)
            return
        if msg is None:
            self.trace.log(now, "flexray.null_frame", assignment.frame_name,
                           node=assignment.node, slot=assignment.slot)
            return
        msg.tx_start = now - self.config.slot_length
        msg.rx_time = now
        controller.tx_count += 1
        obs.count("flexray.static_tx")
        self.trace.log(now, "flexray.rx", assignment.frame_name,
                       node=assignment.node, slot=assignment.slot,
                       latency=msg.latency)
        for node, peer in self.controllers.items():
            if peer is not controller:
                peer._deliver(assignment.frame_name, msg, assignment.slot)

    def _run_dynamic_segment(self):
        t0 = self.sim.now
        tbit = bit_time(self.config.bitrate_bps)
        pending = []
        for controller in self.controllers.values():
            pending.extend(controller._dynamic_queue)
        pending.sort()
        used = 0
        sent = []
        for frame_id, seq, spec, msg in pending:
            frame_ns = (spec.size_bytes * 8 + 80) * tbit
            need = max(1, math.ceil(frame_ns / self.config.minislot_length))
            if used + need > self.config.n_minislots:
                break
            start = t0 + used * self.config.minislot_length
            end = start + need * self.config.minislot_length
            used += need
            sent.append((spec, msg, start, end))
        for spec, msg, start, end in sent:
            controller = self.controllers[msg.sender]
            controller._dynamic_queue.remove(
                (spec.frame_id, msg.seq, spec, msg))
            self.sim.schedule_at(
                end, lambda s=spec, m=msg, st=start: self._dynamic_rx(s, m, st))

    def _dynamic_rx(self, spec, msg, start):
        now = self.sim.now
        msg.tx_start = start
        msg.rx_time = now
        controller = self.controllers[msg.sender]
        controller.tx_count += 1
        obs.count("flexray.dynamic_tx")
        self.trace.log(now, "flexray.rx_dynamic", spec.name, node=msg.sender,
                       frame_id=spec.frame_id, latency=msg.latency)
        for node, peer in self.controllers.items():
            if peer is not controller:
                peer._deliver(spec.name, msg, None)
