"""Fault injection: adapters apply fault kinds to concrete subsystems.

An adapter knows how to switch one fault kind on and off for one target
(a TTP node, an OS task, a CAN controller, an IP core).  The
:class:`FaultInjector` schedules activation/deactivation on the simulator
and keeps the fault log the containment monitors read.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.faults.model import (BABBLING, CORRUPTION, CRASH, DELAY, Fault,
                                OMISSION, TIMING_OVERRUN)
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace


class FaultAdapter:
    """Base adapter: subclasses implement apply/revert per fault kind."""

    #: fault kinds this adapter supports.
    supports: tuple = ()

    def __init__(self, target_name: str):
        self.target_name = target_name

    def apply(self, fault: Fault) -> None:
        """Switch the fault on (subclass responsibility)."""
        raise NotImplementedError

    def revert(self, fault: Fault) -> None:
        """Switch the fault off (subclass responsibility)."""
        raise NotImplementedError

    def check(self, fault: Fault) -> None:
        """Reject fault kinds this adapter does not support."""
        if fault.kind not in self.supports:
            raise ConfigurationError(
                f"adapter for {self.target_name} does not support "
                f"{fault.kind!r} (supports {self.supports})")


class TtpNodeAdapter(FaultAdapter):
    """Faults on a TTP cluster node."""

    supports = (CRASH, BABBLING)

    def __init__(self, node):
        super().__init__(node.name)
        self.node = node

    def apply(self, fault: Fault) -> None:
        """Activate the fault on the TTP node."""
        if fault.kind == CRASH:
            self.node.crash()
        else:
            self.node.start_babbling()

    def revert(self, fault: Fault) -> None:
        """Deactivate the fault on the TTP node."""
        if fault.kind == CRASH:
            self.node.recover()
        else:
            self.node.stop_babbling()


class TaskAdapter(FaultAdapter):
    """Faults on an OS task: execution-time overruns and crashes
    (crash = activations stop producing work: modelled by forcing a
    1-tick execution that performs no output via the overrun hook is not
    faithful, so crash instead suppresses activations)."""

    supports = (TIMING_OVERRUN, CRASH)

    def __init__(self, kernel, task):
        super().__init__(task.name)
        self.kernel = kernel
        self.task = task
        # Healthy values are captured once, on the *first* overlapping
        # apply of each kind, so stacked fault windows reverted in any
        # order always restore the original behaviour.
        self._saved_execution_time = None
        self._overrun_depth = 0
        self._saved_max_activations = None
        self._crash_depth = 0

    def apply(self, fault: Fault) -> None:
        """Activate the overrun or crash behaviour on the task."""
        if fault.kind == TIMING_OVERRUN:
            factor = fault.params.get("factor", 10.0)
            base = self.task.spec.wcet
            if self._overrun_depth == 0:
                self._saved_execution_time = self.task.execution_time
            self._overrun_depth += 1
            self.task.execution_time = lambda: max(1, round(base * factor))
        else:  # CRASH: drop all future activations
            if self._crash_depth == 0:
                self._saved_max_activations = self.task.spec.max_activations
            self._crash_depth += 1
            self.task.spec.max_activations = 0

    def revert(self, fault: Fault) -> None:
        """Restore the task's healthy behaviour."""
        if fault.kind == TIMING_OVERRUN:
            self._overrun_depth = max(0, self._overrun_depth - 1)
            if self._overrun_depth == 0:
                self.task.execution_time = self._saved_execution_time
                self._saved_execution_time = None
        else:
            self._crash_depth = max(0, self._crash_depth - 1)
            if self._crash_depth == 0:
                self.task.spec.max_activations = self._saved_max_activations
                self._saved_max_activations = None


class CanNodeAdapter(FaultAdapter):
    """Faults on a CAN controller: babbling idiot (floods the bus with a
    top-priority frame) and crash (bus-off)."""

    supports = (BABBLING, CRASH)

    def __init__(self, sim: Simulator, controller, flood_period: int,
                 flood_id: int = 0):
        super().__init__(controller.node)
        self.sim = sim
        self.controller = controller
        self.flood_period = flood_period
        self.flood_id = flood_id
        self._flood_handle = None

    def apply(self, fault: Fault) -> None:
        """Start flooding (babbling) or go bus-off (crash)."""
        if fault.kind == CRASH:
            self.controller.set_bus_off(True)
            return
        from repro.network.can import CanFrameSpec
        spec = CanFrameSpec(f"babble.{self.target_name}", self.flood_id,
                            dlc=8)

        def flood():
            self.controller.send(spec, payload=0)
            self._flood_handle = self.sim.schedule(self.flood_period, flood)

        self._flood_handle = self.sim.schedule(0, flood)

    def revert(self, fault: Fault) -> None:
        """Stop the fault; babbling reverts flush the backlog."""
        if fault.kind == CRASH:
            self.controller.set_bus_off(False)
            return
        if self._flood_handle is not None:
            self._flood_handle.cancel()
            self._flood_handle = None
        # Fault end models a controller reset: drop the babble backlog.
        self.controller.flush()


class IpCoreAdapter(FaultAdapter):
    """Faults on an MPSoC IP core."""

    supports = (BABBLING,)

    def __init__(self, core, victim, interval: int):
        super().__init__(core.name)
        self.core = core
        self.victim = victim
        self.interval = interval

    def apply(self, fault: Fault) -> None:
        """Start the core's babbling flood."""
        self.core.start_babbling(self.victim, self.interval)

    def revert(self, fault: Fault) -> None:
        """Stop the core's babbling flood."""
        self.core.stop_babbling()


class ComSignalAdapter(FaultAdapter):
    """Faults on a COM signal path: omission (drop every reception) and
    corruption (overwrite received values).

    The adapter registers a *filter* in the ComStack's rx-filter
    registry rather than capturing ``_on_pdu`` itself: several adapters
    on the same stack stack cleanly, installs are idempotent, and
    reverting one adapter never leaves another holding a stale chain.
    """

    supports = (OMISSION, CORRUPTION)

    def __init__(self, com_stack, signal_name: str):
        super().__init__(f"{com_stack.node}:{signal_name}")
        self.com = com_stack
        self.signal_name = signal_name
        self._active_fault = None

    def apply(self, fault: Fault) -> None:
        """Interpose on the COM rx path (omission/corruption)."""
        self._active_fault = fault
        self.com.add_rx_filter(self._filter)

    def revert(self, fault: Fault) -> None:
        """Stop filtering; the interposer stays installed but passive."""
        self._active_fault = None

    def check(self, fault: Fault) -> None:
        """Also reject a stuck ``params["value"]`` the signal cannot
        carry: written into the payload, it would spill into the
        neighbouring fields (an E2E counter or CRC) or fail mid-run."""
        super().check(fault)
        if "value" in fault.params:
            spec = self.com._require(self.signal_name).spec
            spec._check_range(fault.params["value"])

    def uninstall(self) -> None:
        """Remove the interposer from the stack entirely."""
        self._active_fault = None
        self.com.remove_rx_filter(self._filter)

    def _filter(self, pdu_name: str, payload: int) -> Optional[int]:
        fault = self._active_fault
        if fault is None:
            return payload
        ipdu = self.com._rx_pdus.get(pdu_name)
        if ipdu is None or self.signal_name not in ipdu.signal_names():
            return payload
        if fault.kind == OMISSION:
            return None  # drop the whole PDU carrying the signal
        mapping = ipdu.mapping_of(self.signal_name)
        stuck = fault.params.get("value", mapping.spec.max_value)
        mask = ((1 << mapping.spec.width_bits) - 1) << mapping.start_bit
        return (payload & ~mask) | (stuck << mapping.start_bit)


class ComDelayAdapter(FaultAdapter):
    """Delay faults on a COM rx path: every PDU carrying the signal is
    withheld and redelivered ``params["delay"]`` later.

    Redelivery calls ``_on_pdu`` directly — the post-filter entry point —
    so the delayed copy is not run through the rx-filter registry again
    (which would re-capture it and delay forever).
    """

    supports = (DELAY,)

    def __init__(self, sim: Simulator, com_stack, signal_name: str):
        super().__init__(f"{com_stack.node}:{signal_name}")
        self.sim = sim
        self.com = com_stack
        self.signal_name = signal_name
        self._active_fault = None
        self._installed = False

    def apply(self, fault: Fault) -> None:
        """Start withholding receptions of the signal's PDU."""
        self._active_fault = fault
        if not self._installed:
            self.com.add_rx_filter(self._filter)
            self._installed = True

    def revert(self, fault: Fault) -> None:
        """Stop delaying new receptions (in-flight ones still arrive)."""
        self._active_fault = None

    def _filter(self, pdu_name: str, payload: int) -> Optional[int]:
        fault = self._active_fault
        if fault is None:
            return payload
        ipdu = self.com._rx_pdus.get(pdu_name)
        if ipdu is None or self.signal_name not in ipdu.signal_names():
            return payload
        delay = fault.params.get("delay", 0)
        self.sim.schedule(delay, lambda: self.com._on_pdu(pdu_name, payload))
        return None


class CanBusErrorAdapter(FaultAdapter):
    """Error bursts on the CAN medium: while active, every transmission
    attempt of one frame is destroyed by an error frame (the controller
    retransmits automatically, so the fault manifests as latency, not
    silent loss)."""

    supports = (CORRUPTION,)

    def __init__(self, bus, frame_name: str):
        super().__init__(f"{bus.name}:{frame_name}")
        self.bus = bus
        self.frame_name = frame_name
        self._saved_model = None

    def apply(self, fault: Fault) -> None:
        """Install the targeted error model (chaining any existing one)."""
        self._saved_model = self.bus.error_model
        saved = self._saved_model

        def error_model(spec, msg):
            if spec.name == self.frame_name:
                return True
            return saved is not None and saved(spec, msg)

        self.bus.error_model = error_model

    def revert(self, fault: Fault) -> None:
        """Restore the bus's previous error model."""
        self.bus.error_model = self._saved_model
        self._saved_model = None


class FlexRaySlotAdapter(FaultAdapter):
    """Slot corruption on a FlexRay bus: while active, the static slot
    carrying one frame is corrupted every cycle (the bus logs
    ``flexray.slot_lost`` and drops the frame)."""

    supports = (OMISSION,)

    def __init__(self, bus, frame_name: str):
        super().__init__(f"flexray:{frame_name}")
        self.bus = bus
        self.frame_name = frame_name
        self._saved_model = None

    def apply(self, fault: Fault) -> None:
        """Install the targeted slot-fault model (chaining any existing
        one)."""
        self._saved_model = self.bus.fault_model
        saved = self._saved_model

        def fault_model(assignment, cycle):
            if assignment.frame_name == self.frame_name:
                return True
            return saved is not None and saved(assignment, cycle)

        self.bus.fault_model = fault_model

    def revert(self, fault: Fault) -> None:
        """Restore the bus's previous slot-fault model."""
        self.bus.fault_model = self._saved_model
        self._saved_model = None


class GuardedCanNodeAdapter(FaultAdapter):
    """Babbling idiot behind a bus guardian: the flood loop asks the
    guardian for permission before every send, so an untimely
    transmission attempt is *blocked at the physical layer* instead of
    reaching the bus.  Each blocked attempt is logged as a
    ``guardian.blocked`` trace record (the containment evidence the
    resilience oracle checks for)."""

    supports = (BABBLING,)

    def __init__(self, sim: Simulator, controller, guardian,
                 flood_period: int, trace: Trace, flood_id: int = 0):
        super().__init__(controller.node)
        self.sim = sim
        self.controller = controller
        self.guardian = guardian
        self.flood_period = flood_period
        self.trace = trace
        self.flood_id = flood_id
        self._flood_handle = None

    def apply(self, fault: Fault) -> None:
        """Start the guarded flood loop."""
        from repro.network.can import CanFrameSpec
        spec = CanFrameSpec(f"babble.{self.target_name}", self.flood_id,
                            dlc=8)

        def flood():
            if self.guardian.permit(self.sim.now):
                self.controller.send(spec, payload=0)
            else:
                self.trace.log(self.sim.now, "guardian.blocked",
                               self.target_name, frame=spec.name)
            self._flood_handle = self.sim.schedule(self.flood_period, flood)

        self._flood_handle = self.sim.schedule(0, flood)

    def revert(self, fault: Fault) -> None:
        """Stop flooding and flush whatever the guardian let through."""
        if self._flood_handle is not None:
            self._flood_handle.cancel()
            self._flood_handle = None
        self.controller.flush()


class FaultInjector:
    """Schedules faults and keeps the injection log."""

    def __init__(self, sim: Simulator, trace: Optional[Trace] = None):
        self.sim = sim
        self.trace = trace if trace is not None else Trace()
        self.faults: list[Fault] = []

    def inject(self, adapter: FaultAdapter, fault: Fault) -> Fault:
        """Schedule a fault's activation (and deactivation) window.

        The window is validated against the simulator clock: a fault
        whose deactivation would fire at or before its activation
        (zero/negative duration, or a window already entirely in the
        past) is rejected instead of silently scheduling a deactivate
        that never follows an active phase.
        """
        adapter.check(fault)
        if fault.duration is not None:
            if fault.duration <= 0:
                raise ConfigurationError(
                    f"fault on {fault.target}: duration must be > 0, "
                    f"got {fault.duration}")
            if fault.end < fault.start:
                raise ConfigurationError(
                    f"fault on {fault.target}: end {fault.end} before "
                    f"start {fault.start}")
            if fault.end <= self.sim.now:
                raise ConfigurationError(
                    f"fault on {fault.target}: window "
                    f"[{fault.start}, {fault.end}) already past at "
                    f"t={self.sim.now}")
        self.faults.append(fault)

        def activate():
            fault.active = True
            adapter.apply(fault)
            self.trace.log(self.sim.now, "fault.activate", fault.target,
                           kind=fault.kind)

        self.sim.schedule_at(max(self.sim.now, fault.start), activate)
        if fault.duration is not None:
            def deactivate():
                fault.active = False
                adapter.revert(fault)
                self.trace.log(self.sim.now, "fault.deactivate",
                               fault.target, kind=fault.kind)

            self.sim.schedule_at(max(self.sim.now, fault.end), deactivate)
        return fault

    def active_faults(self) -> list[Fault]:
        """Faults currently switched on."""
        return [fault for fault in self.faults if fault.active]

    def __repr__(self) -> str:
        return f"<FaultInjector faults={len(self.faults)}>"
