"""The COM service: signal-level communication over packed I-PDUs.

One :class:`ComStack` runs per node.  On the transmit side it owns the
node's outgoing I-PDUs and their transmission modes (periodic, direct,
mixed); on the receive side it unpacks incoming PDUs into signal values,
fires per-signal callbacks, and monitors reception deadlines — the
"communication errors" use case of the paper's error-handling concept is
driven by these timeout notifications.

The stack is bus-agnostic: a small adapter binds it to a CAN controller
(:class:`CanComAdapter`) or a FlexRay static slot
(:class:`FlexRayComAdapter`).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.com.e2e import E2E_OK
from repro.com.ipdu import IPdu
from repro.com.signal import SignalSpec, SignalValue, TRIGGERED
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace

PERIODIC = "periodic"
DIRECT = "direct"
MIXED = "mixed"


class CanComAdapter:
    """Binds a ComStack to a CAN controller via a PDU -> frame map."""

    def __init__(self, controller, frame_specs: dict[str, object]):
        self.controller = controller
        self.frame_specs = frame_specs
        self._rx_callback = None
        controller.on_receive(self._on_frame)

    def transmit(self, ipdu: IPdu, payload: int) -> None:
        """Send the PDU's payload as its configured CAN frame."""
        spec = self.frame_specs.get(ipdu.name)
        if spec is None:
            raise ConfigurationError(
                f"no CAN frame configured for ipdu {ipdu.name}")
        self.controller.send(spec, payload)

    def set_rx_callback(self, callback: Callable[[str, int], None]) -> None:
        """Install the ComStack's PDU-reception entry point."""
        self._rx_callback = callback

    def _on_frame(self, spec, msg) -> None:
        if self._rx_callback is not None:
            self._rx_callback(spec.name, msg.payload)


class FlexRayComAdapter:
    """Binds a ComStack to FlexRay static slots via a PDU -> slot map."""

    def __init__(self, controller, slot_of_pdu: dict[str, int]):
        self.controller = controller
        self.slot_of_pdu = slot_of_pdu
        self._rx_callback = None
        controller.on_receive(self._on_frame)

    def transmit(self, ipdu: IPdu, payload: int) -> None:
        """Write the PDU's payload into its static slot buffer."""
        slot = self.slot_of_pdu.get(ipdu.name)
        if slot is None:
            raise ConfigurationError(
                f"no FlexRay slot configured for ipdu {ipdu.name}")
        self.controller.send_static(slot, payload)

    def set_rx_callback(self, callback: Callable[[str, int], None]) -> None:
        """Install the ComStack's PDU-reception entry point."""
        self._rx_callback = callback

    def _on_frame(self, frame_name, msg, slot) -> None:
        if self._rx_callback is not None:
            self._rx_callback(frame_name, msg.payload)


class TteComAdapter:
    """Binds a ComStack to TT-Ethernet streams (one per PDU).

    ``transmit`` updates the stream's payload buffer; the switch ships
    it at the stream's scheduled dispatch instants — time-triggered
    state transfer, like a FlexRay static slot.
    """

    def __init__(self, switch, node: str, tx_streams: set,
                 rx_streams: set):
        self.switch = switch
        self.node = node
        self.tx_streams = set(tx_streams)
        self.rx_streams = set(rx_streams)
        self._rx_callback = None
        #: stream -> write stamp of the last payload delivered upward.
        #: A TT stream re-ships its buffer every period; the COM layer
        #: must see each *written* payload exactly once (its update bits
        #: are only valid for the write that produced it).
        self._last_stamp: dict[str, int] = {}
        switch.on_receive(node, self._on_frame)

    def transmit(self, ipdu: IPdu, payload: int) -> None:
        """Update the PDU's TT stream buffer (shipped on schedule)."""
        if ipdu.name not in self.tx_streams:
            raise ConfigurationError(
                f"no TT stream configured for ipdu {ipdu.name}")
        self.switch.set_tt_payload(ipdu.name, payload)

    def set_rx_callback(self, callback: Callable[[str, int], None]) -> None:
        """Install the ComStack's PDU-reception entry point."""
        self._rx_callback = callback

    def _on_frame(self, name, msg) -> None:
        if self._rx_callback is None or name not in self.rx_streams \
                or msg.payload is None:
            return
        if self._last_stamp.get(name) == msg.enqueue_time:
            return  # periodic re-shipment of an already-seen write
        self._last_stamp[name] = msg.enqueue_time
        self._rx_callback(name, msg.payload)


class TxPdu:
    """Transmit-side state of one I-PDU."""

    def __init__(self, ipdu: IPdu, mode: str, period: Optional[int],
                 group: Optional[str] = None):
        if mode not in (PERIODIC, DIRECT, MIXED):
            raise ConfigurationError(f"ipdu {ipdu.name}: unknown mode {mode}")
        if mode in (PERIODIC, MIXED) and (period is None or period <= 0):
            raise ConfigurationError(
                f"ipdu {ipdu.name}: {mode} mode needs a positive period")
        self.ipdu = ipdu
        self.mode = mode
        self.period = period
        self.group = group
        self.enabled = True
        self.tx_count = 0


class ComStack:
    """Per-node COM service instance."""

    def __init__(self, sim: Simulator, adapter, node: str,
                 trace: Optional[Trace] = None):
        self.sim = sim
        self.adapter = adapter
        self.node = node
        self.trace = trace if trace is not None else Trace()
        self._signals: dict[str, SignalValue] = {}
        self._tx_pdus: dict[str, TxPdu] = {}
        self._rx_pdus: dict[str, IPdu] = {}
        self._signal_to_tx_pdu: dict[str, TxPdu] = {}
        self._rx_callbacks: dict[str, list[Callable]] = {}
        self._timeout_callbacks: dict[str, list[Callable]] = {}
        self._timeout_handles: dict[str, object] = {}
        self.timed_out: set[str] = set()
        #: interposers on the rx path (fault injection): each gets
        #: (pdu_name, payload) and returns the payload to pass on, or
        #: None to drop the PDU.  A registry instead of ad-hoc method
        #: capture so several interposers stack and revert safely.
        self._rx_filters: list[Callable[[str, int], Optional[int]]] = []
        #: e2e protection: pdu name -> E2eSender / E2eReceiver.
        self._tx_protectors: dict[str, object] = {}
        self._rx_checkers: dict[str, object] = {}
        #: forced app-visible signal values (error reaction: substitute
        #: a default/last-good value while the source is untrusted).
        self._substitutions: dict[str, int] = {}
        adapter.set_rx_callback(self._dispatch_pdu)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_tx_pdu(self, ipdu: IPdu, mode: str = PERIODIC,
                   period: Optional[int] = None,
                   group: Optional[str] = None) -> None:
        """Register an outgoing PDU; its signals become writable here.

        ``group`` assigns the PDU to an I-PDU group, which mode
        management can switch off and on as a unit (e.g. silencing
        comfort traffic in a limp-home mode).
        """
        if ipdu.name in self._tx_pdus:
            raise ConfigurationError(f"duplicate tx pdu {ipdu.name}")
        tx = TxPdu(ipdu, mode, period, group)
        self._tx_pdus[ipdu.name] = tx
        for mapping in ipdu.mappings:
            self._register_signal(mapping.spec)
            self._signal_to_tx_pdu[mapping.spec.name] = tx
        if mode in (PERIODIC, MIXED):
            self._schedule_periodic(tx)

    def add_rx_pdu(self, ipdu: IPdu) -> None:
        """Register an incoming PDU; its signals become readable here and
        their reception deadlines are monitored."""
        if ipdu.name in self._rx_pdus:
            raise ConfigurationError(f"duplicate rx pdu {ipdu.name}")
        self._rx_pdus[ipdu.name] = ipdu
        for mapping in ipdu.mappings:
            self._register_signal(mapping.spec)
            if mapping.spec.timeout is not None:
                self._arm_timeout(mapping.spec)

    def tx_pdu(self, pdu_name: str) -> TxPdu:
        """Transmit-side state of a registered tx PDU."""
        tx = self._tx_pdus.get(pdu_name)
        if tx is None:
            raise ConfigurationError(
                f"node {self.node}: unknown tx pdu {pdu_name!r}")
        return tx

    def rx_pdu(self, pdu_name: str) -> IPdu:
        """A registered rx PDU by name."""
        ipdu = self._rx_pdus.get(pdu_name)
        if ipdu is None:
            raise ConfigurationError(
                f"node {self.node}: unknown rx pdu {pdu_name!r}")
        return ipdu

    def protect_tx_pdu(self, pdu_name: str, sender) -> None:
        """Attach an E2E sender: every transmission of the PDU is
        stamped with the sender's counter and CRC fields."""
        self.tx_pdu(pdu_name)  # must exist
        if pdu_name in self._tx_protectors:
            raise ConfigurationError(
                f"node {self.node}: tx pdu {pdu_name} already protected")
        self._tx_protectors[pdu_name] = sender

    def protect_rx_pdu(self, pdu_name: str, receiver) -> None:
        """Attach an E2E receiver: every reception of the PDU is checked
        before its signals reach the application; receptions that fail
        the check are contained (values and callbacks untouched)."""
        self.rx_pdu(pdu_name)  # must exist
        if pdu_name in self._rx_checkers:
            raise ConfigurationError(
                f"node {self.node}: rx pdu {pdu_name} already protected")
        self._rx_checkers[pdu_name] = receiver

    def add_rx_filter(self,
                      fltr: Callable[[str, int], Optional[int]]) -> None:
        """Install an rx-path interposer (idempotent per filter)."""
        if fltr not in self._rx_filters:
            self._rx_filters.append(fltr)

    def remove_rx_filter(self,
                         fltr: Callable[[str, int], Optional[int]]) -> None:
        """Uninstall an rx-path interposer (no-op when absent)."""
        if fltr in self._rx_filters:
            self._rx_filters.remove(fltr)

    def _register_signal(self, spec: SignalSpec) -> None:
        existing = self._signals.get(spec.name)
        if existing is not None and existing.spec is not spec:
            raise ConfigurationError(
                f"signal {spec.name} registered twice with different specs")
        if existing is None:
            self._signals[spec.name] = SignalValue(spec)
            self._rx_callbacks[spec.name] = []
            self._timeout_callbacks[spec.name] = []

    # ------------------------------------------------------------------
    # Application API
    # ------------------------------------------------------------------
    def write_signal(self, name: str, value: int) -> None:
        """Write a signal value; TRIGGERED signals transmit immediately."""
        signal = self._require(name)
        signal.write(value, self.sim.now)
        tx = self._signal_to_tx_pdu.get(name)
        if tx is None:
            return
        if signal.spec.transfer == TRIGGERED and tx.mode in (DIRECT, MIXED):
            self._transmit(tx)

    def read_signal(self, name: str) -> int:
        """Current value of a signal (initial value before any reception).

        While a substitution is active (error reaction), the substituted
        value is returned instead of the received one.
        """
        substituted = self._substitutions.get(name)
        if substituted is not None:
            return substituted
        return self._require(name).value

    def substitute_signal(self, name: str, value: int) -> None:
        """Force the app-visible value of a signal (degraded operation:
        reads return ``value`` until :meth:`clear_substitution`).  The
        underlying reception state keeps updating in the background so
        clearing the substitution resumes with live data."""
        signal = self._require(name)
        signal.spec._check_range(value)
        self._substitutions[name] = value
        self.trace.log(self.sim.now, "com.substituted", name,
                       node=self.node, value=value)

    def clear_substitution(self, name: str) -> None:
        """Drop a forced signal value; reads see live data again."""
        self._require(name)
        if self._substitutions.pop(name, None) is not None:
            self.trace.log(self.sim.now, "com.substitution_cleared", name,
                           node=self.node)

    def substituted_signals(self) -> list[str]:
        """Names of signals currently carrying a forced value."""
        return sorted(self._substitutions)

    def send_pdu(self, pdu_name: str) -> None:
        """Transmit a tx PDU now, regardless of its mode.

        Used by callers that need call-style semantics: update several
        signals, then ship them in one frame (e.g. the RTE's remote
        operation invocation).
        """
        tx = self._tx_pdus.get(pdu_name)
        if tx is None:
            raise ConfigurationError(
                f"node {self.node}: unknown tx pdu {pdu_name!r}")
        self._transmit(tx)

    def signal_age(self, name: str) -> Optional[int]:
        """ns since last reception of the signal (None = never received)."""
        signal = self._require(name)
        if signal.last_reception is None:
            return None
        return self.sim.now - signal.last_reception

    def on_signal(self, name: str, callback: Callable[[int], None]) -> None:
        """Callback on each fresh reception of a signal value."""
        self._require(name)
        self._rx_callbacks[name].append(callback)

    def on_timeout(self, name: str, callback: Callable[[], None]) -> None:
        """Callback when the signal's reception deadline elapses."""
        signal = self._require(name)
        if signal.spec.timeout is None:
            raise ConfigurationError(
                f"signal {name} has no timeout configured")
        self._timeout_callbacks[name].append(callback)

    def _require(self, name: str) -> SignalValue:
        signal = self._signals.get(name)
        if signal is None:
            raise ConfigurationError(
                f"node {self.node}: unknown signal {name!r}")
        return signal

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def _schedule_periodic(self, tx: TxPdu) -> None:
        def fire():
            self._transmit(tx)
            self.sim.schedule(tx.period, fire)

        self.sim.schedule(tx.period, fire)

    def set_group_enabled(self, group: str, enabled: bool) -> int:
        """Enable/disable every tx PDU of an I-PDU group; returns the
        number of PDUs affected.  Disabled PDUs transmit nothing (their
        periodic timers keep running so re-enabling needs no re-sync)."""
        affected = 0
        for tx in self._tx_pdus.values():
            if tx.group == group:
                tx.enabled = enabled
                affected += 1
        if affected == 0:
            raise ConfigurationError(
                f"node {self.node}: no tx pdus in group {group!r}")
        return affected

    def _transmit(self, tx: TxPdu) -> None:
        if not tx.enabled:
            self.trace.log(self.sim.now, "com.tx_suppressed", tx.ipdu.name,
                           node=self.node)
            return
        values = {}
        updated = set()
        for mapping in tx.ipdu.mappings:
            signal = self._signals[mapping.spec.name]
            values[mapping.spec.name] = signal.value
            if signal.consume_update():
                updated.add(mapping.spec.name)
        protector = self._tx_protectors.get(tx.ipdu.name)
        if protector is not None:
            protector.protect(values, updated)
        payload = tx.ipdu.pack(values, updated)
        tx.tx_count += 1
        self.trace.log(self.sim.now, "com.tx", tx.ipdu.name, node=self.node)
        self.adapter.transmit(tx.ipdu, payload)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _dispatch_pdu(self, pdu_name: str, payload: int) -> None:
        """Adapter entry point: run interposers, then process the PDU."""
        for fltr in list(self._rx_filters):
            payload = fltr(pdu_name, payload)
            if payload is None:
                return  # interposer dropped the PDU
        self._on_pdu(pdu_name, payload)

    def _on_pdu(self, pdu_name: str, payload: int) -> None:
        ipdu = self._rx_pdus.get(pdu_name)
        if ipdu is None:
            return  # not for us
        if not isinstance(payload, int):
            raise ConfigurationError(
                f"node {self.node}: pdu {pdu_name} carried non-integer "
                f"payload {payload!r}")
        now = self.sim.now
        checker = self._rx_checkers.get(pdu_name)
        if checker is not None:
            if checker.check(payload) != E2E_OK:
                # Containment: a failed check never reaches the
                # application — no value update, no callbacks, no
                # deadline-rearm credit for the corrupt reception.
                self.trace.log(now, "com.rx_blocked", pdu_name,
                               node=self.node, verdict=checker.state)
                return
        self.trace.log(now, "com.rx", pdu_name, node=self.node)
        for name, decoded in ipdu.unpack(payload).items():
            signal = self._signals[name]
            signal.last_reception = now
            if name in self.timed_out:
                self.timed_out.remove(name)
                self.trace.log(now, "com.timeout_recovered", name,
                               node=self.node)
            if signal.spec.timeout is not None:
                self._arm_timeout(signal.spec)
            if not decoded["updated"]:
                continue
            signal.value = decoded["value"]
            for callback in self._rx_callbacks[name]:
                callback(decoded["value"])

    def _arm_timeout(self, spec: SignalSpec) -> None:
        handle = self._timeout_handles.get(spec.name)
        if handle is not None:
            handle.cancel()
        self._timeout_handles[spec.name] = self.sim.schedule(
            spec.timeout, lambda: self._timeout_fired(spec))

    def _timeout_fired(self, spec: SignalSpec) -> None:
        self._timeout_handles[spec.name] = None
        self.timed_out.add(spec.name)
        self.trace.log(self.sim.now, "com.timeout", spec.name,
                       node=self.node)
        for callback in self._timeout_callbacks[spec.name]:
            callback()

    def __repr__(self) -> str:
        return (f"<ComStack {self.node} tx={len(self._tx_pdus)} "
                f"rx={len(self._rx_pdus)}>")
