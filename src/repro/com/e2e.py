"""End-to-end protection of COM signal groups (AUTOSAR E2E style).

The paper's Section 4 demands that an integrated architecture catch
value and timing failures *at the consumer*: "delivered values are wrong
(detected by range checks or CRC at the consumer)".  This module
provides that consumer-side net for COM I-PDUs, modelled on the AUTOSAR
E2E library (profile 1 flavour):

* the **sender** stamps every transmission of a protected PDU with an
  alive counter and a CRC salted with a per-group *data ID*, so a
  receiver can tell *this* group's frames from any other bit pattern;
* the **receiver** recomputes the CRC, tracks the counter delta, and
  supervises reception with a timeout driven by the simulator clock,
  classifying every check into ``OK / REPEATED / WRONG_SEQUENCE /
  CRC_ERROR / TIMEOUT``.

The protection travels inside the PDU payload as two ordinary mapped
signals (``<pdu>.e2e_cnt`` and ``<pdu>.e2e_crc``), so it survives any
transport (CAN, FlexRay, TT-Ethernet) unchanged and is subject to the
same fault injection as application data — which is the point: a
corruption or omission injected by :class:`~repro.faults.injector.
ComSignalAdapter` is *detected* here instead of silently consumed.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.com.ipdu import IPdu, SignalMapping, pack_sequentially
from repro.com.signal import SignalSpec
from repro.sim.trace import Trace

#: Receiver-side check verdicts.
E2E_OK = "ok"
E2E_REPEATED = "repeated"
E2E_WRONG_SEQUENCE = "wrong_sequence"
E2E_CRC_ERROR = "crc_error"
E2E_TIMEOUT = "timeout"

E2E_VERDICTS = (E2E_OK, E2E_REPEATED, E2E_WRONG_SEQUENCE, E2E_CRC_ERROR,
                E2E_TIMEOUT)

#: Suffixes of the protection signals a protected PDU carries.
COUNTER_SUFFIX = ".e2e_cnt"
CRC_SUFFIX = ".e2e_crc"

_CRC8_POLY = 0x1D  # SAE J1850, the AUTOSAR Crc_CalculateCRC8 polynomial


def _crc8_table(poly: int) -> bytes:
    """Entry ``i``: the CRC register after shifting byte ``i`` through
    eight MSB-first steps of ``poly``."""
    table = bytearray(256)
    for index in range(256):
        crc = index
        for _ in range(8):
            crc = ((crc << 1) ^ poly if crc & 0x80 else crc << 1) & 0xFF
        table[index] = crc
    return bytes(table)


_CRC8_TABLE = _crc8_table(_CRC8_POLY)


def crc8(data: bytes, start: int = 0xFF) -> int:
    """CRC-8 (poly 0x1D, SAE J1850) over ``data``, MSB first.

    ``start`` is the 8-bit initial register value.  One table lookup
    per byte; the check value ``crc8(b"123456789")`` is ``0x4B``.
    """
    table = _CRC8_TABLE
    crc = start
    for byte in data:
        crc = table[crc ^ byte]
    return crc ^ 0xFF


class E2eProfile:
    """Static protection parameters of one signal group.

    ``data_id`` salts the CRC so a frame of one group can never pass the
    check of another; ``max_delta_counter`` is the largest counter jump
    the receiver accepts as OK (lost-but-tolerated frames); ``timeout``
    is the receiver's reception supervision window in ns.
    """

    def __init__(self, data_id: int, counter_bits: int = 4,
                 max_delta_counter: int = 1,
                 timeout: Optional[int] = None):
        if not 0 <= data_id <= 0xFFFF:
            raise ConfigurationError(
                f"e2e data_id {data_id:#x} must fit 16 bits")
        if not 1 <= counter_bits <= 8:
            raise ConfigurationError("e2e counter_bits must be 1..8")
        if not 1 <= max_delta_counter < (1 << counter_bits) - 1:
            raise ConfigurationError(
                f"e2e max_delta_counter {max_delta_counter} must be in "
                f"1..{(1 << counter_bits) - 2}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError("e2e timeout must be > 0")
        self.data_id = data_id
        self.counter_bits = counter_bits
        self.max_delta_counter = max_delta_counter
        self.timeout = timeout

    @property
    def counter_modulo(self) -> int:
        return 1 << self.counter_bits

    def __repr__(self) -> str:
        return (f"<E2eProfile data_id={self.data_id:#06x} "
                f"cnt={self.counter_bits}b timeout={self.timeout}>")


def e2e_protected_pdu(name: str, size_bytes: int, specs: list[SignalSpec],
                      profile: E2eProfile) -> IPdu:
    """Lay out ``specs`` with :func:`~repro.com.ipdu.pack_sequentially`
    and append the protection fields.

    The counter and CRC ride at the tail of the payload as two ordinary
    signals named ``<name>.e2e_cnt`` / ``<name>.e2e_crc``; both sides of
    a link must build the PDU with the same call.
    """
    pdu = pack_sequentially(name, size_bytes, specs)
    bit = max((mapping.end_bit for mapping in pdu.mappings), default=0)
    counter = SignalSpec(name + COUNTER_SUFFIX, profile.counter_bits)
    crc = SignalSpec(name + CRC_SUFFIX, 8)
    pdu.add(SignalMapping(counter, bit))
    pdu.add(SignalMapping(crc, bit + profile.counter_bits))
    return pdu


def _protection_names(pdu: IPdu) -> tuple[str, str]:
    counter_name = pdu.name + COUNTER_SUFFIX
    crc_name = pdu.name + CRC_SUFFIX
    names = set(pdu.signal_names())
    if counter_name not in names or crc_name not in names:
        raise ConfigurationError(
            f"ipdu {pdu.name} carries no e2e protection fields; build it "
            f"with e2e_protected_pdu()")
    return counter_name, crc_name


def _crc_of_payload(pdu: IPdu, profile: E2eProfile, payload: int,
                    crc_mapping: SignalMapping) -> int:
    """CRC over data_id || payload-with-crc-field-zeroed."""
    mask = ((1 << crc_mapping.spec.width_bits) - 1) << crc_mapping.start_bit
    blanked = payload & ~mask
    data = bytes([profile.data_id & 0xFF, (profile.data_id >> 8) & 0xFF])
    data += blanked.to_bytes(pdu.size_bytes, "little")
    return crc8(data)


class E2eSender:
    """Transmit-side protection: stamps counter and CRC at pack time.

    Installed on a :class:`~repro.com.com.ComStack` via
    ``protect_tx_pdu``; the stack calls :meth:`protect` on every
    transmission of the PDU, *after* application values are gathered and
    *before* packing.
    """

    def __init__(self, ipdu: IPdu, profile: E2eProfile):
        self.ipdu = ipdu
        self.profile = profile
        self.counter_name, self.crc_name = _protection_names(ipdu)
        self._crc_mapping = ipdu.mapping_of(self.crc_name)
        self._counter = profile.counter_modulo - 1  # first tx wraps to 0
        self.protected_count = 0

    def protect(self, values: dict, updated: set) -> None:
        """Fill the protection fields into ``values`` (in place)."""
        self._counter = (self._counter + 1) % self.profile.counter_modulo
        values[self.counter_name] = self._counter
        values[self.crc_name] = 0
        blank = self.ipdu.pack(values, updated)
        values[self.crc_name] = _crc_of_payload(
            self.ipdu, self.profile, blank, self._crc_mapping)
        updated |= {self.counter_name, self.crc_name}
        self.protected_count += 1

    def __repr__(self) -> str:
        return f"<E2eSender {self.ipdu.name} counter={self._counter}>"


class E2eReceiver:
    """Receive-side check state machine with timeout supervision.

    ``check(payload)`` classifies one reception; the simulator-driven
    timeout fires :data:`E2E_TIMEOUT` whenever no *valid* reception
    arrived within ``profile.timeout`` (and keeps firing once per
    window while the drought lasts, so debouncing error managers see a
    steady FAILED stream, not a single edge).

    Verdict listeners receive every classification, including the OK
    stream — that is what lets a recovery orchestrator both debounce
    failures and heal them again.
    """

    def __init__(self, sim, ipdu: IPdu, profile: E2eProfile,
                 trace: Optional[Trace] = None, node: str = ""):
        self.sim = sim
        self.ipdu = ipdu
        self.profile = profile
        self.trace = trace if trace is not None else Trace()
        self.node = node
        self.counter_name, self.crc_name = _protection_names(ipdu)
        self._crc_mapping = ipdu.mapping_of(self.crc_name)
        self._counter_mapping = ipdu.mapping_of(self.counter_name)
        self._last_counter: Optional[int] = None
        self._timeout_handle = None
        self._listeners: list[Callable[[str], None]] = []
        self.state = E2E_OK
        #: verdict -> number of classifications (timeouts included).
        self.counts: dict[str, int] = {v: 0 for v in E2E_VERDICTS}
        self.last_ok_time: Optional[int] = None
        if profile.timeout is not None:
            self._arm_timeout()

    # ------------------------------------------------------------------
    def on_verdict(self, listener: Callable[[str], None]) -> None:
        """Listener called with the verdict of every classification."""
        self._listeners.append(listener)

    def check(self, payload: int) -> str:
        """Classify one reception of the protected PDU.

        Only the CRC and counter fields are read, each by shift and
        mask; the application signals are decoded later, by the COM
        stack, and only for a reception that passes.
        """
        crc_mapping = self._crc_mapping
        counter_mapping = self._counter_mapping
        rx_crc = (payload >> crc_mapping.start_bit) \
            & crc_mapping.spec.max_value
        rx_counter = (payload >> counter_mapping.start_bit) \
            & counter_mapping.spec.max_value
        calc = _crc_of_payload(self.ipdu, self.profile, payload, crc_mapping)
        if calc != rx_crc:
            return self._classify(E2E_CRC_ERROR)
        if self._last_counter is None:
            delta = 1  # first reception initialises the sequence
        else:
            delta = (rx_counter - self._last_counter) \
                % self.profile.counter_modulo
        # A CRC-valid frame always resynchronises the sequence.
        self._last_counter = rx_counter
        if delta == 0:
            return self._classify(E2E_REPEATED, counter=rx_counter)
        if delta > self.profile.max_delta_counter:
            return self._classify(E2E_WRONG_SEQUENCE, counter=rx_counter)
        self.last_ok_time = self.sim.now
        if self.profile.timeout is not None:
            self._arm_timeout()
        return self._classify(E2E_OK, counter=rx_counter)

    def _classify(self, verdict: str, **extra) -> str:
        """Record one verdict.  ``extra`` data (e.g. the received alive
        counter for CRC-valid frames) rides on the trace record so
        trace-level invariants can re-check the classification."""
        self.state = verdict
        self.counts[verdict] += 1
        self.trace.log(self.sim.now, f"e2e.{verdict}", self.ipdu.name,
                       node=self.node, **extra)
        for listener in self._listeners:
            listener(verdict)
        return verdict

    # ------------------------------------------------------------------
    def _arm_timeout(self) -> None:
        if self._timeout_handle is not None:
            self.sim.cancel(self._timeout_handle)
        self._timeout_handle = self.sim.schedule(self.profile.timeout,
                                                 self._timeout_fired)

    def _timeout_fired(self) -> None:
        # Re-arm first: supervision keeps running while the drought
        # lasts, emitting one TIMEOUT per supervision window.
        self._arm_timeout()
        self._classify(E2E_TIMEOUT)

    def stop(self) -> None:
        """Cancel timeout supervision (end of scenario teardown)."""
        if self._timeout_handle is not None:
            self.sim.cancel(self._timeout_handle)
            self._timeout_handle = None

    @property
    def error_count(self) -> int:
        """Classifications that were not OK."""
        return sum(n for verdict, n in self.counts.items()
                   if verdict != E2E_OK)

    def __repr__(self) -> str:
        return (f"<E2eReceiver {self.ipdu.name} state={self.state} "
                f"errors={self.error_count}>")


def protect_link(tx_stack, rx_stack, pdu_name: str,
                 profile: E2eProfile) -> E2eReceiver:
    """Protect one PDU end-to-end across a tx and an rx ComStack.

    Convenience wrapper: installs an :class:`E2eSender` on the transmit
    stack and an :class:`E2eReceiver` on the receive stack, returning
    the receiver (whose verdicts drive error handling).
    """
    tx_pdu = tx_stack.tx_pdu(pdu_name).ipdu
    rx_pdu = rx_stack.rx_pdu(pdu_name)
    sender = E2eSender(tx_pdu, profile)
    receiver = E2eReceiver(rx_stack.sim, rx_pdu, profile,
                           trace=rx_stack.trace, node=rx_stack.node)
    tx_stack.protect_tx_pdu(pdu_name, sender)
    rx_stack.protect_rx_pdu(pdu_name, receiver)
    return receiver
