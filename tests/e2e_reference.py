"""Reference CRC-8 and E2E check for parity tests.

:func:`reference_crc8` is the bit-serial form of the SAE J1850 CRC-8:
eight shift-and-conditional-xor steps per byte, straight from the
polynomial, with no table.  :class:`ReferenceE2eReceiver` classifies a
reception the plainest way: it decodes the whole PDU with
``IPdu.unpack`` and recomputes the CRC with :func:`reference_crc8`.  It
overrides only ``check``, so verdict recording, listeners and timeout
supervision are the receiver's own.  The property tests in
``test_e2e_protection.py`` run the same inputs through both.
"""

from repro.com.e2e import (E2E_CRC_ERROR, E2E_OK, E2E_REPEATED,
                           E2E_WRONG_SEQUENCE, E2eReceiver)

CRC8_POLY = 0x1D


def reference_crc8(data, start=0xFF):
    """CRC-8 (poly 0x1D), MSB first, one bit per step."""
    crc = start
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 0x80:
                crc = ((crc << 1) ^ CRC8_POLY) & 0xFF
            else:
                crc = (crc << 1) & 0xFF
    return crc ^ 0xFF


def reference_crc_of_payload(ipdu, profile, payload):
    """CRC over data_id (little-endian) || payload with its CRC field
    zeroed."""
    mapping = ipdu.mapping_of(ipdu.name + ".e2e_crc")
    mask = ((1 << mapping.spec.width_bits) - 1) << mapping.start_bit
    data = profile.data_id.to_bytes(2, "little")
    data += (payload & ~mask).to_bytes(ipdu.size_bytes, "little")
    return reference_crc8(data)


class ReferenceE2eReceiver(E2eReceiver):
    """Checks a reception by decoding every signal of the PDU."""

    def check(self, payload):
        decoded = self.ipdu.unpack(payload)
        rx_crc = decoded[self.crc_name]["value"]
        rx_counter = decoded[self.counter_name]["value"]
        if reference_crc_of_payload(self.ipdu, self.profile,
                                    payload) != rx_crc:
            return self._classify(E2E_CRC_ERROR)
        if self._last_counter is None:
            delta = 1
        else:
            delta = (rx_counter - self._last_counter) \
                % self.profile.counter_modulo
        self._last_counter = rx_counter
        if delta == 0:
            return self._classify(E2E_REPEATED, counter=rx_counter)
        if delta > self.profile.max_delta_counter:
            return self._classify(E2E_WRONG_SEQUENCE, counter=rx_counter)
        self.last_ok_time = self.sim.now
        if self.profile.timeout is not None:
            self._arm_timeout()
        return self._classify(E2E_OK, counter=rx_counter)
