"""Tests for end-to-end signal protection (repro.com.e2e)."""

import pytest
from hypothesis import given, settings, strategies as st

from e2e_reference import ReferenceE2eReceiver, reference_crc8
from repro.com import (CanComAdapter, ComStack, E2E_CRC_ERROR, E2E_OK,
                       E2E_REPEATED, E2E_TIMEOUT, E2E_WRONG_SEQUENCE,
                       E2eProfile, E2eReceiver, E2eSender, PERIODIC,
                       SignalSpec, crc8, e2e_protected_pdu, protect_link)
from repro.errors import ConfigurationError
from repro.faults import (ComSignalAdapter, CORRUPTION, Fault,
                          FaultInjector, OMISSION)
from repro.network import CanBus, CanFrameSpec
from repro.sim import Simulator, Trace
from repro.units import ms, us


def test_crc8_known_properties():
    assert crc8(b"123456789") == 0x4B       # SAE J1850 check value
    assert crc8(b"") == 0x00                # start 0xFF, final xor 0xFF
    assert crc8(b"\x00") != crc8(b"\x01")   # value-sensitive
    assert crc8(b"\x01\x00") != crc8(b"\x00\x01")  # order-sensitive
    assert 0 <= crc8(b"automotive") <= 0xFF


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=64), start=st.integers(0, 0xFF))
def test_crc8_matches_the_bitwise_reference(data, start):
    assert crc8(data, start) == reference_crc8(data, start)
    assert crc8(data) == reference_crc8(data)


def test_profile_validation():
    with pytest.raises(ConfigurationError):
        E2eProfile(-1)
    with pytest.raises(ConfigurationError):
        E2eProfile(1, counter_bits=0)
    with pytest.raises(ConfigurationError):
        E2eProfile(1, max_delta_counter=15)  # must leave room for REPEATED
    with pytest.raises(ConfigurationError):
        E2eProfile(1, timeout=0)


def test_protected_pdu_carries_protection_fields():
    profile = E2eProfile(0x77)
    pdu = e2e_protected_pdu("P", 8, [SignalSpec("a", 8),
                                     SignalSpec("b", 4)], profile)
    assert "P.e2e_cnt" in pdu.signal_names()
    assert "P.e2e_crc" in pdu.signal_names()
    with pytest.raises(ConfigurationError):
        # An unprotected PDU cannot back a sender.
        from repro.com import pack_sequentially
        E2eSender(pack_sequentially("Q", 8, [SignalSpec("x", 8)]), profile)


@pytest.mark.parametrize("widths", [(), (16,), (8, 4), (1, 7, 12, 3),
                                    (32, 16)])
def test_protected_pdu_is_the_sequential_layout_plus_tail_fields(widths):
    """The protected PDU's mappings are ``pack_sequentially``'s, then the
    counter and the CRC right behind the last signal."""
    from repro.com import pack_sequentially

    profile = E2eProfile(0x77)
    specs = [SignalSpec(f"s{i}", width) for i, width in enumerate(widths)]

    def layout(pdu):
        return [(m.spec.name, m.spec.width_bits, m.start_bit, m.update_bit)
                for m in pdu.mappings]

    tail = sum(widths)
    assert layout(e2e_protected_pdu("P", 8, specs, profile)) == \
        layout(pack_sequentially("P", 8, specs)) + [
            ("P.e2e_cnt", profile.counter_bits, tail, None),
            ("P.e2e_crc", 8, tail + profile.counter_bits, None)]


def checker_pair(profile=None):
    profile = profile or E2eProfile(0x1234)
    pdu = e2e_protected_pdu("P", 8, [SignalSpec("v", 16)], profile)
    sim = Simulator()
    sender = E2eSender(pdu, profile)
    receiver = E2eReceiver(sim, pdu, profile)
    return sim, pdu, sender, receiver


def protected_payload(pdu, sender, value):
    values = {"v": value}
    sender.protect(values, set())
    return pdu.pack(values, set())


def test_sender_receiver_ok_sequence():
    sim, pdu, sender, receiver = checker_pair()
    payloads = [protected_payload(pdu, sender, value) for value in (1, 2, 3)]
    # v in bits 0-15, counter 0, 1, 2 in bits 16-19, CRC in bits 20-27.
    assert payloads == [0x1b00001, 0xbc10002, 0x2920003]
    for payload in payloads:
        assert receiver.check(payload) == E2E_OK
    assert receiver.counts[E2E_OK] == 3
    assert receiver.error_count == 0


def test_receiver_flags_corruption_as_crc_error():
    sim, pdu, sender, receiver = checker_pair()
    payload = protected_payload(pdu, sender, 42)
    mapping = pdu.mapping_of("v")
    corrupted = payload ^ (1 << mapping.start_bit)  # flip one data bit
    assert receiver.check(corrupted) == E2E_CRC_ERROR


def test_receiver_flags_repeated_counter():
    sim, pdu, sender, receiver = checker_pair()
    payload = protected_payload(pdu, sender, 42)
    assert receiver.check(payload) == E2E_OK
    assert receiver.check(payload) == E2E_REPEATED


def test_receiver_flags_counter_jump_then_resyncs():
    sim, pdu, sender, receiver = checker_pair()
    assert receiver.check(protected_payload(pdu, sender, 1)) == E2E_OK
    for _ in range(3):  # three transmissions lost in the network
        protected_payload(pdu, sender, 0)
    assert receiver.check(protected_payload(pdu, sender, 2)) \
        == E2E_WRONG_SEQUENCE
    # The CRC-valid frame resynchronised the sequence.
    assert receiver.check(protected_payload(pdu, sender, 3)) == E2E_OK


@st.composite
def reception_scripts(draw):
    """A profile and a sequence of receptions: valid frames whose
    counter steps by 0-3, single-bit flips of the last valid frame,
    arbitrary payloads, each after a wait of 0-3 ms."""
    counter_bits = draw(st.integers(2, 8))
    profile = E2eProfile(
        draw(st.integers(0, 0xFFFF)), counter_bits=counter_bits,
        max_delta_counter=draw(st.integers(1, (1 << counter_bits) - 2)),
        timeout=draw(st.sampled_from([None, ms(2), ms(5)])))
    step = st.one_of(
        st.tuples(st.just("valid"), st.integers(0, 3),
                  st.integers(0, 0xFFFF)),
        st.tuples(st.just("flip"), st.integers(0, 63), st.just(0)),
        st.tuples(st.just("raw"), st.integers(0, (1 << 64) - 1),
                  st.just(0)))
    script = draw(st.lists(st.tuples(step, st.integers(0, ms(3))),
                           max_size=30))
    return profile, script


@settings(max_examples=200, deadline=None)
@given(reception_scripts())
def test_receiver_matches_the_decoding_reference(case):
    profile, script = case
    pdu = e2e_protected_pdu("P", 8, [SignalSpec("v", 16)], profile)
    sim = Simulator()
    sender = E2eSender(pdu, profile)
    receivers = [E2eReceiver(sim, pdu, profile, node="rx"),
                 ReferenceE2eReceiver(sim, pdu, profile, node="rx")]
    verdicts = ([], [])
    for receiver, seen in zip(receivers, verdicts):
        receiver.on_verdict(seen.append)
    last = protected_payload(pdu, sender, 0)
    for (kind, arg, value), wait in script:
        sim.run_until(sim.now + wait)
        if kind == "valid":
            for _ in range(arg):  # arg - 1 frames lost on the way
                last = protected_payload(pdu, sender, value)
            payload = last
        elif kind == "flip":
            payload = last ^ (1 << arg)
        else:
            payload = arg
        got, want = (r.check(payload) for r in receivers)
        assert got == want, (kind, hex(payload))
    sim.run_until(sim.now + ms(6))
    assert verdicts[0] == verdicts[1]
    fast, reference = receivers
    assert fast.counts == reference.counts
    assert fast.last_ok_time == reference.last_ok_time
    assert fast.trace.digest() == reference.trace.digest()


def test_data_id_salts_the_crc():
    _, pdu_a, sender_a, _ = checker_pair(E2eProfile(0x0001))
    profile_b = E2eProfile(0x0002)
    pdu_b = e2e_protected_pdu("P", 8, [SignalSpec("v", 16)], profile_b)
    sim = Simulator()
    receiver_b = E2eReceiver(sim, pdu_b, profile_b)
    # A frame protected for group 1 must not pass group 2's check.
    assert receiver_b.check(protected_payload(pdu_a, sender_a, 7)) \
        == E2E_CRC_ERROR


def test_timeout_supervision_fires_on_drought():
    profile = E2eProfile(0x55, timeout=ms(5))
    sim, pdu, sender, receiver = checker_pair(profile)
    receiver2 = E2eReceiver(sim, pdu, profile)
    verdicts = []
    receiver2.on_verdict(verdicts.append)
    sim.run_until(ms(12))
    # No reception at all: one TIMEOUT per supervision window.
    assert verdicts == [E2E_TIMEOUT, E2E_TIMEOUT]
    assert receiver2.state == E2E_TIMEOUT


def test_timeout_rearmed_by_valid_reception_only():
    profile = E2eProfile(0x55, timeout=ms(5))
    sim, pdu, sender, receiver = checker_pair(profile)
    payload = protected_payload(pdu, sender, 9)
    sim.run_until(ms(3))
    receiver.check(payload)                  # valid: re-arms
    sim.run_until(ms(6))
    assert receiver.counts[E2E_TIMEOUT] == 0
    receiver.check(payload ^ 1)              # corrupt: must NOT re-arm
    sim.run_until(ms(9))
    assert receiver.counts[E2E_TIMEOUT] == 1


def protected_com_pair():
    sim = Simulator()
    trace = Trace()
    bus = CanBus(sim, 500_000, trace=trace)
    profile = E2eProfile(0x2A5A, timeout=ms(25))
    tx = ComStack(sim, CanComAdapter(
        bus.attach("A"), {"P": CanFrameSpec("P", 0x100)}), "A",
        trace=trace)
    rx = ComStack(sim, CanComAdapter(bus.attach("B"), {}), "B",
                  trace=trace)
    tx.add_tx_pdu(e2e_protected_pdu("P", 8, [SignalSpec("speed", 16)],
                                    profile),
                  mode=PERIODIC, period=ms(10))
    rx.add_rx_pdu(e2e_protected_pdu("P", 8, [SignalSpec("speed", 16)],
                                    profile))
    receiver = protect_link(tx, rx, "P", profile)
    return sim, trace, tx, rx, receiver


def test_corruption_is_contained_from_the_application():
    sim, trace, tx, rx, receiver = protected_com_pair()
    tx.write_signal("speed", 7)
    delivered = []
    rx.on_signal("speed", lambda v: delivered.append(v))
    injector = FaultInjector(sim)
    injector.inject(ComSignalAdapter(rx, "speed"),
                    Fault(CORRUPTION, "speed", start=ms(35),
                          duration=ms(30), params={"value": 0xFFFF}))
    sim.run_until(ms(100))
    # Zero corrupted deliveries reached the application.
    assert delivered and all(v == 7 for v in delivered)
    assert rx.read_signal("speed") == 7
    assert receiver.counts[E2E_CRC_ERROR] == 3  # rx at 40, 50, 60 ms
    assert trace.records("com.rx_blocked", "P")


def test_corruption_detected_within_timeout_budget():
    sim, trace, tx, rx, receiver = protected_com_pair()
    tx.write_signal("speed", 7)
    injector = FaultInjector(sim)
    onset = ms(35)
    injector.inject(ComSignalAdapter(rx, "speed"),
                    Fault(CORRUPTION, "speed", start=onset,
                          duration=ms(30), params={"value": 0xFFFF}))
    sim.run_until(ms(100))
    first_error = min(r.time for r in trace.records("e2e.crc_error"))
    assert onset <= first_error <= onset + ms(25)  # the timeout budget


def test_omission_detected_by_timeout_within_budget():
    sim, trace, tx, rx, receiver = protected_com_pair()
    tx.write_signal("speed", 7)
    injector = FaultInjector(sim)
    onset = ms(35)
    injector.inject(ComSignalAdapter(rx, "speed"),
                    Fault(OMISSION, "speed", start=onset,
                          duration=ms(40)))
    sim.run_until(ms(120))
    first_timeout = min(r.time for r in trace.records("e2e.timeout"))
    assert onset <= first_timeout <= onset + ms(25)
    # Reception resumes after the window: resync then OK again.
    assert receiver.counts[E2E_WRONG_SEQUENCE] == 1
    assert receiver.state == E2E_OK


def test_signal_substitution_masks_and_clears():
    sim, trace, tx, rx, receiver = protected_com_pair()
    tx.write_signal("speed", 88)
    sim.run_until(ms(15))
    assert rx.read_signal("speed") == 88
    rx.substitute_signal("speed", 30)
    assert rx.read_signal("speed") == 30
    assert rx.substituted_signals() == ["speed"]
    # Live data keeps flowing underneath and returns on clear.
    tx.write_signal("speed", 90)
    sim.run_until(ms(30))
    assert rx.read_signal("speed") == 30
    rx.clear_substitution("speed")
    assert rx.read_signal("speed") == 90
    assert rx.substituted_signals() == []


def test_double_protection_rejected():
    sim, trace, tx, rx, receiver = protected_com_pair()
    profile = E2eProfile(0x2A5A)
    with pytest.raises(ConfigurationError):
        protect_link(tx, rx, "P", profile)


def test_unfaulted_protected_link_stays_clean():
    sim, trace, tx, rx, receiver = protected_com_pair()
    tx.write_signal("speed", 3)
    sim.run_until(ms(200))
    assert receiver.error_count == 0
    assert receiver.counts[E2E_OK] >= 19
