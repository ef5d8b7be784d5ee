"""Signal-to-frame packing optimization.

Packing decides which signals share a frame.  It trades bus bandwidth
(fewer frames amortize the per-frame overhead) against latency (a packed
frame must be sent at the period of its fastest signal).  The classic
heuristic — used here and by the consolidation DSE — groups signals by
period and first-fit-decreasing packs each group.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.com.ipdu import IPdu, SignalMapping
from repro.com.signal import SignalSpec


@dataclass(frozen=True)
class PackableSignal:
    """A signal awaiting frame assignment: spec + period + source node."""

    spec: SignalSpec
    period: int
    sender: str

    def __post_init__(self):
        if self.period <= 0:
            raise ConfigurationError(
                f"signal {self.spec.name}: period must be > 0")


@dataclass
class PackedFrame:
    """Result of packing: an I-PDU plus its transmission period/sender."""

    ipdu: IPdu
    period: int
    sender: str


def pack_signals(signals: list[PackableSignal],
                 frame_bytes: int = 8) -> list[PackedFrame]:
    """First-fit-decreasing packing, grouped by (sender, period).

    Signals from different nodes never share a frame (one sender per
    frame); signals with different periods never share a frame, so no
    signal is transmitted faster than needed.
    """
    if frame_bytes <= 0:
        raise ConfigurationError("frame_bytes must be > 0")
    capacity = frame_bytes * 8
    groups: dict[tuple[str, int], list[PackableSignal]] = {}
    for signal in signals:
        if signal.spec.width_bits > capacity:
            raise ConfigurationError(
                f"signal {signal.spec.name} ({signal.spec.width_bits}b) "
                f"cannot fit a {frame_bytes}-byte frame")
        groups.setdefault((signal.sender, signal.period), []).append(signal)

    frames: list[PackedFrame] = []
    for (sender, period), members in sorted(
            groups.items(), key=lambda item: (item[0][0], item[0][1])):
        members = sorted(members, key=lambda s: -s.spec.width_bits)
        bins: list[list[PackableSignal]] = []
        fill: list[int] = []
        for signal in members:
            placed = False
            for index, used in enumerate(fill):
                if used + signal.spec.width_bits <= capacity:
                    bins[index].append(signal)
                    fill[index] += signal.spec.width_bits
                    placed = True
                    break
            if not placed:
                bins.append([signal])
                fill.append(signal.spec.width_bits)
        for index, bin_signals in enumerate(bins):
            pdu = IPdu(f"PDU_{sender}_{period}_{index}", frame_bytes)
            bit = 0
            for signal in bin_signals:
                pdu.add(SignalMapping(signal.spec, bit))
                bit += signal.spec.width_bits
            frames.append(PackedFrame(pdu, period, sender))
    return frames


def packing_bandwidth_bps(frames: list[PackedFrame],
                          overhead_bits_per_frame: int = 47 + 24) -> float:
    """Bus bandwidth the packed set consumes (bits/second).

    Default overhead approximates a worst-case stuffed CAN frame header
    plus stuffing on an 8-byte body minus the body itself; callers doing
    precise CAN math should use :func:`repro.network.can.frame_bits`.
    """
    total = 0.0
    for frame in frames:
        bits = frame.ipdu.size_bytes * 8 + overhead_bits_per_frame
        total += bits * (1e9 / frame.period)
    return total


def unpacked_bandwidth_bps(signals: list[PackableSignal],
                           overhead_bits_per_frame: int = 47 + 24) -> float:
    """Bandwidth if every signal travelled in its own frame — the baseline
    the packing heuristic is measured against."""
    total = 0.0
    for signal in signals:
        bits = signal.spec.width_bits + overhead_bits_per_frame
        total += bits * (1e9 / signal.period)
    return total
