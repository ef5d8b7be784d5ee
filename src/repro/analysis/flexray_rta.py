"""FlexRay latency bounds.

Static segment: a frame in slot ``s`` with cycle multiplexing
``(base_cycle, repetition)`` is delivered at the end of its slot, once per
``repetition`` cycles.  A value written at the worst instant (just after
its buffer was sampled into the slot) waits almost one full repetition
period plus the slot position:

    R_max = repetition * cycle_length + s * slot_length

The bound is *load-independent* — the quantitative form of the paper's
"sub-channels free of temporal interference" claim; the benchmark for E4
cross-checks it against simulation.

Dynamic segment: a conservative bound counting the minislot consumption of
all lower-ID frames that may precede a frame in each cycle.
"""

from __future__ import annotations

from repro.errors import AnalysisError
from repro.network.flexray import (DynamicFrameSpec, FlexRayConfig,
                                   StaticSlotAssignment)


def static_latency_bound(config: FlexRayConfig,
                         assignment: StaticSlotAssignment) -> int:
    """Worst-case write-to-reception latency for a static frame."""
    if not 1 <= assignment.slot <= config.n_static_slots:
        raise AnalysisError(
            f"slot {assignment.slot} outside the static segment")
    wait = assignment.repetition * config.cycle_length
    return wait + assignment.slot * config.slot_length


def static_latency_best_case(config: FlexRayConfig,
                             assignment: StaticSlotAssignment) -> int:
    """Best case: written just before its slot transmits."""
    return config.slot_length


def minislots_needed(frame: DynamicFrameSpec, config: FlexRayConfig) -> int:
    """Minislots one dynamic frame consumes: the simulator's own
    :meth:`FlexRayConfig.minislots_for`, so bound and simulation count
    alike."""
    if config.n_minislots <= 0:
        raise AnalysisError("configuration has no dynamic segment")
    return config.minislots_for(frame.size_bytes)


def dynamic_latency_bound(frame: DynamicFrameSpec,
                          competitors: list[DynamicFrameSpec],
                          config: FlexRayConfig) -> int:
    """Conservative bound for a dynamic frame.

    Per cycle, all lower-ID competitors may transmit first; the frame goes
    out in the first cycle whose remaining minislots fit it.  Raises when
    even an empty cycle cannot fit the frame, and when a lower-ID
    competitor cannot fit one: that competitor never transmits, and the
    segment is arbitrated in ID order, so nothing behind it does either.
    """
    own = minislots_needed(frame, config)
    if own > config.n_minislots:
        raise AnalysisError(
            f"frame {frame.name} needs {own} minislots; the dynamic "
            f"segment only has {config.n_minislots}")
    ahead = 0
    for other in competitors:
        if other.frame_id < frame.frame_id:
            need = minislots_needed(other, config)
            if need > config.n_minislots:
                raise AnalysisError(
                    f"frame {frame.name}: no bound (lower-ID frame "
                    f"{other.name} needs {need} minislots; the dynamic "
                    f"segment only has {config.n_minislots})")
            ahead += need
    # Cycles fully consumed by higher-priority traffic before room appears.
    cycles_waited = 0
    remaining_ahead = ahead
    while remaining_ahead + own > config.n_minislots:
        consumed = min(remaining_ahead, config.n_minislots)
        remaining_ahead -= consumed
        cycles_waited += 1
        if cycles_waited > len(competitors) + 1:
            raise AnalysisError(
                f"frame {frame.name}: no bound (higher-priority demand "
                f"exceeds the dynamic segment every cycle)")
    offset_in_cycle = (config.static_segment_length
                       + (remaining_ahead + own) * config.minislot_length)
    # Worst case: enqueued just after this cycle's dynamic arbitration.
    return (cycles_waited + 1) * config.cycle_length + offset_in_cycle
