"""Tests for FlexRay bounds, TDMA/server supply functions, and TT
schedule synthesis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError, SchedulingError
from repro.analysis.flexray_rta import (dynamic_latency_bound,
                                        minislots_needed,
                                        static_latency_bound)
from repro.analysis.tdma_bound import (periodic_server_supply,
                                       response_bound,
                                       server_response_bound, tdma_supply,
                                       tdma_response_bound)
from repro.analysis.ttschedule import (TtEntry, TtPlacement, TtSchedule,
                                       build_schedule, conflict_free)
from repro.network.flexray import (DynamicFrameSpec, FlexRayConfig,
                                   StaticSlotAssignment)
from repro.osek import (EcuKernel, TaskSpec, TdmaScheduler, Window)
from repro.sim import Simulator
from repro.units import ms, us


# ----------------------------------------------------------------------
# FlexRay bounds
# ----------------------------------------------------------------------
def flexray_config():
    return FlexRayConfig(slot_length=us(100), n_static_slots=4,
                         minislot_length=us(10), n_minislots=20)


def test_static_bound_formula():
    config = flexray_config()
    assignment = StaticSlotAssignment(2, "N", "F")
    assert static_latency_bound(config, assignment) == \
        config.cycle_length + 2 * us(100)


def test_static_bound_scales_with_repetition():
    config = flexray_config()
    every_other = StaticSlotAssignment(1, "N", "F", base_cycle=0,
                                       repetition=2)
    assert static_latency_bound(config, every_other) == \
        2 * config.cycle_length + us(100)


def test_static_best_case_is_one_slot():
    from repro.analysis.flexray_rta import static_latency_best_case
    config = flexray_config()
    assignment = StaticSlotAssignment(2, "N", "F")
    best = static_latency_best_case(config, assignment)
    assert best == config.slot_length
    assert best < static_latency_bound(config, assignment)


def test_static_bound_slot_range_checked():
    with pytest.raises(AnalysisError):
        static_latency_bound(flexray_config(),
                             StaticSlotAssignment(9, "N", "F"))


def test_static_bound_holds_in_simulation():
    """Write at adversarial times; observed latency never exceeds the
    bound."""
    from repro.network import FlexRayBus
    config = flexray_config()
    sim = Simulator()
    bus = FlexRayBus(sim, config)
    tx = bus.attach("N")
    bus.attach("peer")
    assignment = StaticSlotAssignment(2, "N", "F")
    bus.assign_slot(assignment)
    bus.start()

    # Write just after the slot samples: worst phase.
    def write():
        tx.send_static(2, payload="x")
        sim.schedule(us(201), write)  # drifts over all phases

    write()
    sim.run_until(ms(20))
    bound = static_latency_bound(config, assignment)
    lats = bus.latencies("F")
    assert lats and max(lats) <= bound


def test_minislots_needed():
    config = flexray_config()
    # 8B -> (64+80)*100ns = 14.4us -> 2 minislots of 10us.
    assert minislots_needed(DynamicFrameSpec("D", 1, 8), config) == 2


def test_dynamic_bound_single_frame():
    config = flexray_config()
    frame = DynamicFrameSpec("D", 5, 8)
    bound = dynamic_latency_bound(frame, [frame], config)
    assert bound == config.cycle_length + \
        config.static_segment_length + 2 * us(10)


def test_dynamic_bound_with_competitors():
    config = flexray_config()
    target = DynamicFrameSpec("D", 10, 8)
    competitors = [DynamicFrameSpec(f"C{i}", i, 8) for i in range(1, 5)]
    bound = dynamic_latency_bound(target, competitors + [target], config)
    solo = dynamic_latency_bound(target, [target], config)
    assert bound > solo


def test_dynamic_bound_oversized_frame_rejected():
    config = FlexRayConfig(slot_length=us(100), n_static_slots=2,
                           minislot_length=us(10), n_minislots=2)
    big = DynamicFrameSpec("BIG", 1, 200)
    with pytest.raises(AnalysisError):
        dynamic_latency_bound(big, [big], config)


def test_dynamic_bound_declined_behind_an_oversized_lower_id_frame():
    """A lower-ID frame that never fits the segment blocks every frame
    behind it (the segment is arbitrated in ID order), so the small
    frame has no bound; a higher-ID oversized frame blocks nothing."""
    config = FlexRayConfig(slot_length=us(100), n_static_slots=2,
                           minislot_length=us(10), n_minislots=12)
    big = DynamicFrameSpec("BIG", 1, 254)        # 22 minislots
    small = DynamicFrameSpec("SMALL", 2, 4)      # 2 minislots
    with pytest.raises(AnalysisError, match="lower-ID frame BIG"):
        dynamic_latency_bound(small, [big, small], config)
    late_big = DynamicFrameSpec("BIG", 3, 254)
    assert dynamic_latency_bound(small, [late_big, small], config) \
        == config.cycle_length + config.static_segment_length + us(20)


# ----------------------------------------------------------------------
# Supply bound functions
# ----------------------------------------------------------------------
def test_tdma_supply_within_and_across_windows():
    sched = TdmaScheduler([Window(0, ms(2), "A"), Window(ms(5), ms(3), "B")],
                          major_frame=ms(10))
    sbf_a = tdma_supply(sched, "A")
    assert sbf_a(0) == 0
    # Worst phase: interval starts right at A's window end.
    assert sbf_a(ms(8)) == 0
    assert sbf_a(ms(10)) == ms(2)
    assert sbf_a(ms(20)) == ms(4)


def test_tdma_response_bound_vs_simulation():
    sched = TdmaScheduler([Window(0, ms(2), "A"), Window(ms(5), ms(3), "B")],
                          major_frame=ms(10))
    demand = ms(3)
    bound = tdma_response_bound(sched, "A", demand)
    # Simulate: single task in A with wcet 3ms, released at the worst
    # phase (right after its window closes, t=2ms).
    sim = Simulator()
    kernel = EcuKernel(sim, TdmaScheduler(
        [Window(0, ms(2), "A"), Window(ms(5), ms(3), "B")],
        major_frame=ms(10)))
    task = kernel.add_task(TaskSpec("T", wcet=demand, priority=1,
                                    deadline=ms(100), partition="A"))
    sim.schedule(ms(2), lambda: kernel.activate(task))
    sim.run_until(ms(100))
    observed = kernel.response_times("T")
    assert observed and observed[0] <= bound
    # The bound is tight for this adversarial release.
    assert observed[0] == bound


def test_unknown_partition_rejected():
    sched = TdmaScheduler([Window(0, ms(2), "A")], major_frame=ms(10))
    with pytest.raises(AnalysisError):
        tdma_supply(sched, "NOPE")
    with pytest.raises(AnalysisError):
        tdma_response_bound(sched, "NOPE", ms(1))


def test_periodic_server_supply_blackout():
    sbf = periodic_server_supply(budget=ms(2), period=ms(10))
    assert sbf(2 * ms(8)) == 0  # blackout = 2*(P-Q) = 16 ms
    assert sbf(ms(16) + ms(1)) == ms(1)
    assert sbf(ms(16) + ms(10) + ms(2)) == ms(2) + ms(2)


def test_server_response_bound_vs_simulation():
    from repro.osek import DeferrableServerScheduler, ServerSpec
    budget, period, demand = ms(2), ms(10), ms(5)
    bound = server_response_bound(budget, period, demand)
    sim = Simulator()
    sched = DeferrableServerScheduler(
        [ServerSpec("P", budget=budget, period=period, priority=5)])
    kernel = EcuKernel(sim, sched)
    task = kernel.add_task(TaskSpec("T", wcet=demand, priority=1,
                                    deadline=ms(1000), partition="P"))
    # Adversarial release: drain the budget first with an earlier job.
    warm = kernel.add_task(TaskSpec("W", wcet=ms(2), priority=2,
                                    deadline=ms(1000), partition="P"))
    kernel.activate(warm)
    sim.schedule(ms(2), lambda: kernel.activate(task))
    sim.run_until(ms(200))
    observed = kernel.response_times("T")
    assert observed and observed[0] <= bound


def test_response_bound_validation():
    sbf = periodic_server_supply(ms(2), ms(10))
    with pytest.raises(AnalysisError):
        response_bound(0, sbf, ms(100))
    with pytest.raises(AnalysisError):
        response_bound(ms(500), sbf, ms(100))  # horizon too small


# ----------------------------------------------------------------------
# TT schedule synthesis
# ----------------------------------------------------------------------
def test_conflict_free_condition():
    a = TtPlacement("a", 10, 2, 0)
    b = TtPlacement("b", 10, 2, 2)
    c = TtPlacement("c", 10, 2, 1)
    assert conflict_free(a, b)
    assert not conflict_free(a, c)


def test_conflict_free_different_periods():
    # gcd(10, 15) = 5: offsets must separate within the gcd window.
    a = TtPlacement("a", 10, 2, 0)
    b = TtPlacement("b", 15, 2, 2)
    assert conflict_free(a, b)
    bad = TtPlacement("bad", 15, 2, 1)
    assert not conflict_free(a, bad)


def test_build_schedule_places_all_and_verifies():
    entries = [TtEntry(f"m{i}", period=1000, duration=100)
               for i in range(8)]
    schedule = build_schedule(entries)
    assert len(schedule.placements) == 8
    schedule.verify()
    assert schedule.utilization() == pytest.approx(0.8)


def test_overfull_schedule_raises():
    entries = [TtEntry(f"m{i}", period=1000, duration=300)
               for i in range(4)]
    with pytest.raises(SchedulingError):
        build_schedule(entries)


def test_reserved_window_blocks_initial_placement_but_not_future():
    # Reserve [800, 1000) of every 1000 for the future.
    schedule = TtSchedule(reserved=(800, 200, 1000))
    for i in range(8):
        schedule.place(TtEntry(f"m{i}", 1000, 100))
    # Nothing fits while respecting the reservation...
    assert schedule.try_place(TtEntry("late", 1000, 150)) is None
    # ...but a future task may use the reserved window.
    placed = schedule.try_place(TtEntry("late", 1000, 150),
                                respect_reservation=False)
    assert placed is not None and placed.offset >= 800


def test_entry_validation():
    with pytest.raises(AnalysisError):
        TtEntry("x", period=0, duration=1)
    with pytest.raises(AnalysisError):
        TtEntry("x", period=10, duration=11)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([100, 200, 400]),
                          st.integers(min_value=5, max_value=40)),
                min_size=1, max_size=10))
def test_schedule_invariant_property(specs):
    """Whatever gets placed never overlaps (verify() is the oracle)."""
    entries = [TtEntry(f"e{i}", period=p, duration=d)
               for i, (p, d) in enumerate(specs)]
    schedule = TtSchedule()
    for entry in entries:
        schedule.try_place(entry)
    schedule.verify()
