"""Tests for fault injection adapters and containment monitors."""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.faults import (BABBLING, CRASH, CanNodeAdapter, ComSignalAdapter,
                          CORRUPTION, Fault, FaultInjector, IpCoreAdapter,
                          OMISSION, TaskAdapter, TIMING_OVERRUN,
                          TtpNodeAdapter, containment_violations, judge)
from repro.faults.model import DELAY
from repro.com import (CanComAdapter, ComStack, PERIODIC, SignalSpec,
                       pack_sequentially)
from repro.network import CanBus, CanFrameSpec, TtpCluster
from repro.network.guardian import SlotGuardian
from repro.noc import MeshTopology, Mpsoc, TdmaNoc
from repro.osek import EcuKernel, FixedPriorityScheduler, TaskSpec
from repro.sim import Simulator, Trace
from repro.units import ms, us


def test_fault_model_validation():
    with pytest.raises(ConfigurationError):
        Fault("bogus", "t", 0)
    with pytest.raises(ConfigurationError):
        Fault(CRASH, "t", -1)
    with pytest.raises(ConfigurationError):
        Fault(CRASH, "t", 0, duration=0)
    fault = Fault(CRASH, "t", ms(1), duration=ms(2))
    assert fault.end == ms(3)
    assert Fault(CRASH, "t", 0).end is None


def test_adapter_kind_check():
    sim = Simulator()
    cluster = TtpCluster(sim, ["a", "b"], us(100))
    adapter = TtpNodeAdapter(cluster.node("a"))
    injector = FaultInjector(sim)
    with pytest.raises(ConfigurationError):
        injector.inject(adapter, Fault(TIMING_OVERRUN, "a", 0))


def test_ttp_crash_fault_window():
    sim = Simulator()
    cluster = TtpCluster(sim, ["a", "b", "c"], us(100))
    injector = FaultInjector(sim, cluster.trace)
    adapter = TtpNodeAdapter(cluster.node("b"))
    fault = Fault(CRASH, "b", start=us(600), duration=us(600))
    injector.inject(adapter, fault)
    cluster.start()
    sim.run_until(us(2400))
    # Dropped during the fault, rejoined after.
    assert len(cluster.trace.records("ttp.membership_drop", "b")) == 1
    assert len(cluster.trace.records("ttp.membership_join", "b")) == 1
    assert cluster.membership == {"a", "b", "c"}
    assert len(injector.trace.records("fault.activate")) == 1
    assert len(injector.trace.records("fault.deactivate")) == 1


def test_task_timing_overrun_adapter():
    sim = Simulator()
    kernel = EcuKernel(sim, FixedPriorityScheduler())
    task = kernel.add_task(TaskSpec("T", wcet=ms(1), period=ms(10),
                                    budget=ms(2)))
    injector = FaultInjector(sim, kernel.trace)
    adapter = TaskAdapter(kernel, task)
    injector.inject(adapter, Fault(TIMING_OVERRUN, "T", start=ms(15),
                                   duration=ms(10),
                                   params={"factor": 5.0}))
    sim.run_until(ms(40))
    # Job at t=20 overran (5 ms demand vs 2 ms budget) and was killed;
    # jobs before and after behave.
    assert len(kernel.trace.records("task.budget_overrun", "T")) == 1
    assert task.jobs_completed == 3  # t=0, 10, 30


def test_task_crash_adapter_suppresses_activations():
    sim = Simulator()
    kernel = EcuKernel(sim, FixedPriorityScheduler())
    task = kernel.add_task(TaskSpec("T", wcet=ms(1), period=ms(10)))
    injector = FaultInjector(sim)
    adapter = TaskAdapter(kernel, task)
    injector.inject(adapter, Fault(CRASH, "T", start=ms(15),
                                   duration=ms(20)))
    sim.run_until(ms(59))
    # Activations at 0,10 ran; 20,30 lost; 40,50 ran again.
    assert task.jobs_completed == 4
    assert task.activations_lost == 2


def test_can_babbling_adapter_starves_low_priority():
    sim = Simulator()
    bus = CanBus(sim, 500_000)
    victim_ctrl = bus.attach("victim")
    idiot_ctrl = bus.attach("idiot")
    bus.attach("rx")
    victim_spec = CanFrameSpec("V", 0x200, dlc=8, period=ms(5))

    def periodic():
        victim_ctrl.send(victim_spec)
        sim.schedule(ms(5), periodic)

    periodic()
    injector = FaultInjector(sim, bus.trace)
    adapter = CanNodeAdapter(sim, idiot_ctrl, flood_period=us(100))
    injector.inject(adapter, Fault(BABBLING, "idiot", start=ms(20),
                                   duration=ms(20)))
    sim.run_until(ms(60))
    records = bus.trace.records("can.rx", "V")
    before = [r.data["latency"] for r in records if r.time < ms(20)]
    # Frames queued during the flood drain only after it ends at 40 ms.
    affected = [r.data["latency"] for r in records
                if ms(20) <= r.time < ms(46)]
    assert before and affected
    assert max(affected) > 10 * max(before)


def babble(guardian):
    """A babbler flooding every 500 us from 2 ms to 5 ms (six attempts)
    on an otherwise idle 500 kbit/s bus; returns the bus trace."""
    sim = Simulator()
    bus = CanBus(sim, 500_000)
    idiot_ctrl = bus.attach("idiot")
    bus.attach("rx")
    adapter = CanNodeAdapter(sim, idiot_ctrl, flood_period=us(500),
                             guardian=guardian)
    FaultInjector(sim, bus.trace).inject(
        adapter, Fault(BABBLING, "idiot", start=ms(2), duration=ms(3)))
    sim.run_until(ms(8))
    return bus.trace


def test_guarded_can_babbler_is_blocked_outside_its_window():
    # Window: the first 400 us of every 1 ms, so the attempts at phase
    # 0 pass and those at phase 500 us are blocked.
    guardian = SlotGuardian("idiot", [(0, us(400))], period=ms(1))
    trace = babble(guardian)
    blocked = trace.records("guardian.blocked", "idiot")
    assert [r.time for r in blocked] == [ms(2.5), ms(3.5), ms(4.5)]
    assert {r.data["frame"] for r in blocked} == {"babble.idiot"}
    assert guardian.blocked_count == len(blocked)
    sent = trace.records("can.enqueue", "babble.idiot")
    assert [r.time for r in sent] == [ms(2), ms(3), ms(4)]
    assert {r.data["can_id"] for r in sent} == {0}
    on_bus = trace.records("can.tx_start", "babble.idiot")
    assert on_bus and all(guardian.in_window(r.time) for r in on_bus)


def test_unguarded_can_babbler_enqueues_every_attempt():
    trace = babble(None)
    assert trace.records("guardian.blocked") == []
    assert [r.time for r in trace.records("can.enqueue", "babble.idiot")] \
        == [ms(2) + k * us(500) for k in range(6)]


def test_ip_core_babbling_adapter():
    sim = Simulator()
    noc = TdmaNoc(sim, MeshTopology(2, 2), slot_length=us(1))
    mpsoc = Mpsoc(sim, noc)
    mpsoc.start()
    injector = FaultInjector(sim, noc.trace)
    adapter = IpCoreAdapter(mpsoc.cores[2], mpsoc.cores[1],
                            interval=us(1))
    injector.inject(adapter, Fault(BABBLING, "core2", start=0,
                                   duration=us(50)))
    sim.run_until(ms(1))
    assert mpsoc.cores[2].sent > 0
    # Flood stopped on revert: no rx from core2 long after the window.
    late = [r for r in noc.trace.records("noc.rx_tt", "core2->core1")
            if r.time > us(200)]
    assert late == []


def com_pair(*signals):
    """A sends PDU P, carrying 16-bit ``signals`` (default: speed),
    every 10 ms over CAN to B."""
    names = signals or ("speed",)

    def pdu():
        return pack_sequentially("P", 8, [SignalSpec(n, 16) for n in names])

    sim = Simulator()
    bus = CanBus(sim, 500_000)
    tx = ComStack(sim, CanComAdapter(
        bus.attach("A"), {"P": CanFrameSpec("P", 0x100)}), "A")
    rx = ComStack(sim, CanComAdapter(bus.attach("B"), {}), "B")
    tx.add_tx_pdu(pdu(), mode=PERIODIC, period=ms(10))
    rx.add_rx_pdu(pdu())
    return sim, tx, rx


def test_com_omission_fault_drops_pdus():
    sim, tx, rx = com_pair()
    tx.write_signal("speed", 7)
    injector = FaultInjector(sim)
    adapter = ComSignalAdapter(rx, "speed")
    injector.inject(adapter, Fault(OMISSION, "speed", start=ms(15),
                                   duration=ms(20)))
    got = []
    rx.on_signal("speed", lambda v: got.append(sim.now))
    sim.run_until(ms(59))
    # Receptions ~10, (15-35 dropped), 40, 50.
    assert len(got) == 3


def test_com_corruption_fault_overwrites_value():
    sim, tx, rx = com_pair()
    tx.write_signal("speed", 7)
    injector = FaultInjector(sim)
    adapter = ComSignalAdapter(rx, "speed")
    injector.inject(adapter, Fault(CORRUPTION, "speed", start=ms(15),
                                   params={"value": 0xFFFF}))
    sim.run_until(ms(25))
    assert rx.read_signal("speed") == 0xFFFF


def arrivals_and_deliveries(rx, pdu="P"):
    """When the bus handed ``pdu`` to ``rx`` and when COM accepted it."""
    bus = rx.adapter.controller.bus
    return ([r.time for r in bus.trace.records("can.rx", pdu)],
            [r.time for r in rx.trace.records("com.rx", pdu)])


def test_com_delay_fault_redelivers_each_pdu_once_after_the_delay():
    sim, tx, rx = com_pair()
    tx.write_signal("speed", 7)
    adapter = ComSignalAdapter(rx, "speed")
    FaultInjector(sim).inject(adapter, Fault(
        DELAY, "speed", start=ms(15), duration=ms(30),
        params={"delay": ms(3)}))
    sim.run_until(ms(70))
    arrivals, deliveries = arrivals_and_deliveries(rx)
    # A copy that ran through the filter again would be withheld again
    # and never delivered inside the window.
    assert deliveries == [t + ms(3) if ms(15) <= t < ms(45) else t
                          for t in arrivals]
    assert len(arrivals) == 6
    assert rx.read_signal("speed") == 7


def test_com_delay_stacks_with_omission_and_reverts_out_of_order():
    sim, tx, rx = com_pair("speed", "rpm")
    tx.write_signal("speed", 7)
    tx.write_signal("rpm", 900)
    injector = FaultInjector(sim)
    # Both interposers match P.  The delay is installed first, so it
    # withholds P before the omission sees it, and its copy skips every
    # filter: P still arrives, late, while the omission is active.  The
    # omission was installed second and its window closes first.
    injector.inject(ComSignalAdapter(rx, "speed"), Fault(
        DELAY, "speed", start=ms(15), duration=ms(40),
        params={"delay": ms(3)}))
    injector.inject(ComSignalAdapter(rx, "rpm"),
                    Fault(OMISSION, "rpm", start=ms(15), duration=ms(20)))
    sim.run_until(ms(80))
    arrivals, deliveries = arrivals_and_deliveries(rx)
    assert deliveries == [t + ms(3) if ms(15) <= t < ms(55) else t
                          for t in arrivals]
    assert len(arrivals) == 7
    assert len(rx._rx_filters) == 2
    assert (rx.read_signal("speed"), rx.read_signal("rpm")) == (7, 900)


def test_containment_violations_region_matching():
    trace = Trace()
    trace.log(10, "task.deadline_miss", "N2.task")
    trace.log(20, "task.deadline_miss", "N3")
    trace.log(5, "com.timeout", "N3")  # before `since`
    violations = containment_violations(trace, {"N2"}, since=8)
    assert [v.subject for v in violations] == ["N3"]


def judged_world(trace, confirmed=(), history=((0, "nominal"),)):
    """A hand-built world that has run: its trace and a recovery stack
    reduced to what the judge reads."""
    errors = SimpleNamespace(confirmed_events=lambda: list(confirmed))
    modes = SimpleNamespace(current=history[-1][1], history=list(history))
    return SimpleNamespace(trace=trace, errors=errors, modes=modes)


def test_judge_detection_tie_goes_to_the_first_listed_category():
    trace = Trace()
    trace.log(50, "wdg.violation", "producer")
    trace.log(50, "e2e.timeout", "speed")
    world = judged_world(trace)
    for categories in (("e2e.timeout", "wdg.violation"),
                       ("wdg.violation", "e2e.timeout")):
        detection, __, __, __ = judge(world, categories, {"speed"}, 10,
                                      100, "nominal")
        assert detection.category == categories[0]


def test_judge_ignores_records_before_the_onset():
    trace = Trace()
    trace.log(5, "e2e.crc_error", "speed")
    trace.log(5, "com.timeout", "victim")
    trace.log(30, "e2e.crc_error", "speed")
    trace.log(40, "com.timeout", "victim")
    trace.log(45, "com.timeout", "speed")  # inside the region
    world = judged_world(trace)
    detection, escaped, __, __ = judge(world, ("e2e.crc_error",),
                                       {"speed"}, 10, 100, "nominal")
    assert detection.time == 30
    assert [(r.time, r.subject) for r in escaped] == [(40, "victim")]
    detection, escaped, __, __ = judge(world, ("e2e.crc_error",),
                                       {"speed"}, 50, 100, "nominal")
    assert detection is None and escaped == []


def test_judge_permanent_fault_never_recovers():
    trace = Trace()
    trace.log(200, "dem.healed", "speed_e2e")
    assert judge(judged_world(trace), (), set(), 10, None,
                 "nominal")[2:] == (False, None)


def test_judge_confirmed_event_or_degraded_mode_is_not_recovered():
    trace = Trace()
    trace.log(200, "dem.healed", "speed_e2e")
    confirmed = judged_world(trace, confirmed=["producer_alive"])
    degraded = judged_world(trace, history=((0, "nominal"), (50, "limp")))
    for world in (confirmed, degraded):
        assert judge(world, (), set(), 10, 100,
                     "nominal")[2:] == (False, None)


def test_judge_recovery_time_is_the_latest_evidence_after_the_end():
    trace = Trace()
    trace.log(90, "dem.healed", "speed_e2e")  # before the window closed
    trace.log(120, "dem.healed", "speed_e2e")
    trace.log(150, "recovery.deescalate", "speed_e2e")
    limp = ((0, "nominal"), (40, "limp"))
    for back, latest in ((140, 150), (170, 170)):
        world = judged_world(trace, history=limp + ((back, "nominal"),))
        assert judge(world, (), set(), 10, 100,
                     "nominal")[2:] == (True, latest)
    # Evidence before the end does not count.
    early = Trace()
    early.log(90, "dem.healed", "speed_e2e")
    world = judged_world(early, history=limp + ((95, "nominal"),))
    assert judge(world, (), set(), 10, 100, "nominal")[2:] == (True, None)


def test_judge_world_without_recovery_stack_recovers_untimed():
    trace = Trace()
    trace.log(40, "com.timeout", "victim")
    world = SimpleNamespace(trace=trace, errors=None, modes=None)
    detection, escaped, recovered, recovery_time = judge(
        world, ("com.timeout",), {"victim"}, 10, 100, "nominal")
    assert detection.time == 40 and escaped == []
    assert recovered and recovery_time is None


def test_com_adapters_stack_and_revert_out_of_order():
    sim, tx, rx = com_pair("speed", "rpm")
    tx.write_signal("speed", 7)
    tx.write_signal("rpm", 900)
    injector = FaultInjector(sim)
    # Two interposers on the same stack; the speed window closes first
    # even though it was installed second (out-of-order revert).
    injector.inject(ComSignalAdapter(rx, "rpm"),
                    Fault(CORRUPTION, "rpm", start=ms(15),
                          duration=ms(40), params={"value": 0xBEEF}))
    injector.inject(ComSignalAdapter(rx, "speed"),
                    Fault(CORRUPTION, "speed", start=ms(15),
                          duration=ms(20), params={"value": 0xDEAD}))
    sim.run_until(ms(25))
    assert rx.read_signal("speed") == 0xDEAD  # both active
    assert rx.read_signal("rpm") == 0xBEEF
    sim.run_until(ms(45))
    assert rx.read_signal("speed") == 7       # speed reverted...
    assert rx.read_signal("rpm") == 0xBEEF    # ...rpm still faulty
    sim.run_until(ms(65))
    assert rx.read_signal("speed") == 7       # both clean again
    assert rx.read_signal("rpm") == 900


def test_com_adapter_install_is_idempotent():
    sim, tx, rx = com_pair()
    tx.write_signal("speed", 7)
    adapter = ComSignalAdapter(rx, "speed")
    injector = FaultInjector(sim)
    # Back-to-back windows through the same adapter: the second apply
    # must not install a second interposer (the old capture-the-callback
    # scheme double-wrapped the rx path here).
    injector.inject(adapter, Fault(OMISSION, "speed", start=ms(15),
                                   duration=ms(10)))
    injector.inject(adapter, Fault(OMISSION, "speed", start=ms(35),
                                   duration=ms(10)))
    sim.run_until(ms(60))
    assert len(rx._rx_filters) == 1
    assert rx.read_signal("speed") == 7  # passive filter passes through
    adapter.uninstall()
    assert rx._rx_filters == []


def test_inject_rejects_invalid_windows():
    sim = Simulator()
    injector = FaultInjector(sim)
    kernel = EcuKernel(sim, FixedPriorityScheduler())
    task = kernel.add_task(TaskSpec("U", wcet=ms(1), period=ms(10)))
    adapter = TaskAdapter(kernel, task)
    with pytest.raises(ConfigurationError):
        injector.inject(adapter, Fault(CRASH, "U", start=ms(10),
                                       duration=0))
    with pytest.raises(ConfigurationError):
        injector.inject(adapter, Fault(CRASH, "U", start=ms(10),
                                       duration=-ms(5)))
    sim.run_until(ms(50))
    with pytest.raises(ConfigurationError):  # window entirely in the past
        injector.inject(adapter, Fault(CRASH, "U", start=ms(10),
                                       duration=ms(20)))
    assert injector.faults == []


def test_overlapping_task_faults_revert_out_of_order():
    sim = Simulator()
    kernel = EcuKernel(sim, FixedPriorityScheduler())
    task = kernel.add_task(TaskSpec("T", wcet=ms(1), period=ms(10),
                                    budget=ms(2)))
    healthy_execution_time = task.execution_time
    healthy_max_activations = task.spec.max_activations
    injector = FaultInjector(sim, kernel.trace)
    adapter = TaskAdapter(kernel, task)
    # Overrun window [15, 55) wraps crash window [25, 40): the crash
    # reverts while the overrun is still active.
    injector.inject(adapter, Fault(TIMING_OVERRUN, "T", start=ms(15),
                                   duration=ms(40),
                                   params={"factor": 5.0}))
    injector.inject(adapter, Fault(CRASH, "T", start=ms(25),
                                   duration=ms(15)))
    sim.run_until(ms(45))
    # Crash reverted mid-overrun: activations resume, overrun persists.
    assert task.spec.max_activations == healthy_max_activations
    assert task.execution_time is not healthy_execution_time
    sim.run_until(ms(80))
    # Both windows closed: the healthy behaviour is fully restored.
    assert task.execution_time is healthy_execution_time
    assert task.spec.max_activations == healthy_max_activations
    assert len(kernel.trace.records("task.budget_overrun", "T")) > 0
    assert task.jobs_completed > 0
