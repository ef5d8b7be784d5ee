"""Unit tests for the ECU kernel with fixed-priority scheduling, and
its parity with the reference kernel (``osek_reference.py``) under
every scheduler."""

import pytest
from hypothesis import given, settings, strategies as st

from osek_reference import ReferenceEcuKernel
from repro.errors import SimulationError
from repro.osek import (Acquire, EcuKernel, Execute, FixedPriorityScheduler,
                        OsekResource, Release, TaskSpec, WaitEvent)
from repro.sim import Simulator
from repro.units import ms, us


def make_kernel(preemptive=True):
    sim = Simulator()
    kernel = EcuKernel(sim, FixedPriorityScheduler(preemptive=preemptive))
    return sim, kernel


def test_single_periodic_task_runs_every_period():
    sim, kernel = make_kernel()
    kernel.add_task(TaskSpec("T", wcet=ms(1), period=ms(10)))
    sim.run_until(ms(50))
    assert kernel.tasks["T"].jobs_completed == 5
    assert kernel.response_times("T") == [ms(1)] * 5


def test_job_numbers_belong_to_the_world_and_its_kernels():
    # Two kernels on one simulator share one job numbering, which starts
    # at 0 in every world, whatever ran earlier in the process.
    from repro.sim.trace import Trace

    def run():
        sim, trace = Simulator(), Trace()
        for ecu, task in (("E1", "A"), ("E2", "B")):
            kernel = EcuKernel(sim, FixedPriorityScheduler(), trace, ecu)
            kernel.add_task(TaskSpec(task, wcet=us(100), period=ms(1)))
        sim.run_until(ms(3))
        return trace.data_values("task.activate", "job")

    first = run()
    assert first == list(range(8))
    assert run() == first


def test_offset_delays_first_activation():
    sim, kernel = make_kernel()
    kernel.add_task(TaskSpec("T", wcet=ms(1), period=ms(10), offset=ms(3)))
    sim.run_until(ms(25))
    assert kernel.trace.times("task.activate", "T") == [ms(3), ms(13), ms(23)]


def test_high_priority_preempts_low():
    sim, kernel = make_kernel()
    kernel.add_task(TaskSpec("LO", wcet=ms(5), period=ms(20), priority=1))
    kernel.add_task(TaskSpec("HI", wcet=ms(1), period=ms(20), priority=2,
                             offset=ms(2)))
    sim.run_until(ms(20))
    # LO runs [0,2), is preempted, HI runs [2,3), LO finishes at 6.
    assert kernel.response_times("HI") == [ms(1)]
    assert kernel.response_times("LO") == [ms(6)]
    assert kernel.trace.times("task.preempt", "LO") == [ms(2)]
    assert kernel.trace.times("task.resume", "LO") == [ms(3)]


def test_non_preemptive_blocks_high_priority():
    sim, kernel = make_kernel(preemptive=False)
    kernel.add_task(TaskSpec("LO", wcet=ms(5), period=ms(20), priority=1))
    kernel.add_task(TaskSpec("HI", wcet=ms(1), period=ms(20), priority=2,
                             offset=ms(2)))
    sim.run_until(ms(20))
    # HI must wait for LO to finish at 5, completes at 6 -> response 4 ms.
    assert kernel.response_times("HI") == [ms(4)]
    assert kernel.deadline_misses() == 0
    assert kernel.trace.records("task.preempt") == []


def test_equal_priority_fifo():
    sim, kernel = make_kernel()
    kernel.add_task(TaskSpec("A", wcet=ms(2), period=ms(20), priority=1))
    kernel.add_task(TaskSpec("B", wcet=ms(2), period=ms(20), priority=1))
    sim.run_until(ms(10))
    assert kernel.trace.times("task.start", "A") == [0]
    assert kernel.trace.times("task.start", "B") == [ms(2)]


def test_deadline_miss_detected_at_deadline_instant():
    sim, kernel = make_kernel()
    # Utilization 1.5: the low-priority task must miss.
    kernel.add_task(TaskSpec("HI", wcet=ms(5), period=ms(10), priority=2))
    kernel.add_task(TaskSpec("LO", wcet=ms(10), period=ms(10), priority=1))
    sim.run_until(ms(30))
    assert kernel.deadline_misses("LO") >= 1
    assert kernel.deadline_misses("HI") == 0


def test_activation_limit_drops_extra_activations():
    sim, kernel = make_kernel()
    # Task can never finish before its next activation.
    kernel.add_task(TaskSpec("HOG", wcet=ms(25), period=ms(10), priority=1,
                             deadline=ms(100)))
    sim.run_until(ms(40))
    assert kernel.tasks["HOG"].activations_lost >= 2
    lost = kernel.trace.records("task.activation_lost", "HOG")
    assert len(lost) == kernel.tasks["HOG"].activations_lost


def test_sporadic_activation_via_activate():
    sim, kernel = make_kernel()
    task = kernel.add_task(TaskSpec("S", wcet=us(500), priority=3,
                                    deadline=ms(5)))
    sim.schedule(ms(7), lambda: kernel.activate(task))
    sim.run_until(ms(20))
    assert kernel.trace.times("task.complete", "S") == [ms(7) + us(500)]


def test_budget_overrun_kills_job():
    sim, kernel = make_kernel()
    kernel.add_task(TaskSpec("BAD", wcet=ms(4), period=ms(10), priority=1,
                             budget=ms(2)))
    sim.run_until(ms(10))
    task = kernel.tasks["BAD"]
    assert task.jobs_completed == 0
    overruns = kernel.trace.records("task.budget_overrun", "BAD")
    assert len(overruns) == 1
    assert overruns[0].time == ms(2)


def test_job_that_uses_exactly_its_budget_completes():
    """A job whose last Execute ends exactly at its budget never needs
    CPU beyond it, so it completes and is not killed."""
    sim, kernel = make_kernel()
    kernel.add_task(TaskSpec("T", wcet=1000, period=10000, budget=1000))
    sim.run_until(5000)
    assert kernel.trace.times("task.complete", "T") == [1000]
    assert kernel.trace.records("task.budget_overrun") == []


def test_budget_protects_lower_priority_task():
    """Timing protection bounds a runaway high-priority task's interference."""
    sim, kernel = make_kernel()
    kernel.add_task(TaskSpec("RUNAWAY", wcet=ms(9), period=ms(10), priority=2,
                             budget=ms(2)))
    kernel.add_task(TaskSpec("VICTIM", wcet=ms(3), period=ms(10), priority=1))
    sim.run_until(ms(50))
    assert kernel.deadline_misses("VICTIM") == 0
    assert max(kernel.response_times("VICTIM")) == ms(5)


def test_duplicate_task_name_rejected():
    sim, kernel = make_kernel()
    kernel.add_task(TaskSpec("T", wcet=1, period=100))
    with pytest.raises(SimulationError):
        kernel.add_task(TaskSpec("T", wcet=1, period=100))


def test_execution_time_sampler_used():
    sim, kernel = make_kernel()
    demands = iter([ms(1), ms(3), ms(2)])
    kernel.add_task(TaskSpec("V", wcet=ms(3), period=ms(10)),
                    execution_time=lambda: next(demands))
    sim.run_until(ms(30) - 1)
    assert kernel.response_times("V") == [ms(1), ms(3), ms(2)]


def test_on_start_and_on_complete_hooks():
    sim, kernel = make_kernel()
    calls = []
    kernel.add_task(TaskSpec("T", wcet=ms(1), period=ms(10)),
                    on_start=lambda job: calls.append(("start", sim.now)),
                    on_complete=lambda job: calls.append(("end", sim.now)))
    sim.run_until(ms(10) - 1)
    assert calls == [("start", 0), ("end", ms(1))]


def test_custom_body_with_resource_icpp():
    sim, kernel = make_kernel()
    res = OsekResource("R")
    res.register_user(2)

    def lo_body(job):
        yield Execute(ms(1))
        yield Acquire(res)
        yield Execute(ms(2))
        yield Release(res)
        yield Execute(ms(1))

    kernel.add_task(TaskSpec("LO", wcet=ms(4), period=ms(50), priority=1),
                    body=lo_body)
    kernel.add_task(TaskSpec("HI", wcet=ms(1), period=ms(50), priority=2,
                             offset=ms(2)))
    sim.run_until(ms(50))
    # LO's critical section spans [1,3) at ceiling priority 2, so HI
    # (arriving at 2) is blocked until the release at 3, runs [3,4),
    # and LO finishes its last ms at 5.
    assert kernel.response_times("HI") == [ms(2)]
    assert kernel.response_times("LO") == [ms(5)]
    assert res.acquisitions == 1


def test_resource_leak_released_and_logged():
    sim, kernel = make_kernel()
    res = OsekResource("R", ceiling=5)

    def leaky(job):
        yield Acquire(res)
        yield Execute(ms(1))
        # forgets Release

    kernel.add_task(TaskSpec("L", wcet=ms(1), period=ms(10)), body=leaky)
    sim.run_until(ms(5))
    assert res.holder is None
    assert len(kernel.trace.records("task.resource_leak", "L")) == 1


def test_release_jitter_shifts_release_not_period_grid():
    sim, kernel = make_kernel()
    jitters = iter([us(100), us(300), 0, 0])
    kernel.add_task(TaskSpec("J", wcet=us(10), period=ms(10)),
                    release_jitter=lambda: next(jitters))
    sim.run_until(ms(25))
    acts = kernel.trace.times("task.activate", "J")
    assert acts == [us(100), ms(10) + us(300), ms(20)]


def test_cpu_utilization_accounting():
    sim, kernel = make_kernel()
    kernel.add_task(TaskSpec("T", wcet=ms(2), period=ms(10)))
    sim.run_until(ms(100))
    assert kernel.utilization() == pytest.approx(0.2)


# ----------------------------------------------------------------------
# Parity with the reference kernel: same events, records and counters
# ----------------------------------------------------------------------
#: The parity setups' time grain: coarse, so that releases, completions
#: and timers of different ECUs often fall on the same instant, where
#: only the event queue's (priority, seq) tie-break orders them.
GRAIN = us(10)


@st.composite
def ecu_setups(draw):
    """One ECU, as plain data so each kernel builds it fresh.

    A preemptive or non-preemptive fixed-priority, TDMA or deferrable
    server scheduler; 1-4 tasks, each periodic (with optional release
    jitter, sampled execution times and ``max_activations`` up to 3),
    alarm-activated or extended (waiting on an event an alarm or
    another task's body sets); ICPP critical sections on one or two
    resources; deadlines shorter and longer than the period; no budget
    or one at, below or above the WCET; and completion hooks that
    activate another task.
    """
    def grains(low, high):
        return st.integers(low, high).map(lambda n: n * GRAIN)

    n = draw(st.integers(1, 4))
    priorities = draw(st.permutations(range(1, 11)))[:n]
    tasks = []
    for i in range(n):
        wcet = draw(grains(1, 40))
        period = draw(grains(10, 150))
        tasks.append({
            "role": draw(st.sampled_from(
                ["periodic", "periodic", "periodic", "alarm",
                 "extended"])),
            "wcet": wcet,
            "bcet": draw(st.none() | grains(1, wcet // GRAIN)),
            "period": period,
            "offset": draw(grains(0, 30)),
            # From below the WCET to twice the period: misses at the
            # deadline instant and at late completions.
            "deadline": draw(st.none() | grains(2, 2 * period // GRAIN)),
            "priority": priorities[i],
            "partition": draw(st.sampled_from(["P0", "P1", None])),
            "max_activations": draw(st.integers(1, 3)),
            "budget": draw(st.none() | st.just(wcet)
                           | grains(max(1, wcet // GRAIN // 2),
                                    2 * wcet // GRAIN)),
            "jitter": draw(grains(0, 5)),
            "sections": draw(st.lists(
                st.tuples(st.sampled_from(["R0", "R1"]),
                          st.integers(1, 4)), max_size=2)),
            "sets_event": draw(st.booleans()),
            "chains_to": draw(st.none() | st.integers(0, n - 1)),
        })
    return {
        "kind": draw(st.sampled_from(["fp", "fp-np", "tdma", "server"])),
        "tasks": tasks,
        "windows": [(0, draw(grains(5, 40)), "P0"),
                    (us(500), draw(grains(5, 40)), "P1")],
        "servers": [(p, draw(grains(5, 30)), draw(grains(30, 90)), 20 + i)
                    for i, p in enumerate(("P0", "P1"))],
        "event_alarm": (draw(grains(5, 30)), draw(grains(20, 90))),
    }


@st.composite
def osek_setups(draw):
    """One or two ECUs sharing one simulator and trace."""
    return {"ecus": draw(st.lists(ecu_setups(), min_size=1, max_size=2)),
            "seed": draw(st.integers(0, 2**16)),
            "horizon": ms(draw(st.integers(3, 12)))}


def _scheduler(ecu):
    from repro.osek import (DeferrableServerScheduler, ServerSpec,
                            TdmaScheduler, Window)

    if ecu["kind"] == "tdma":
        return TdmaScheduler([Window(*w) for w in ecu["windows"]],
                             major_frame=ms(1))
    if ecu["kind"] == "server":
        return DeferrableServerScheduler(
            [ServerSpec(*s) for s in ecu["servers"]])
    return FixedPriorityScheduler(preemptive=ecu["kind"] == "fp")


def _build_ecu(kernel, ecu, rng):
    from repro.osek import OsekResource, WaitEvent

    resources = {name: OsekResource(f"{kernel.name}.{name}")
                 for name in ("R0", "R1")}
    event = kernel.event(f"{kernel.name}.EV")

    def body_of(t):
        def body(job):
            if t["role"] == "extended":
                while True:
                    yield WaitEvent(event, clear=rng.random() < 0.7)
                    yield Execute(job.demand // 2 + 1)
            part = job.demand // (len(t["sections"]) + 1)
            for name, share in t["sections"]:
                yield Execute(part)
                yield Acquire(resources[name])
                yield Execute(max(1, part * share // 4))
                yield Release(resources[name])
            if t["sets_event"]:
                event.set()
            yield Execute(job.demand - part * len(t["sections"]))
        return body

    tasks = []
    for i, t in enumerate(ecu["tasks"]):
        spec = TaskSpec(
            f"{kernel.name}.T{i}", wcet=t["wcet"], bcet=t["bcet"],
            period=t["period"] if t["role"] == "periodic" else None,
            offset=t["offset"], deadline=t["deadline"],
            priority=t["priority"], partition=t["partition"],
            max_activations=t["max_activations"], budget=t["budget"])
        for name, _ in t["sections"]:
            resources[name].register_user(t["priority"])
        chained = t["chains_to"]
        tasks.append(kernel.add_task(
            spec, body=body_of(t),
            execution_time=(lambda s=spec: GRAIN * rng.randint(
                s.bcet // GRAIN, s.wcet // GRAIN)),
            release_jitter=(lambda j=t["jitter"]: rng.randrange(
                0, j + 1, GRAIN)),
            on_complete=(None if chained is None else
                         lambda job, c=chained: kernel.activate(tasks[c]))))
    for t, task in zip(ecu["tasks"], tasks):
        if t["role"] == "alarm":
            kernel.alarm_activate(f"A-{task.name}", task) \
                .set_rel(t["offset"], t["period"])
        elif t["role"] == "extended":
            kernel.activate(task)
    kernel.alarm_set_event(f"A-{event.name}", event) \
        .set_abs(*ecu["event_alarm"])


def run_osek_setup(kernel_cls, setup):
    """Build ``setup`` on fresh ``kernel_cls`` kernels and run it; return
    the trace digest, event counts, CPU time, per-task counters and the
    error that ended the run, if any."""
    import random

    from repro.errors import ReproError
    from repro.sim.trace import Trace

    sim = Simulator()
    trace = Trace()
    kernels = []
    for i, ecu in enumerate(setup["ecus"]):
        kernel = kernel_cls(sim, _scheduler(ecu), trace, name=f"E{i}")
        _build_ecu(kernel, ecu, random.Random(setup["seed"] + i))
        kernels.append(kernel)
    try:
        sim.run_until(setup["horizon"])
        error = None
    except ReproError as exc:
        error = (type(exc).__name__, str(exc))
    return {"digest": trace.digest(), "executed": sim.executed,
            "pending": sim.pending, "error": error,
            "busy_ns": [kernel.busy_ns for kernel in kernels],
            "tasks": {name: (task.jobs_activated, task.jobs_completed,
                             task.activations_lost)
                      for kernel in kernels
                      for name, task in kernel.tasks.items()}}


@settings(max_examples=250, deadline=None)
@given(osek_setups())
def test_kernel_matches_the_reference(setup):
    assert run_osek_setup(EcuKernel, setup) \
        == run_osek_setup(ReferenceEcuKernel, setup)


def run_generated(monkeypatch, kernel_cls, seed, size):
    import repro.verify.oracle as oracle
    from repro.verify.generator import generate

    monkeypatch.setattr(oracle, "EcuKernel", kernel_cls)
    system = generate(seed, size)
    built = oracle.build_system(system)
    assert all(type(k) is kernel_cls for k in built.kernels.values())
    built.sim.run_until(built.horizon)
    verdict = oracle.verify_system(system)
    return built.trace.digest(), built.sim.executed, verdict.to_dict()


@pytest.mark.parametrize("size", ["small", "medium", "large"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_systems_match_the_reference(monkeypatch, seed, size):
    """Same trace digest, event count and verdict with the oracle's
    kernels swapped for the reference."""
    assert run_generated(monkeypatch, EcuKernel, seed, size) \
        == run_generated(monkeypatch, ReferenceEcuKernel, seed, size)
