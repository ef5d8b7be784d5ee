"""Kernel vs reference equivalence for the simulation kernel.

:class:`~repro.sim.kernel.Simulator` (one heap of event lists) and
:class:`kernel_reference.ReferenceSimulator` (a linear search for the
smallest live ``(time, priority, seq)``) must be observationally
indistinguishable: identical event execution order on ties,
priorities, cancellations and same-instant rescheduling, identical
``now``/``executed``/``pending`` at every horizon boundary, and
byte-identical trace digests for full generated-system simulations.
Any divergence here means the kernel changed simulation semantics,
which would silently re-date every pinned digest in the repo.
"""

import random

import pytest

from kernel_reference import ReferenceSimulator

from repro import obs
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace
from repro.verify.generator import generate
from repro.verify.oracle import build_system, verify_system

#: Each single-simulator case runs on both sides.  Test ids are tracked
#: across revisions, so the cases keep the ids of the two event queues
#: they first compared: the reference side runs as ``HeapEventQueue``,
#: the kernel as ``BucketEventQueue``.
BOTH_SIDES = pytest.mark.parametrize(
    "sim_cls", (ReferenceSimulator, Simulator),
    ids=("HeapEventQueue", "BucketEventQueue"))


def run_workload(sim_cls, script, horizons=(10_000,), tail=None):
    """Run a schedule script; return a snapshot after every call.

    ``script`` is a list of directives applied before the run:
    ``("at", time, priority, tag)`` schedules a logging event,
    ``("cancel", tag)`` cancels a previously scheduled one,
    ``("respawn", time, priority, tag, delay, count)`` schedules an
    event that re-schedules ``count`` followers ``delay`` ns apart
    (``delay=0`` lands them in the *current* batch).

    The simulator runs ``run_until`` to each of ``horizons`` in turn,
    then ``run(max_events=tail)`` unless ``tail`` is None.  Each
    snapshot is ``(log, now, executed, pending)`` after that call.
    """
    sim = sim_cls()
    log = []
    handles = {}

    def make_logger(tag):
        return lambda: log.append((sim.now, tag))

    def make_respawner(tag, delay, count, priority):
        def fire():
            log.append((sim.now, tag))
            for child in range(count):
                sim.schedule(delay, make_logger(f"{tag}.c{child}"),
                             priority=priority)
        return fire

    for directive in script:
        if directive[0] == "at":
            _, time, priority, tag = directive
            handles[tag] = sim.schedule_at(time, make_logger(tag),
                                           priority=priority)
        elif directive[0] == "cancel":
            sim.cancel(handles[directive[1]])
        elif directive[0] == "respawn":
            _, time, priority, tag, delay, count = directive
            sim.schedule_at(time, make_respawner(tag, delay, count,
                                                 priority),
                            priority=priority)

    def snapshot():
        return list(log), sim.now, sim.executed, sim.pending

    snapshots = []
    for horizon in horizons:
        sim.run_until(horizon)
        snapshots.append(snapshot())
    if tail is not None:
        sim.run(max_events=tail)
        snapshots.append(snapshot())
    return snapshots


def random_script(rng):
    """A random mix of bursts, priorities, cancels and respawns."""
    script = []
    tags = []
    # Heavy same-timestamp bursts: few distinct times, many events.
    times = [rng.randrange(0, 5_000) for _ in range(rng.randint(2, 6))]
    for index in range(rng.randint(10, 60)):
        tag = f"e{index}"
        script.append(("at", rng.choice(times),
                       rng.choice([0, 0, 0, 1, 5, -3]), tag))
        tags.append(tag)
    for _ in range(rng.randint(0, len(tags) // 3)):
        script.append(("cancel", rng.choice(tags)))
    for index in range(rng.randint(0, 4)):
        script.append(("respawn", rng.choice(times),
                       rng.choice([0, 2]), f"r{index}",
                       rng.choice([0, 0, 7]), rng.randint(1, 3)))
    return script


def pipeline_script(rng):
    """The traffic shape the pipeline workloads run: 20-60 distinct
    times with 1-3 events each, plus the same cancels and respawns."""
    script = []
    tags = []
    times = rng.sample(range(0, 5_000), rng.randint(20, 60))
    for time in times:
        for _ in range(rng.randint(1, 3)):
            tag = f"e{len(tags)}"
            script.append(("at", time, rng.choice([0, 0, 0, 1, -3]), tag))
            tags.append(tag)
    for _ in range(rng.randint(0, len(tags) // 4)):
        script.append(("cancel", rng.choice(tags)))
    for index in range(rng.randint(0, 6)):
        script.append(("respawn", rng.choice(times),
                       rng.choice([0, 2]), f"r{index}",
                       rng.choice([0, 0, 7, 300]), rng.randint(1, 3)))
    return script


def random_horizons(rng, script):
    """Ascending ``run_until`` horizons: some exactly at scripted event
    times, some strictly between them, so calls end mid-burst and
    mid-respawn-chain."""
    times = sorted({d[1] for d in script if d[0] in ("at", "respawn")})
    exact = rng.sample(times, rng.randint(1, len(times)))
    between = [time + rng.randint(1, 6)
               for time in rng.sample(times, rng.randint(1, len(times)))]
    return sorted(exact + between + [rng.choice(exact)])


def assert_same_runs(script, horizons, tail):
    reference = run_workload(ReferenceSimulator, script, horizons, tail)
    kernel = run_workload(Simulator, script, horizons, tail)
    assert len(kernel) == len(reference)
    for call, (expected, actual) in enumerate(zip(reference, kernel)):
        assert actual == expected, f"diverged after call {call}"


@pytest.mark.parametrize("seed", range(50))
def test_random_workloads_execute_identically(seed):
    rng = random.Random(seed)
    script = random_script(rng)
    horizons = random_horizons(rng, script)
    assert_same_runs(script, horizons, rng.choice([None, 0, 1, 3, 1_000]))


@pytest.mark.parametrize("seed", range(50))
def test_pipeline_shaped_workloads_execute_identically(seed):
    rng = random.Random(1_000 + seed)
    script = pipeline_script(rng)
    horizons = random_horizons(rng, script)
    assert_same_runs(script, horizons, rng.choice([None, 0, 1, 3, 1_000]))


@BOTH_SIDES
def test_horizon_splits_a_burst_and_its_respawns(sim_cls):
    """Horizons at and just past a burst instant: the burst and its
    same-instant children finish in the call that reaches it, delayed
    children wait for the next call, and a ``run`` tail resumes them."""
    script = [("at", 100, 0, "a"), ("respawn", 100, 0, "r", 0, 2),
              ("respawn", 100, 1, "s", 7, 2), ("at", 110, 0, "b")]
    snapshots = run_workload(sim_cls, script, (100, 103, 107), tail=1)
    burst = [(100, "a"), (100, "r"), (100, "r.c0"), (100, "r.c1"),
             (100, "s")]
    assert snapshots == [
        (burst, 100, 5, 3),
        (burst, 103, 5, 3),
        (burst + [(107, "s.c0"), (107, "s.c1")], 107, 7, 1),
        (burst + [(107, "s.c0"), (107, "s.c1"), (110, "b")], 110, 8, 0),
    ]


@BOTH_SIDES
def test_dispatch_batches_count_distinct_instants(sim_cls):
    """``sim.dispatch_batches`` counts distinct instants per
    ``run_until`` call — a same-instant respawn adds events, not
    batches.  The fuzz signature's counter tokens depend on it."""
    script = [("at", 100, 0, "a"), ("respawn", 200, 0, "r", 0, 2),
              ("at", 300, 0, "c")]
    with obs.capture() as telemetry:
        [(log, *_)] = run_workload(sim_cls, script)
    counters = telemetry.snapshot()["metrics"]["counters"]
    assert len(log) == 5
    assert counters["sim.events"] == 5
    assert counters["sim.dispatch_batches"] == 3


@BOTH_SIDES
def test_fifo_within_same_time_and_priority(sim_cls):
    """Equal (time, priority) events fire in insertion order: seq
    breaks the tie."""
    sim = sim_cls()
    log = []
    for index in range(20):
        sim.schedule_at(100, lambda i=index: log.append(i))
    sim.run_until(200)
    assert log == list(range(20))


@BOTH_SIDES
def test_priority_orders_within_a_batch(sim_cls):
    sim = sim_cls()
    log = []
    sim.schedule_at(100, lambda: log.append("late"), priority=5)
    sim.schedule_at(100, lambda: log.append("early"), priority=-5)
    sim.schedule_at(100, lambda: log.append("mid-a"), priority=0)
    sim.schedule_at(100, lambda: log.append("mid-b"), priority=0)
    sim.run_until(200)
    assert log == ["early", "mid-a", "mid-b", "late"]


@BOTH_SIDES
def test_mixed_priority_push_after_partial_drain(sim_cls):
    """A same-instant event scheduled *during* the batch with a better
    priority than the remaining tail must jump the queue."""
    sim = sim_cls()
    log = []

    def first():
        log.append("first")
        sim.schedule(0, lambda: log.append("urgent"), priority=-10)

    sim.schedule_at(100, first)
    sim.schedule_at(100, lambda: log.append("second"))
    sim.schedule_at(100, lambda: log.append("third"))
    sim.run_until(200)
    assert log == ["first", "urgent", "second", "third"]


@BOTH_SIDES
def test_cancelled_events_never_fire_and_pending_agrees(sim_cls):
    sim = sim_cls()
    log = []
    keep = sim.schedule_at(50, lambda: log.append("keep"))
    drop = sim.schedule_at(50, lambda: log.append("drop"))
    sim.schedule_at(60, lambda: log.append("later"))
    sim.cancel(drop)
    assert sim.pending == 2
    sim.run_until(100)
    assert log == ["keep", "later"]
    assert sim.executed == 2
    # Cancelling an event that already fired, or twice, changes nothing.
    sim.cancel(keep)
    sim.cancel(drop)
    assert sim.pending == 0


@BOTH_SIDES
def test_reschedule_at_drained_timestamp(sim_cls):
    """Scheduling back into the current instant after everything due
    there has fired must still fire within the same run."""
    sim = sim_cls()
    log = []

    def fire():
        log.append(("fire", sim.now))
        if len(log) < 4:
            sim.schedule(0, fire)

    sim.schedule_at(100, fire)
    sim.run_until(200)
    assert log == [("fire", 100)] * 4
    assert sim.now == 200


@BOTH_SIDES
def test_stop_inside_a_batch_halts_dispatch(sim_cls):
    sim = sim_cls()
    log = []
    sim.schedule_at(100, lambda: (log.append("a"), sim.stop()))
    sim.schedule_at(100, lambda: log.append("b"))
    sim.run_until(200)
    assert log == ["a"]
    assert sim.now == 100            # stopped: now stays at the batch
    sim.run_until(200)
    assert log == ["a", "b"]


# ----------------------------------------------------------------------
# Full-system equivalence: the oracle's simulations are byte-identical
# ----------------------------------------------------------------------
def run_system(monkeypatch, sim_cls, seed):
    import repro.verify.oracle as oracle

    monkeypatch.setattr(oracle, "Simulator", sim_cls)
    system = generate(seed, "small")
    built = build_system(system)
    assert type(built.sim) is sim_cls
    built.sim.run_until(built.horizon)
    verdict = verify_system(generate(seed, "small"))
    return built.trace.digest(), verdict.to_dict()


@pytest.mark.parametrize("seed", [0, 3, 11, 17])
def test_generated_system_traces_and_verdicts_match(monkeypatch, seed):
    reference = run_system(monkeypatch, ReferenceSimulator, seed)
    kernel = run_system(monkeypatch, Simulator, seed)
    assert kernel[0] == reference[0]     # trace digest byte-identical
    assert kernel[1] == reference[1]     # full oracle verdict identical


def test_trace_digest_is_order_and_content_sensitive():
    a, b = Trace(), Trace()
    a.log(1, "task.activate", "T1", core=0)
    a.log(2, "task.complete", "T1")
    b.log(1, "task.activate", "T1", core=0)
    b.log(2, "task.complete", "T1")
    assert a.digest() == b.digest()
    b.log(3, "task.activate", "T2")
    assert a.digest() != b.digest()
    c, d = Trace(), Trace()
    c.log(1, "x", "s"), c.log(1, "y", "s")
    d.log(1, "y", "s"), d.log(1, "x", "s")
    assert c.digest() != d.digest()

