"""Bucket-queue vs reference-queue equivalence for the simulation kernel.

:class:`~repro.sim.kernel.BucketEventQueue` (the kernel's queue) and
:class:`kernel_reference.HeapEventQueue` (the plain single-heap
reference) must be observationally indistinguishable: identical event
execution order on ties, priorities, cancellations and same-instant
rescheduling, identical ``now``/``executed``/``pending`` at every
horizon boundary, and byte-identical trace digests for full
generated-system simulations.  Any divergence here means the fast path
changed simulation semantics, which would silently re-date every pinned
digest in the repo.
"""

import random

import pytest

from kernel_reference import HeapEventQueue

from repro import obs
from repro.sim.kernel import BucketEventQueue, Simulator
from repro.sim.trace import Trace
from repro.verify.generator import generate
from repro.verify.oracle import build_system, verify_system

QUEUES = (HeapEventQueue, BucketEventQueue)


def run_workload(queue_cls, script, horizons=(10_000,), tail=None):
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
    sim = Simulator(queue=queue_cls())
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
            handles[directive[1]].cancel()
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


def random_horizons(rng, script):
    """Ascending ``run_until`` horizons: some exactly at scripted event
    times, some strictly between them, so calls end mid-burst and
    mid-respawn-chain."""
    times = sorted({d[1] for d in script if d[0] in ("at", "respawn")})
    exact = rng.sample(times, rng.randint(1, len(times)))
    between = [time + rng.randint(1, 6)
               for time in rng.sample(times, rng.randint(1, len(times)))]
    return sorted(exact + between + [rng.choice(exact)])


@pytest.mark.parametrize("seed", range(50))
def test_random_workloads_execute_identically(seed):
    rng = random.Random(seed)
    script = random_script(rng)
    horizons = random_horizons(rng, script)
    tail = rng.choice([None, 0, 1, 3, 1_000])
    heap_run = run_workload(HeapEventQueue, script, horizons, tail)
    bucket_run = run_workload(BucketEventQueue, script, horizons, tail)
    for call, (heap, bucket) in enumerate(zip(heap_run, bucket_run)):
        assert bucket == heap, f"diverged after call {call}"


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_horizon_splits_a_burst_and_its_respawns(queue_cls):
    """Horizons at and just past a burst instant: the burst and its
    same-instant children finish in the call that reaches it, delayed
    children wait for the next call, and a ``run`` tail resumes them."""
    script = [("at", 100, 0, "a"), ("respawn", 100, 0, "r", 0, 2),
              ("respawn", 100, 1, "s", 7, 2), ("at", 110, 0, "b")]
    snapshots = run_workload(queue_cls, script, (100, 103, 107), tail=1)
    burst = [(100, "a"), (100, "r"), (100, "r.c0"), (100, "r.c1"),
             (100, "s")]
    assert snapshots == [
        (burst, 100, 5, 3),
        (burst, 103, 5, 3),
        (burst + [(107, "s.c0"), (107, "s.c1")], 107, 7, 1),
        (burst + [(107, "s.c0"), (107, "s.c1"), (110, "b")], 110, 8, 0),
    ]


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_dispatch_batches_count_distinct_instants(queue_cls):
    """``sim.dispatch_batches`` counts distinct instants per
    ``run_until`` call — a same-instant respawn adds events, not
    batches.  The fuzz signature's counter tokens depend on it."""
    script = [("at", 100, 0, "a"), ("respawn", 200, 0, "r", 0, 2),
              ("at", 300, 0, "c")]
    with obs.capture() as telemetry:
        [(log, *_)] = run_workload(queue_cls, script)
    counters = telemetry.snapshot()["metrics"]["counters"]
    assert len(log) == 5
    assert counters["sim.events"] == 5
    assert counters["sim.dispatch_batches"] == 3


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_fifo_within_same_time_and_priority(queue_cls):
    """Equal (time, priority) events fire in insertion order — the
    regression that a bucket's FIFO mode must honour seq order."""
    sim = Simulator(queue=queue_cls())
    log = []
    for index in range(20):
        sim.schedule_at(100, lambda i=index: log.append(i))
    sim.run_until(200)
    assert log == list(range(20))


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_priority_orders_within_a_batch(queue_cls):
    sim = Simulator(queue=queue_cls())
    log = []
    sim.schedule_at(100, lambda: log.append("late"), priority=5)
    sim.schedule_at(100, lambda: log.append("early"), priority=-5)
    sim.schedule_at(100, lambda: log.append("mid-a"), priority=0)
    sim.schedule_at(100, lambda: log.append("mid-b"), priority=0)
    sim.run_until(200)
    assert log == ["early", "mid-a", "mid-b", "late"]


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_mixed_priority_push_after_partial_drain(queue_cls):
    """A same-instant event scheduled *during* the batch with a better
    priority than the remaining tail must jump the queue — this is the
    bucket's FIFO-to-heap conversion path."""
    sim = Simulator(queue=queue_cls())
    log = []

    def first():
        log.append("first")
        sim.schedule(0, lambda: log.append("urgent"), priority=-10)

    sim.schedule_at(100, first)
    sim.schedule_at(100, lambda: log.append("second"))
    sim.schedule_at(100, lambda: log.append("third"))
    sim.run_until(200)
    assert log == ["first", "urgent", "second", "third"]


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_cancelled_events_never_fire_and_pending_agrees(queue_cls):
    sim = Simulator(queue=queue_cls())
    log = []
    keep = sim.schedule_at(50, lambda: log.append("keep"))
    drop = sim.schedule_at(50, lambda: log.append("drop"))
    sim.schedule_at(60, lambda: log.append("later"))
    drop.cancel()
    assert sim.pending == 2
    sim.run_until(100)
    assert log == ["keep", "later"]
    assert keep.time == 50
    assert sim.executed == 2


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_reschedule_at_drained_timestamp(queue_cls):
    """Scheduling back into the current instant after its bucket
    drained must still fire within the same run (the stale-times
    normalization path of the bucket queue)."""
    sim = Simulator(queue=queue_cls())
    log = []

    def fire():
        log.append(("fire", sim.now))
        if len(log) < 4:
            sim.schedule(0, fire)

    sim.schedule_at(100, fire)
    sim.run_until(200)
    assert log == [("fire", 100)] * 4
    assert sim.now == 200


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_stop_inside_a_batch_halts_dispatch(queue_cls):
    sim = Simulator(queue=queue_cls())
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
def run_system(monkeypatch, queue_cls, seed):
    import itertools

    import repro.osek.task as osek_task
    import repro.verify.oracle as oracle

    monkeypatch.setattr(oracle, "Simulator",
                        lambda: Simulator(queue=queue_cls()))
    # Job sequence numbers come from a process-global counter and land
    # in trace records; restart it so both queue runs see id 0 first.
    monkeypatch.setattr(osek_task, "_job_seq", itertools.count())
    system = generate(seed, "small")
    built = build_system(system)
    assert type(built.sim._queue) is queue_cls
    built.sim.run_until(built.horizon)
    verdict = verify_system(generate(seed, "small"))
    return built.trace.digest(), verdict.to_dict()


@pytest.mark.parametrize("seed", [0, 3, 11, 17])
def test_generated_system_traces_and_verdicts_match(monkeypatch, seed):
    heap = run_system(monkeypatch, HeapEventQueue, seed)
    bucket = run_system(monkeypatch, BucketEventQueue, seed)
    assert bucket[0] == heap[0]      # trace digest byte-identical
    assert bucket[1] == heap[1]      # full oracle verdict identical


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


def test_default_queue_is_the_bucket_queue():
    """The fast path is the default; this pin makes an accidental
    fallback to another queue a visible test failure."""
    assert type(Simulator()._queue) is BucketEventQueue
