"""No trace row outlives the pipeline item that logged it, a logged
row adds nothing for the cyclic garbage collector to track, and
resilience verification holds one world's rows at a time.

A simulated world is a reference cycle, so a worker that left its
trace filled would leave every row alive until the cyclic garbage
collector ran.  With the collector disabled, the rows held by live
:class:`~repro.sim.trace.Trace` objects must be the same before and
after each pipeline worker call.
"""

import gc

import pytest

from repro.faults import ReferenceWorld, reference_cells, run_cell
from repro.meas.batch import _daq_worker
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace
from repro.units import ms
from repro.verify.generator import generate
from repro.verify.oracle import verify_system
from repro.verify.resilience import standard_scenarios, verify_resilience


def live_traces() -> list[int]:
    """Rows of each live trace that holds any."""
    return [len(obj) for obj in gc.get_objects()
            if isinstance(obj, Trace) and len(obj)]


def resilience_item():
    system = generate(7, "small")
    system.faults = standard_scenarios(system)
    assert system.faults
    return verify_resilience(system)


ITEMS = {
    "verify_system": lambda: verify_system(generate(7, "small")),
    "verify_resilience": resilience_item,
    "run_cell": lambda: run_cell(ReferenceWorld, reference_cells()[0],
                                 ms(300)),
    "_daq_worker": lambda: _daq_worker(ms(20), ms(1),
                                       generate(7, "small")),
}


@pytest.mark.parametrize("name", ITEMS)
def test_no_record_outlives_its_item(name):
    gc.collect()
    gc.disable()
    try:
        before = sum(live_traces())
        ITEMS[name]()
        assert sum(live_traces()) == before
    finally:
        gc.enable()


def test_a_logged_record_adds_no_tracked_object():
    # A record's row is an int, two strings and a keyword dict of ints
    # and strings: atomic objects and an untracked dict, so logging
    # leaves the collector nothing new to walk.
    trace = Trace()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for n in range(10_000):
            trace.log(n, "task.activate", "T", job=n, ecu="E1")
        assert len(gc.get_objects()) == before
    finally:
        gc.enable()
    assert len(trace) == 10_000


def peak_live_traces(item) -> int:
    """Most traces holding rows at any return of ``Simulator.run_until``
    while ``item`` runs (collector off)."""
    run_until = Simulator.run_until
    peaks = []

    def sampled(sim, horizon):
        run_until(sim, horizon)
        peaks.append(len(live_traces()))

    gc.collect()
    gc.disable()
    Simulator.run_until = sampled
    try:
        item()
    finally:
        Simulator.run_until = run_until
        gc.enable()
    assert peaks
    return max(peaks)


def test_resilience_holds_one_world_at_a_time():
    # Each fault-free baseline is reduced to the facts its verdicts read
    # and its trace cleared before a scenario world is built, so at
    # every end of a simulated run one trace at most holds rows.
    assert peak_live_traces(resilience_item) <= 1


def test_verify_system_holds_one_world_at_a_time():
    # A fault-carrying system's scenarios run before its nominal world
    # is built, so the nominal trace is not alive while they run.
    system = generate(7, "small")
    system.faults = standard_scenarios(system)
    assert peak_live_traces(lambda: verify_system(system)) <= 1
