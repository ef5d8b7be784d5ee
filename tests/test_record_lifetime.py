"""No trace record outlives the pipeline item that logged it.

A simulated world is a reference cycle, so a worker that left its
trace filled would leave every record alive until the cyclic garbage
collector ran.  With the collector disabled, the number of live
:class:`~repro.sim.trace.Record` objects must be the same before and
after each pipeline worker call.
"""

import gc

import pytest

from repro.faults import ReferenceWorld, reference_cells, run_cell
from repro.meas.batch import _daq_worker
from repro.sim.trace import Record
from repro.units import ms
from repro.verify.generator import generate
from repro.verify.oracle import verify_system
from repro.verify.resilience import standard_scenarios, verify_resilience


def live_records() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is Record)


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
        before = live_records()
        ITEMS[name]()
        assert live_records() == before
    finally:
        gc.enable()
