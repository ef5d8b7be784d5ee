"""Tests for repro.exec — deterministic parallel execution engine."""

import base64
import hashlib
import json
import os
import pickle
from functools import partial

import pytest

from repro.errors import ExecutionError, ExecutionInterrupted, JournalError
from repro.exec import Journal, Plan, ProgressMeter, derive_seed, execute


# ---------------------------------------------------------------------------
# module-level workers (must be picklable by reference for the pool)
# ---------------------------------------------------------------------------
def square_worker(item):
    return {"item": item, "square": item * item}


def faulty_worker(bad_item, item):
    if item == bad_item:
        raise ValueError(f"poisoned item {item}")
    return item + 1


def crash_worker(marker_dir, crash_item, item):
    """Dies (no exception, no cleanup) the first time it sees
    ``crash_item``; succeeds on any retry thanks to the marker file."""
    if item == crash_item:
        marker = os.path.join(marker_dir, f"crashed-{item}")
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(3)
    return item * 10


def always_crash_worker(crash_item, item):
    if item == crash_item:
        os._exit(3)
    return item * 10


def hang_once_worker(marker_dir, hang_item, item):
    """Hangs (hot sleep, no exception) the first time it sees
    ``hang_item``; succeeds on any retry thanks to the marker file."""
    import time as _time
    if item == hang_item:
        marker = os.path.join(marker_dir, f"hung-{item}")
        if not os.path.exists(marker):
            open(marker, "w").close()
            _time.sleep(60)
    return item * 10


def always_hang_worker(hang_item, item):
    import time as _time
    if item == hang_item:
        _time.sleep(60)
    return item * 10


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------
def test_derived_seeds_are_deterministic_and_order_free():
    assert derive_seed(7, 3) == derive_seed(7, 3)
    forward = [derive_seed(7, i) for i in range(20)]
    backward = [derive_seed(7, i) for i in reversed(range(20))]
    assert forward == list(reversed(backward))


def test_derived_seeds_are_distinct_across_index_and_base():
    seeds = {derive_seed(base, i) for base in range(10) for i in range(50)}
    assert len(seeds) == 500
    assert all(s >= 0 for s in seeds)


def test_derived_seed_is_not_sequential():
    # Spawn-style hashing: neighbouring indices share no arithmetic
    # relationship (a shared sequential stream would).
    deltas = {derive_seed(1, i + 1) - derive_seed(1, i) for i in range(8)}
    assert len(deltas) == 8


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------
def test_plan_fingerprint_identifies_the_work():
    plan = Plan("t", square_worker, (1, 2, 3), base_seed=4)
    same = Plan("t", square_worker, (1, 2, 3), base_seed=4)
    assert plan.fingerprint() == same.fingerprint()
    assert plan.fingerprint() != Plan("t", square_worker, (1, 2, 4),
                                      base_seed=4).fingerprint()
    assert plan.fingerprint() != Plan("t", square_worker, (1, 2, 3),
                                      base_seed=5).fingerprint()
    assert plan.fingerprint() != Plan("u", square_worker, (1, 2, 3),
                                      base_seed=4).fingerprint()
    # Pinned: journals written by earlier versions must keep resuming.
    assert plan.fingerprint() == ("5199970e7772a6ee00ad440e4ae84ce5"
                                  "533852a6fecba336816656d44ab8cf2b")


def test_plan_round_trips_through_pickle():
    plan = Plan("t", partial(faulty_worker, 99), tuple(range(6)))
    clone = pickle.loads(pickle.dumps(plan))
    assert clone.label == plan.label
    assert clone.items == plan.items
    assert clone.fingerprint() == plan.fingerprint()


# ---------------------------------------------------------------------------
# execution: determinism
# ---------------------------------------------------------------------------
def test_serial_and_parallel_results_are_identical():
    plan = Plan("sq", square_worker, tuple(range(11)), base_seed=3)
    serial = execute(plan, jobs=1)
    parallel = execute(plan, jobs=3)
    assert serial.ok and parallel.ok
    assert serial.results == parallel.results
    assert [r["item"] for r in serial.results] == list(range(11))


def test_empty_plan_executes_to_empty_results():
    outcome = execute(Plan("empty", square_worker, ()))
    assert outcome.ok and outcome.results == []


def test_execute_rejects_bad_arguments():
    plan = Plan("sq", square_worker, (1,))
    with pytest.raises(ExecutionError):
        execute(plan, jobs=0)
    with pytest.raises(ExecutionError):
        execute(plan, resume=True)  # resume without a checkpoint


# ---------------------------------------------------------------------------
# execution: failure handling
# ---------------------------------------------------------------------------
def test_raising_worker_is_retried_then_marked_failed():
    plan = Plan("faulty", partial(faulty_worker, 4), tuple(range(6)))
    outcome = execute(plan, jobs=1, retries=2)
    assert not outcome.ok
    assert list(outcome.failures) == [4]
    assert "poisoned item 4" in outcome.failures[4]
    # Every healthy item still completed, in plan order.
    assert outcome.results == [1, 2, 3, 4, 6]
    with pytest.raises(ExecutionError, match="item 4"):
        outcome.raise_on_failure()


def test_failed_attempts_are_journaled(tmp_path):
    path = tmp_path / "journal.jsonl"
    plan = Plan("faulty", partial(faulty_worker, 1), (0, 1, 2))
    execute(plan, retries=1, checkpoint=path)
    records = [json.loads(line) for line in open(path)]
    failed = [r for r in records if r["type"] == "failed"]
    assert len(failed) == 1 and failed[0]["chunk"] == 1
    assert failed[0]["attempts"] == 2  # retries=1 -> two attempts


def test_crashed_worker_is_isolated_and_retried(tmp_path):
    # Item 5's worker dies on its first attempt, taking the shared
    # pool down; isolation re-runs it and the sweep completes.
    plan = Plan("crashy",
                partial(crash_worker, str(tmp_path), 5),
                tuple(range(8)))
    outcome = execute(plan, jobs=2, retries=1)
    assert outcome.ok
    assert outcome.results == [i * 10 for i in range(8)]


def test_permanently_crashing_chunk_is_marked_failed():
    plan = Plan("crashy", partial(always_crash_worker, 2),
                tuple(range(4)))
    outcome = execute(plan, jobs=2, retries=1)
    assert not outcome.ok
    assert list(outcome.failures) == [2]
    assert outcome.results == [0, 10, 30]


# ---------------------------------------------------------------------------
# execution: watchdog timeout + fixed backoff
# ---------------------------------------------------------------------------
def test_hung_worker_is_killed_and_rerun_deterministically(tmp_path):
    # Item 2's worker hangs on its first attempt; the watchdog kills
    # the pool, isolation re-runs every unresolved item, and the
    # merged results match an untroubled run exactly.
    plan = Plan("hangy", partial(hang_once_worker, str(tmp_path), 2),
                tuple(range(6)))
    outcome = execute(plan, jobs=2, retries=1, timeout=1.0)
    assert outcome.ok
    assert outcome.results == [i * 10 for i in range(6)]
    assert outcome.results == execute(plan, jobs=1).results


def test_permanently_hung_chunk_exhausts_retries_and_fails():
    plan = Plan("hangy", partial(always_hang_worker, 1),
                tuple(range(3)))
    outcome = execute(plan, jobs=2, retries=0, timeout=0.5)
    assert not outcome.ok
    assert list(outcome.failures) == [1]
    assert "watchdog" in outcome.failures[1]
    # innocent items still completed in isolation
    assert outcome.results == [0, 20]


def test_watchdog_does_not_fire_on_healthy_parallel_runs():
    plan = Plan("sq", square_worker, tuple(range(8)))
    timed = execute(plan, jobs=2, timeout=30.0)
    assert timed.ok
    assert timed.results == execute(plan, jobs=1).results


def test_invalid_timeout_is_rejected():
    plan = Plan("sq", square_worker, (1,))
    with pytest.raises(ExecutionError, match="timeout"):
        execute(plan, jobs=2, timeout=0)


def test_retries_wait_out_the_fixed_backoff_schedule(monkeypatch):
    from repro.exec import pool

    slept = []
    monkeypatch.setattr(pool, "_sleep", slept.append)
    plan = Plan("faulty", partial(faulty_worker, 0), (0,))
    outcome = execute(plan, jobs=1, retries=3)
    assert not outcome.ok
    # attempt 1 -> 0.0 (skipped), attempts 2..3 -> schedule tail
    assert slept == [0.05, 0.2]
    # the schedule is fixed, never randomised: a second identical run
    # waits out the identical delays
    slept.clear()
    execute(plan, jobs=1, retries=3)
    assert slept == [0.05, 0.2]


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------
def test_interrupt_then_resume_matches_uninterrupted_run(tmp_path):
    path = tmp_path / "journal.jsonl"
    plan = Plan("sq", square_worker, tuple(range(9)))
    uninterrupted = execute(plan, jobs=1)
    with pytest.raises(ExecutionInterrupted):
        execute(plan, jobs=1, checkpoint=path, interrupt_after=2)
    resumed = execute(plan, jobs=1, checkpoint=path, resume=True)
    assert resumed.ok
    assert resumed.results == uninterrupted.results
    assert resumed.items_resumed == 2
    assert resumed.items_executed == 7


def test_parallel_resume_of_serial_journal(tmp_path):
    # Records address items by index, never by job count, so a journal
    # written by one executor is resumable by any other.
    path = tmp_path / "journal.jsonl"
    plan = Plan("sq", square_worker, tuple(range(9)))
    with pytest.raises(ExecutionInterrupted):
        execute(plan, jobs=1, checkpoint=path, interrupt_after=3)
    resumed = execute(plan, jobs=2, checkpoint=path, resume=True)
    assert resumed.results == execute(plan, jobs=1).results


def test_resume_refuses_a_mismatched_journal(tmp_path):
    path = tmp_path / "journal.jsonl"
    execute(Plan("sq", square_worker, (1, 2, 3)), checkpoint=path)
    other = Plan("sq", square_worker, (1, 2, 3, 4))
    with pytest.raises(JournalError, match="different plan"):
        execute(other, checkpoint=path, resume=True)


def test_resume_without_journal_raises(tmp_path):
    plan = Plan("sq", square_worker, (1,))
    with pytest.raises(JournalError, match="no checkpoint journal"):
        execute(plan, checkpoint=tmp_path / "missing.jsonl", resume=True)


def test_journal_replay_classifies_chunk_states(tmp_path):
    path = tmp_path / "journal.jsonl"
    plan = Plan("sq", square_worker, (1, 2, 3))
    journal = Journal(path)
    journal.begin(plan)
    journal.record_start(0)
    journal.record_done(0, 41, 0.1, worker=1234)
    journal.record_start(1)  # in flight when the run died
    journal.record_start(2)
    journal.record_failed(2, "boom", attempts=2)
    journal.close()
    state = Journal(path).load(plan)
    assert state.completed == {0: 41}
    assert state.pending == {1, 2}


def test_fully_journaled_run_resumes_without_executing(tmp_path):
    path = tmp_path / "journal.jsonl"
    plan = Plan("sq", square_worker, tuple(range(4)))
    first = execute(plan, checkpoint=path)
    resumed = execute(plan, checkpoint=path, resume=True)
    assert resumed.results == first.results
    assert resumed.items_executed == 0
    assert resumed.items_resumed == 4


def test_journal_in_the_chunked_layout_resumes(tmp_path):
    # Journals written when several items could share a record: the
    # header counts "chunks", records key the item index as "chunk",
    # a done payload is the base85 pickle of a one-element result list,
    # and the fingerprint hashes the recorded chunk size 1.
    path = tmp_path / "journal.jsonl"
    plan = Plan("sq", square_worker, (3, 4, 5), base_seed=9)
    fingerprint = hashlib.sha256(pickle.dumps(
        ("sq", 9, 1, (3, 4, 5)), protocol=4)).hexdigest()

    def done(index, item):
        payload = base64.b85encode(pickle.dumps(
            [square_worker(item)], protocol=4)).decode("ascii")
        return {"type": "done", "chunk": index, "payload": payload,
                "elapsed": 0.1, "worker": 1}

    records = [{"type": "plan", "label": "sq", "fingerprint": fingerprint,
                "chunks": 3, "items": 3},
               {"type": "start", "chunk": 0}, done(0, 3),
               {"type": "start", "chunk": 1},  # in flight when it died
               {"type": "start", "chunk": 2}, done(2, 5)]
    path.write_text("".join(json.dumps(record, sort_keys=True) + "\n"
                            for record in records))
    resumed = execute(plan, checkpoint=path, resume=True)
    assert resumed.results == execute(plan).results
    assert resumed.items_resumed == 2 and resumed.items_executed == 1


# ---------------------------------------------------------------------------
# checkpoint: journal corruption tolerance
# ---------------------------------------------------------------------------
def _truncate_last_line(path):
    lines = open(path, encoding="utf-8").read().splitlines()
    lines[-1] = lines[-1][:len(lines[-1]) // 2]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))  # no trailing newline: mid-write


def test_truncated_trailing_line_is_skipped_with_warning(tmp_path):
    from repro.exec.checkpoint import JournalCorruptionWarning

    path = tmp_path / "journal.jsonl"
    plan = Plan("sq", square_worker, tuple(range(4)))
    full = execute(plan, checkpoint=path)
    _truncate_last_line(path)
    with pytest.warns(JournalCorruptionWarning, match="trailing line"):
        state = Journal(path).load(plan)
    # the damaged item dropped out of `completed`, so it re-runs
    assert len(state.completed) == 3
    with pytest.warns(JournalCorruptionWarning):
        resumed = execute(plan, checkpoint=path, resume=True)
    assert resumed.ok
    assert resumed.results == full.results
    assert resumed.items_resumed == 3
    assert resumed.items_executed == 1


def test_garbled_trailing_payload_is_skipped_with_warning(tmp_path):
    from repro.exec.checkpoint import JournalCorruptionWarning

    path = tmp_path / "journal.jsonl"
    plan = Plan("sq", square_worker, (1, 2))
    execute(plan, checkpoint=path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"type": "done", "chunk": 1, "payload": "!bad!"')
    with pytest.warns(JournalCorruptionWarning):
        state = Journal(path).load(plan)
    assert sorted(state.completed) == [0, 1]  # the valid records stand


_NO_INDEX, _NOT_AN_OBJECT = object(), object()


@pytest.mark.parametrize(
    "index", [_NO_INDEX, "0", -1, 4, _NOT_AN_OBJECT],
    ids=["missing", "string", "negative", "past-end", "not-an-object"])
def test_record_naming_no_plan_item_is_corrupt(tmp_path, index):
    from repro.exec.checkpoint import JournalCorruptionWarning

    path = tmp_path / "journal.jsonl"
    plan = Plan("sq", square_worker, tuple(range(4)))
    full = execute(plan, checkpoint=path)
    lines = open(path, encoding="utf-8").read().splitlines()

    def damage(position):
        record = json.loads(lines[position])
        assert record["type"] == "done"
        if index is _NOT_AN_OBJECT:
            record = [record]
        elif index is _NO_INDEX:
            del record["chunk"]
        else:
            record["chunk"] = index
        damaged = lines[:position] + [json.dumps(record)] \
            + lines[position + 1:]
        path.write_text("\n".join(damaged) + "\n")

    damage(2)  # the first done record, mid-file
    with pytest.raises(JournalError, match="before the trailing line"):
        Journal(path).load(plan)
    damage(len(lines) - 1)  # the last done record, as the trailing line
    with pytest.warns(JournalCorruptionWarning, match="trailing line"):
        resumed = execute(plan, checkpoint=path, resume=True)
    assert resumed.results == full.results


def test_done_payload_must_hold_one_result(tmp_path):
    path = tmp_path / "journal.jsonl"
    plan = Plan("sq", square_worker, (1, 2))
    execute(plan, checkpoint=path)
    lines = open(path, encoding="utf-8").read().splitlines()
    record = json.loads(lines[2])
    record["payload"] = base64.b85encode(pickle.dumps(
        [square_worker(1), square_worker(2)])).decode("ascii")
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="not one result"):
        Journal(path).load(plan)


def test_mid_file_corruption_refuses_to_resume(tmp_path):
    path = tmp_path / "journal.jsonl"
    plan = Plan("sq", square_worker, tuple(range(4)))
    execute(plan, checkpoint=path)
    lines = open(path, encoding="utf-8").read().splitlines()
    lines[2] = lines[2][: len(lines[2]) // 2]  # damage BEFORE the tail
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="before the trailing line"):
        Journal(path).load(plan)


def test_corrupt_header_refuses_to_resume(tmp_path):
    path = tmp_path / "journal.jsonl"
    plan = Plan("sq", square_worker, (1,))
    execute(plan, checkpoint=path)
    lines = open(path, encoding="utf-8").read().splitlines()
    lines[0] = lines[0][:10]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="header"):
        Journal(path).load(plan)


# ---------------------------------------------------------------------------
# progress metrics
# ---------------------------------------------------------------------------
def test_progress_meter_rates_and_eta():
    now = [0.0]
    meter = ProgressMeter(8, clock=lambda: now[0])
    now[0] = 10.0
    meter.item_resumed()
    meter.item_resumed()
    for worker, elapsed in ((111, 1.5), (222, 3.0), (111, 2.5), (222, 3.0)):
        meter.item_done(elapsed=elapsed, worker=worker)
    snap = meter.snapshot()
    assert snap["items_done"] == 4 and snap["items_resumed"] == 2
    assert snap["items_per_s"] == pytest.approx(0.4)
    assert snap["eta_s"] == pytest.approx(5.0)  # 2 items left at 0.4/s
    assert snap["workers"] == {
        111: {"items": 2, "wall_s": 4.0},
        222: {"items": 2, "wall_s": 6.0},
    }


def test_progress_meter_emits_lines():
    lines = []
    now = [0.0]
    meter = ProgressMeter(2, clock=lambda: now[0], emit=lines.append)
    now[0] = 1.0
    meter.item_done(elapsed=1.0, worker=1)
    now[0] = 2.0
    meter.item_done(elapsed=1.0, worker=1)
    assert len(lines) == 2
    assert lines[-1].startswith("[2/2 items]")


def test_execution_metrics_flow_through(tmp_path):
    plan = Plan("sq", square_worker, tuple(range(6)))
    outcome = execute(plan, jobs=2)
    assert outcome.metrics["items_done"] == 6
    assert outcome.metrics["workers"]  # at least one worker accounted


# ---------------------------------------------------------------------------
# picklability regressions (the engine's transport requirement)
# ---------------------------------------------------------------------------
def test_campaign_cell_and_result_round_trip_pickle():
    from repro.faults.campaign import (ReferenceWorld, reference_cells,
                                       run_cell)
    from repro.units import ms

    cell = reference_cells()[0]
    clone = pickle.loads(pickle.dumps(cell))
    assert clone == cell and clone.params == cell.params
    result = run_cell(ReferenceWorld, cell, ms(300))
    copy = pickle.loads(pickle.dumps(result))
    assert copy.cell == result.cell
    assert copy.to_dict() == result.to_dict()


def _can_layout(plan):
    return (plan.bitrate_bps,
            [(f.period, f.sender, f.ipdu.name, f.ipdu.size_bytes,
              [(m.spec.name, m.spec.width_bits, m.start_bit, m.update_bit)
               for m in f.ipdu.mappings])
             for f in plan.frames],
            [(s.name, s.can_id, s.dlc, s.period) for s in plan.frame_specs])


def _flexray_layout(plan):
    config = plan.config
    return ((config.slot_length, config.n_static_slots,
             config.minislot_length, config.n_minislots,
             config.nit_length, config.bitrate_bps),
            plan.nodes,
            [(w.assignment.slot, w.assignment.node,
              w.assignment.frame_name, w.assignment.base_cycle,
              w.assignment.repetition, w.period, w.offset)
             for w in plan.static_writers],
            [(w.spec.name, w.spec.frame_id, w.spec.size_bytes, w.node,
              w.period, w.offset) for w in plan.dynamic_writers])


def test_generated_system_round_trips_pickle():
    from repro.verify import generate

    system = generate(7, "small")
    clone = pickle.loads(pickle.dumps(system))
    assert clone.name == system.name and clone.seed == system.seed
    assert clone.tasksets == system.tasksets
    assert clone.resources == system.resources
    assert clone.critical_sections == system.critical_sections
    assert clone.chain == system.chain
    assert clone.tdma == system.tdma
    # The CAN/FlexRay plans hold spec objects without __eq__; compare
    # their full structural layout instead.
    assert _can_layout(clone.can) == _can_layout(system.can)
    assert _flexray_layout(clone.flexray) == _flexray_layout(system.flexray)
