"""Tests for repro.exec — deterministic parallel execution engine."""

import base64
import hashlib
import json
import os
import pickle
from collections import Counter
from functools import partial

import pytest

from repro.errors import ExecutionError, JournalError
from repro.exec import Journal, Plan, ProgressMeter, derive_seed, execute
from stopping_meter import StoppingMeter, Stopped


# ---------------------------------------------------------------------------
# module-level workers (must be picklable by reference for the pool)
# ---------------------------------------------------------------------------
def square_worker(item):
    return {"item": item, "square": item * item}


def faulty_worker(bad_items, item):
    if item in bad_items:
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
    plan = Plan("t", partial(faulty_worker, (99,)), tuple(range(6)))
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
    assert serial == parallel
    assert [r["item"] for r in serial] == list(range(11))


def test_empty_plan_executes_to_empty_results():
    assert execute(Plan("empty", square_worker, ())) == []
    assert execute(Plan("empty", square_worker, ()), jobs=2) == []


def test_execute_rejects_bad_arguments():
    plan = Plan("sq", square_worker, (1,))
    with pytest.raises(ExecutionError):
        execute(plan, jobs=0)
    with pytest.raises(ExecutionError):
        execute(plan, resume=True)  # resume without a checkpoint


# ---------------------------------------------------------------------------
# execution: failure handling
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_worker_runs_once_and_fails_its_item(tmp_path, jobs):
    # A pure worker that raises would raise again: each poisoned item
    # runs once, every other item still runs and is journaled, and one
    # error names every failed item.
    path = tmp_path / "journal.jsonl"
    plan = Plan("faulty", partial(faulty_worker, (1, 4)), tuple(range(6)))
    with pytest.raises(ExecutionError, match=(
            r"2 item\(s\) failed — item 1: ValueError: poisoned item 1; "
            r"item 4: ValueError: poisoned item 4$")):
        execute(plan, jobs=jobs, checkpoint=path)
    records = [json.loads(line) for line in open(path)][1:]
    for index in (1, 4):
        assert [r["type"] for r in records if r["chunk"] == index] \
            == ["start", "failed"]
    state = Journal(path).load(plan)
    assert state.completed == {0: 1, 2: 3, 3: 4, 5: 6}
    assert state.pending == {1, 4}


def test_failed_attempts_are_journaled(tmp_path):
    path = tmp_path / "journal.jsonl"
    plan = Plan("faulty", partial(faulty_worker, (1,)), (0, 1, 2))
    with pytest.raises(ExecutionError, match="item 1"):
        execute(plan, checkpoint=path)
    records = [json.loads(line) for line in open(path)]
    failed = [r for r in records if r["type"] == "failed"]
    assert failed == [{"type": "failed", "chunk": 1,
                       "error": "ValueError: poisoned item 1"}]
    # Failed records of journals written when items were retried also
    # count their attempts; they still load, and the item re-runs.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "failed", "chunk": 1,
                                 "error": "boom", "attempts": 2}) + "\n")
    state = Journal(path).load(plan)
    assert state.completed == {0: 1, 2: 3}
    assert state.pending == {1}


def test_crashed_worker_is_isolated_and_retried(tmp_path):
    # Item 5's worker dies on its first attempt, taking the shared
    # pool down; isolation re-runs it and the sweep completes.
    plan = Plan("crashy",
                partial(crash_worker, str(tmp_path), 5),
                tuple(range(8)))
    assert execute(plan, jobs=2) == [i * 10 for i in range(8)]


def test_worker_death_reruns_only_the_items_in_flight(tmp_path):
    # At most jobs + 1 items are in flight when item 0's worker dies:
    # only those re-run alone (a second start record each); the rest
    # go on in a fresh shared pool and start once.
    path = tmp_path / "journal.jsonl"
    plan = Plan("crashy", partial(crash_worker, str(tmp_path), 0),
                tuple(range(40)))
    assert execute(plan, jobs=2, checkpoint=path) \
        == [i * 10 for i in range(40)]
    records = [json.loads(line) for line in path.read_text().splitlines()][1:]
    starts = Counter(r["chunk"] for r in records if r["type"] == "start")
    assert sorted(starts) == list(range(40))
    rerun = [index for index, count in starts.items() if count > 1]
    assert 0 in rerun and len(rerun) <= 3
    assert max(starts.values()) == 2


def test_pool_broken_at_submit_still_returns_every_result(monkeypatch):
    # A worker dies while items remain to submit, so the next submit
    # itself finds the pool broken; the run still completes.  The pool
    # module imports its executor when a parallel run starts, so the
    # patch goes where that import reads it.
    import concurrent.futures
    from concurrent.futures import ProcessPoolExecutor

    submits = []

    class BreaksBeforeFifthSubmit(ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submits.append(fn)
            if len(submits) == 5:
                # Kill a worker and wait until the pool knows.
                super().submit(os._exit, 3).exception(timeout=60)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        BreaksBeforeFifthSubmit)
    plan = Plan("sq", square_worker, tuple(range(200)))
    assert execute(plan, jobs=2) == [square_worker(i) for i in range(200)]
    assert len(submits) > 200


def test_permanently_crashing_chunk_is_marked_failed(tmp_path):
    # Isolation pins the death on item 2; the innocent items complete.
    path = tmp_path / "journal.jsonl"
    plan = Plan("crashy", partial(always_crash_worker, 2),
                tuple(range(4)))
    with pytest.raises(ExecutionError,
                       match=r"1 item\(s\) failed — item 2: "
                             r"BrokenProcessPool"):
        execute(plan, jobs=2, checkpoint=path)
    assert Journal(path).load(plan).completed == {0: 0, 1: 10, 3: 30}


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------
def test_interrupt_then_resume_matches_uninterrupted_run(tmp_path):
    path = tmp_path / "journal.jsonl"
    plan = Plan("sq", square_worker, tuple(range(9)))
    uninterrupted = execute(plan, jobs=1)
    with pytest.raises(Stopped):
        execute(plan, jobs=1, checkpoint=path, progress=StoppingMeter(2))
    meter = ProgressMeter(plan.n_items)
    resumed = execute(plan, jobs=1, checkpoint=path, resume=True,
                      progress=meter)
    assert resumed == uninterrupted
    assert meter.items_resumed == 2
    assert meter.items_done == 7


def test_parallel_resume_of_serial_journal(tmp_path):
    # Records address items by index, never by job count, so a journal
    # written by one executor is resumable by any other.
    path = tmp_path / "journal.jsonl"
    plan = Plan("sq", square_worker, tuple(range(9)))
    with pytest.raises(Stopped):
        execute(plan, jobs=1, checkpoint=path, progress=StoppingMeter(3))
    resumed = execute(plan, jobs=2, checkpoint=path, resume=True)
    assert resumed == execute(plan, jobs=1)


def test_stopped_parallel_run_resumes_serially(tmp_path):
    # A pool stopped mid-run journals exactly the items it finished;
    # the ones in flight re-run on resume.
    path = tmp_path / "journal.jsonl"
    plan = Plan("sq", square_worker, tuple(range(9)))
    with pytest.raises(Stopped):
        execute(plan, jobs=2, checkpoint=path, progress=StoppingMeter(3))
    meter = ProgressMeter(plan.n_items)
    resumed = execute(plan, jobs=1, checkpoint=path, resume=True,
                      progress=meter)
    assert resumed == execute(plan, jobs=1)
    assert meter.items_resumed == 3
    assert meter.items_done == 6


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
    journal.record_failed(2, "boom")
    journal.close()
    state = Journal(path).load(plan)
    assert state.completed == {0: 41}
    assert state.pending == {1, 2}


def test_fully_journaled_run_resumes_without_executing(tmp_path):
    path = tmp_path / "journal.jsonl"
    plan = Plan("sq", square_worker, tuple(range(4)))
    first = execute(plan, checkpoint=path)
    meter = ProgressMeter(plan.n_items)
    resumed = execute(plan, checkpoint=path, resume=True, progress=meter)
    assert resumed == first
    assert meter.items_done == 0
    assert meter.items_resumed == 4


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
    meter = ProgressMeter(plan.n_items)
    resumed = execute(plan, checkpoint=path, resume=True, progress=meter)
    assert resumed == execute(plan)
    assert meter.items_resumed == 2 and meter.items_done == 1


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
    meter = ProgressMeter(plan.n_items)
    with pytest.warns(JournalCorruptionWarning):
        resumed = execute(plan, checkpoint=path, resume=True,
                          progress=meter)
    assert resumed == full
    assert meter.items_resumed == 3
    assert meter.items_done == 1


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
    assert resumed == full


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


def test_execution_metrics_flow_through():
    plan = Plan("sq", square_worker, tuple(range(6)))
    meter = ProgressMeter(plan.n_items)
    execute(plan, jobs=2, progress=meter)
    snap = meter.snapshot()
    assert snap["items_done"] == 6
    assert snap["workers"]  # at least one worker accounted


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
