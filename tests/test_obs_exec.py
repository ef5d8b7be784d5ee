"""Telemetry × execution engine: the jobs-invariance contract.

The merged telemetry of a plan execution must be digest-identical for
``jobs=1``, ``jobs=N`` and resumed runs — the same guarantee the engine
gives for results, extended to the observability layer."""

import pytest

from repro import obs
from repro.exec import Plan, ProgressMeter, execute
from stopping_meter import StoppingMeter, Stopped


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def counting_worker(item):
    obs.count("work.items")
    obs.observe("work.value_ns", item * 1_000)
    obs.dlt(item, obs.INFO, "W", "APP", str(item), "did item")
    with obs.span("work.item", index=item):
        pass
    return item * 2


def plain_worker(item):
    return item + 1


PLAN_ITEMS = tuple(range(10))


def run_plan(jobs, **kwargs):
    plan = Plan("obs-parity", counting_worker, PLAN_ITEMS)
    return execute(plan, jobs=jobs, **kwargs)


def test_jobs_parity_digest_and_snapshot():
    obs.enable()
    outcome1 = run_plan(1)
    digest1 = obs.digest()
    view1 = obs.registry().deterministic_view()
    dlt1 = [(r.timestamp, r.context_id) for r in obs.dlt_channel().records]

    obs.reset()
    outcome2 = run_plan(2)
    digest2 = obs.digest()
    view2 = obs.registry().deterministic_view()
    dlt2 = [(r.timestamp, r.context_id) for r in obs.dlt_channel().records]

    assert outcome1 == outcome2
    assert digest1 == digest2
    assert view1 == view2
    assert dlt1 == dlt2  # DLT merges in plan order too
    assert view1["counters"]["work.items"] == len(PLAN_ITEMS)
    assert view1["counters"]["span.work.item"] == len(PLAN_ITEMS)
    assert view1["counters"]["span.exec.chunk"] == len(PLAN_ITEMS)


def test_span_records_merge_in_plan_order():
    obs.enable()
    run_plan(2)
    indices = [r.args["index"] for r in obs.spans().records
               if r.name == "work.item"]
    assert indices == list(PLAN_ITEMS)


def test_disabled_run_collects_nothing():
    run_plan(2)
    assert len(obs.registry()) == 0
    assert len(obs.spans()) == 0


def test_capture_isolates_ambient_scope():
    obs.enable()
    obs.count("ambient")
    with obs.capture() as telemetry:
        obs.count("inner", 3)
    snap = telemetry.snapshot()
    assert snap["metrics"]["counters"] == {"inner": 3}
    # Ambient scope neither lost its data nor absorbed the capture.
    assert obs.registry().snapshot()["counters"] == {"ambient": 1}
    obs.merge_snapshot(snap)
    assert obs.registry().snapshot()["counters"] == {"ambient": 1,
                                                     "inner": 3}


def test_capture_restores_disabled_flag():
    assert not obs.enabled()
    with obs.capture():
        assert obs.enabled()
    assert not obs.enabled()


def test_resume_telemetry_parity(tmp_path):
    path = tmp_path / "journal.jsonl"
    obs.enable()
    run_plan(1)
    baseline = obs.digest()

    obs.reset()
    with pytest.raises(Stopped):
        run_plan(1, checkpoint=path, progress=StoppingMeter(2))
    obs.reset()  # the interrupted run's partial telemetry is discarded
    meter = ProgressMeter(len(PLAN_ITEMS))
    run_plan(1, checkpoint=path, resume=True, progress=meter)
    assert meter.items_resumed == 2
    assert meter.items_done == 8
    assert obs.digest() == baseline


def test_resumed_journal_without_telemetry_still_resumes(tmp_path):
    # A journal written with telemetry disabled has no telemetry keys;
    # resuming it with telemetry enabled must not fail (resumed items
    # simply contribute no telemetry).
    path = tmp_path / "journal.jsonl"
    plan = Plan("plain", plain_worker, PLAN_ITEMS)
    with pytest.raises(Stopped):
        execute(plan, checkpoint=path, progress=StoppingMeter(2))
    obs.enable()
    meter = ProgressMeter(plan.n_items)
    execute(plan, checkpoint=path, resume=True, progress=meter)
    assert meter.items_resumed == 2


def test_meter_reports_resumed_vs_executed_items(tmp_path):
    path = tmp_path / "journal.jsonl"
    plan = Plan("plain", plain_worker, PLAN_ITEMS)
    with pytest.raises(Stopped):
        execute(plan, checkpoint=path, progress=StoppingMeter(3))
    meter = ProgressMeter(plan.n_items)
    execute(plan, checkpoint=path, resume=True, progress=meter)
    assert meter.items_resumed == 3
    assert meter.items_done == 7
    assert meter.snapshot()["items_resumed"] == 3
    assert meter.snapshot()["items_done"] == 7


def test_progress_rate_excludes_resumed_items():
    from repro.exec import ProgressMeter

    now = [0.0]
    meter = ProgressMeter(40, clock=lambda: now[0])
    for _ in range(30):
        meter.item_resumed()       # journal replay: instant, not work
    now[0] = 5.0
    for _ in range(10):
        meter.item_done(elapsed=0.5, worker=1)
    # 10 fresh items over 5 s — NOT (30+10)/5: replay must not inflate.
    assert meter.items_per_second == pytest.approx(2.0)
    assert meter.eta_seconds == pytest.approx(0.0)
    line = meter.format_line()
    assert "(30 resumed)" in line and "2.0 items/s" in line
