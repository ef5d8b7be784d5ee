"""Tests for the fault-campaign runner and its reference scenario."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import (BABBLING, CORRUPTION, CRASH, CampaignCell,
                          OMISSION, ReferenceWorld, TIMING_OVERRUN, grid,
                          reference_cells, run_campaign, run_cell)
from repro.analysis import format_robustness, robustness_report
from repro.units import ms

HORIZON = ms(300)


def run_reference(cells=None):
    return run_campaign(ReferenceWorld, cells or reference_cells(),
                        horizon=HORIZON)


# Run the full 5-kind matrix once and share the report across tests.
@pytest.fixture(scope="module")
def report():
    return run_reference()


def by_kind(report, kind):
    (result,) = [r for r in report.results if r.cell.kind == kind]
    return result


def test_grid_builds_cartesian_matrix_with_pruning():
    cells = grid([CORRUPTION, CRASH], ["speed", "producer"], [ms(10)],
                 [ms(20)],
                 supported=lambda kind, target:
                 not (kind == CRASH and target == "speed"))
    labels = [c.label for c in cells]
    assert len(cells) == 3
    assert f"{CRASH}@speed+{ms(10)}" not in labels
    assert cells[0].end == ms(30)


def test_run_cell_rejects_window_beyond_horizon():
    cell = CampaignCell(CORRUPTION, "speed", onset=ms(50), duration=ms(400),
                        params={"value": 0xFFFF})
    with pytest.raises(ConfigurationError):
        run_cell(ReferenceWorld, cell, horizon=HORIZON)


def test_reference_campaign_digest_is_pinned(report):
    assert report.digest().startswith("99ce9f4ecf9aadd6")


# Per reference cell (onset 50 ms, horizon 300 ms): kernel events run,
# trace records and the start of the trace digest.  The frame path (CAN
# arbitration, COM, E2E) may get faster but must not change any of them.
REFERENCE_CELL_PINS = {
    CORRUPTION: (274, 287, "2257ea412fa9f450"),
    OMISSION: (274, 267, "2bccd37d5f618407"),
    BABBLING: (2271, 1695, "c302f433d5f382ff"),
    CRASH: (240, 269, "5a15a0db071c7dd3"),
    TIMING_OVERRUN: (270, 299, "8aa53e728f0a0db6"),
}


def test_reference_cell_simulations_are_pinned(monkeypatch):
    import itertools

    import repro.osek.task as osek_task

    # Job ids come from a process-global counter and land in trace
    # records: restart it and run the cells in reference order, as a
    # fresh process running the reference matrix does.
    monkeypatch.setattr(osek_task, "_job_seq", itertools.count())
    got = {}
    for cell in reference_cells():
        world = ReferenceWorld()
        world.injector.inject(world.adapter_for(cell), cell.fault())
        world.sim.run_until(HORIZON)
        got[cell.kind] = (world.sim.executed, len(world.trace),
                          world.trace.digest()[:16])
    assert got == REFERENCE_CELL_PINS


@pytest.mark.parametrize("value", [-1, 1 << 16, 1 << 70, "x"],
                         ids=["negative", "counter_bit", "huge", "str"])
def test_corruption_value_outside_the_signal_is_rejected(value):
    # A stuck value must fit the 16-bit speed signal: 1 << 16 would
    # land in the E2E counter field, the others fail mid-run.
    world = ReferenceWorld()
    cell = CampaignCell(CORRUPTION, "speed", onset=ms(50), duration=ms(100),
                        params={"value": value})
    with pytest.raises(ConfigurationError, match="signal speed"):
        world.injector.inject(world.adapter_for(cell), cell.fault())
    assert world.injector.faults == []


@pytest.mark.parametrize("value", [0, 0xFFFF])
def test_corruption_value_inside_the_signal_is_accepted(value):
    cell = CampaignCell(CORRUPTION, "speed", onset=ms(50), duration=ms(100),
                        params={"value": value})
    result = run_cell(ReferenceWorld, cell, horizon=HORIZON)
    assert result.detected


def test_every_fault_kind_is_detected(report):
    assert report.cells == 5
    assert report.detection_rate == 1.0
    assert not report.summary()["undetected"]


def test_detection_latency_within_supervision_budget(report):
    # Every detector must fire within the slowest supervision budget
    # (the 30 ms E2E reception timeout).
    for result in report.results:
        assert result.detection_latency is not None
        assert result.detection_latency <= ReferenceWorld.E2E_TIMEOUT, \
            result.cell.label


def test_expected_detectors_fire(report):
    from repro.faults.campaign import DTC_PRODUCER_ALIVE, DTC_SPEED_E2E
    expectations = {
        CORRUPTION: ("e2e.crc_error", DTC_SPEED_E2E),
        OMISSION: ("e2e.timeout", DTC_SPEED_E2E),
        BABBLING: ("e2e.timeout", DTC_SPEED_E2E),
        CRASH: ("wdg.violation", DTC_PRODUCER_ALIVE),
        TIMING_OVERRUN: ("task.budget_overrun", DTC_PRODUCER_ALIVE),
    }
    for kind, (source, dtc) in expectations.items():
        result = by_kind(report, kind)
        assert result.detection_source == source, kind
        assert dtc in result.confirmed_dtcs, kind


def test_every_cell_degrades_then_recovers(report):
    assert report.recovery_rate == 1.0
    for result in report.results:
        assert result.degraded, result.cell.label
        assert result.recovered, result.cell.label
        assert result.recovery_time is not None
        assert result.cell.end <= result.recovery_time <= HORIZON


def test_zero_undetected_corrupted_deliveries(report):
    for result in report.results:
        assert result.extra["undetected_corrupted"] == 0, result.cell.label
        assert result.extra["app_deliveries"] > 0, result.cell.label


def test_containment_matches_the_paper(report):
    # CAN cannot contain a babbling idiot (paper Section 4); every
    # other fault stays inside its region.
    for result in report.results:
        expected = result.cell.kind != BABBLING
        assert result.contained == expected, result.cell.label
    assert report.containment_rate == pytest.approx(4 / 5)


def test_corruption_cell_substitutes_while_faulty():
    cell = reference_cells()[0]
    assert cell.kind == CORRUPTION
    world = ReferenceWorld()
    world.injector.inject(world.adapter_for(cell), cell.fault())
    # Stop mid-window (fault runs 50..150 ms): the orchestrator must be
    # holding the substitute in place while the error stays confirmed.
    world.sim.run_until(ms(120))
    assert world.rx.substituted_signals() == ["speed"]
    assert world.errors.confirmed_events()


def test_report_rows_are_flat_dicts(report):
    rows = report.to_dicts()
    assert len(rows) == 5
    for row in rows:
        assert row["detected"] is True
        assert "undetected_corrupted" in row
        assert isinstance(row["dtcs"], list)


def test_robustness_report_and_formatting(report):
    analysis = robustness_report(report)
    assert analysis["summary"]["detection_rate"] == 1.0
    assert set(analysis["by_kind"]) == {CORRUPTION, OMISSION, BABBLING,
                                        CRASH, TIMING_OVERRUN}
    text = format_robustness(analysis)
    assert "detection" in text and "recovery" in text
    assert BABBLING in text  # the escaped-containment cell is named


def test_cells_are_independent_and_deterministic():
    cell = reference_cells()[0]
    first = run_cell(ReferenceWorld, cell, horizon=HORIZON)
    second = run_cell(ReferenceWorld, cell, horizon=HORIZON)
    assert first.to_dict() == second.to_dict()


def test_cli_campaign_smoke(capsys):
    from repro.__main__ import main
    assert main(["repro", "campaign", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    assert "undetected corrupted deliveries: 0" in out
    assert "report digest: sha256:749b43a47a6da8c4" in out


def test_identical_scenario_yields_byte_identical_report():
    # Determinism gate: the same cells against fresh worlds must produce
    # a byte-identical robustness report, down to every latency sample.
    import json

    first = run_reference(reference_cells()[:2])
    second = run_reference(reference_cells()[:2])
    assert json.dumps(first.to_dicts(), sort_keys=True) == \
        json.dumps(second.to_dicts(), sort_keys=True)
    assert format_robustness(robustness_report(first)) == \
        format_robustness(robustness_report(second))


def test_robustness_report_carries_the_campaign_digest():
    cells = reference_cells()[:1]
    report = run_campaign(ReferenceWorld, cells, horizon=HORIZON)
    assert robustness_report(report)["digest"] == report.digest()


def test_parallel_campaign_matches_serial_digest():
    # The repro.exec scaling guarantee at campaign level: any job count
    # merges back to the byte-identical report.
    cells = reference_cells()[:3]
    serial = run_campaign(ReferenceWorld, cells, horizon=HORIZON)
    parallel = run_campaign(ReferenceWorld, cells, horizon=HORIZON, jobs=2)
    assert serial.digest() == parallel.digest()
    assert serial.to_dicts() == parallel.to_dicts()


def test_campaign_digest_is_order_independent():
    from repro.faults.campaign import CampaignReport

    cells = reference_cells()[:2]
    report = run_campaign(ReferenceWorld, cells, horizon=HORIZON)
    shuffled = CampaignReport(list(reversed(report.results)),
                              report.horizon)
    assert shuffled.digest() == report.digest()


def test_interrupted_campaign_resumes_to_identical_digest(tmp_path):
    from repro.errors import ExecutionInterrupted

    path = tmp_path / "campaign.jsonl"
    cells = reference_cells()[:3]
    uninterrupted = run_campaign(ReferenceWorld, cells, horizon=HORIZON)
    with pytest.raises(ExecutionInterrupted):
        run_campaign(ReferenceWorld, cells, horizon=HORIZON,
                     checkpoint=path, interrupt_after=1)
    resumed = run_campaign(ReferenceWorld, cells, horizon=HORIZON,
                           checkpoint=path, resume=True)
    assert resumed.digest() == uninterrupted.digest()
