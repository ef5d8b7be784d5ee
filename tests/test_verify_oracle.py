"""Tests for the differential analysis-vs-simulation oracle."""

import pytest

from repro.verify import (analyze_bounds, format_report, generate,
                          verify_many, verify_system)
from repro.verify.oracle import LAYERS


def test_analyze_bounds_covers_every_layer_without_simulating():
    bounds, declined = analyze_bounds(generate(7))
    layers = {layer for layer, __, __ in bounds}
    assert layers == set(LAYERS)
    assert all(bound >= 0 for __, __, bound in bounds)
    # Whatever declines is reported, never silently dropped.
    assert all(":" in entry for entry in declined)


def test_dynamic_frame_behind_an_oversized_frame_is_declined():
    """12 minislots of 10 us; frame ID 1 of 254 bytes needs 22 of them
    and never transmits, so neither does ID 2 (4 bytes) behind it.  The
    check of ID 2 is declined, not passed on zero observations."""
    from repro.network.flexray import DynamicFrameSpec, FlexRayConfig
    from repro.units import us
    from repro.verify.generator import (DynamicWriter, FlexRayPlan,
                                        GeneratedSystem)
    from repro.verify.oracle import build_system

    config = FlexRayConfig(slot_length=us(100), n_static_slots=2,
                           minislot_length=us(10), n_minislots=12)
    cycle = config.cycle_length
    system = GeneratedSystem("fr-blocked", 0, "small", flexray=FlexRayPlan(
        config, ("N0", "N1"), (),
        (DynamicWriter(DynamicFrameSpec("BIG", 1, 254), "N0", cycle, 0),
         DynamicWriter(DynamicFrameSpec("SMALL", 2, 4), "N1", cycle, 0))))
    built = build_system(system)
    built.sim.run_until(built.horizon)
    assert len(built.trace.records("flexray.cycle")) > 2
    assert built.trace.records("flexray.rx_dynamic") == []
    bounds, declined = analyze_bounds(system)
    assert bounds == []
    assert declined == ["flexray_dynamic:BIG", "flexray_dynamic:SMALL"]
    verdict = verify_system(system)
    assert "flexray_dynamic:SMALL" in verdict.declined
    assert verdict.checks == []


def test_single_system_verdict_is_sound_and_fully_observed():
    verdict = verify_system(generate(7))
    assert verdict.soundness_violations == []
    assert verdict.invariant_violations == []
    assert verdict.records > 0
    by_layer = {}
    for check in verdict.checks:
        by_layer.setdefault(check.layer, []).append(check)
    # Every layer produced at least one actual measurement.
    for layer in LAYERS:
        assert any(c.observed is not None for c in by_layer[layer])
    # Tightness is >= 1 exactly when the bound holds.
    for check in verdict.checks:
        if check.observed:
            assert (check.tightness >= 1.0) == check.sound


def test_smoke_batch_passes_and_is_deterministic():
    first = verify_many(7, 2)
    second = verify_many(7, 2)
    assert first.passed and second.passed
    assert first.digest() == second.digest()
    report = format_report(first)
    assert "verdict: PASS" in report
    assert first.digest() in report


def test_layer_summary_counts_add_up():
    report = verify_many(3, 2)
    summary = report.layer_summary()
    total = sum(row["checks"] for row in summary.values())
    assert total == sum(len(v.checks) for v in report.verdicts)
    for row in summary.values():
        assert row["violations"] == 0
        if row["tightness_min"] is not None:
            assert row["tightness_min"] >= 1.0
            assert row["tightness_min"] <= row["tightness_median"] \
                <= row["tightness_max"]


def test_ci_smoke_batch_of_five_systems_is_clean():
    report = verify_many(7, 5)
    assert report.soundness_violations == 0
    assert report.invariant_violations == 0
    assert report.passed


@pytest.mark.slow
def test_acceptance_batch_of_25_systems_clean_and_deterministic():
    first = verify_many(7, 25)
    assert first.soundness_violations == 0
    assert first.invariant_violations == 0
    assert first.passed
    second = verify_many(7, 25)
    assert first.digest() == second.digest()


@pytest.mark.slow
def test_medium_systems_also_verify_cleanly():
    report = verify_many(11, 5, "medium")
    assert report.passed


def test_parallel_verification_matches_serial_digest():
    serial = verify_many(7, 4)
    parallel = verify_many(7, 4, jobs=2)
    assert serial.passed and parallel.passed
    assert serial.digest() == parallel.digest()
    assert format_report(serial) == format_report(parallel)


def test_report_digest_ignores_verdict_emission_order():
    # Satellite regression: the digest is computed from the *sorted*
    # per-system verdicts, so it survives any executor's completion
    # order.
    report = verify_many(7, 3)
    report.verdicts.reverse()
    assert report.digest() == verify_many(7, 3).digest()


def test_interrupted_verification_resumes_to_identical_digest(tmp_path):
    from stopping_meter import StoppingMeter, Stopped

    path = tmp_path / "verify.jsonl"
    uninterrupted = verify_many(7, 4)
    with pytest.raises(Stopped):
        verify_many(7, 4, checkpoint=path, progress=StoppingMeter(2))
    resumed = verify_many(7, 4, checkpoint=path, resume=True)
    assert resumed.digest() == uninterrupted.digest()
    assert resumed.passed


# ----------------------------------------------------------------------
# Zero-observation robustness (regression: fuzzing empty-chain and
# shrunk degenerate systems used to leak None/ZeroDivisionError into
# tightness and crash the builder on missing subsystems)
# ----------------------------------------------------------------------
def test_tightness_is_none_for_unobserved_and_zero_observations():
    from repro.verify.oracle import Check

    unobserved = Check("e2e", "CHAIN", bound=1000, observed=None, samples=0)
    assert unobserved.tightness is None
    assert unobserved.sound  # vacuously
    zero = Check("e2e", "CHAIN", bound=1000, observed=0, samples=3)
    assert zero.tightness is None  # ratio undefined, not a crash
    assert zero.sound
    assert zero.to_dict()["tightness"] is None


def test_layer_summary_handles_zero_observation_layers():
    import json

    report = verify_many(7, 2)
    # blank out one whole layer's observations, as an empty-chain
    # mutant would produce
    for verdict in report.verdicts:
        for check in verdict.checks:
            if check.layer == "e2e":
                check.observed = None
                check.samples = 0
    summary = report.layer_summary()
    row = summary["e2e"]
    assert row["checks"] >= 1
    assert row["measured"] == 0
    assert row["tightness_min"] is None
    assert row["tightness_median"] is None
    # the report still renders and digests without leaking None
    # arithmetic anywhere
    assert "e2e" in format_report(report)
    json.dumps(report.to_dict())
    assert len(report.digest()) == 64


@pytest.mark.parametrize("drop", ["chain", "can", "flexray", "tdma"])
def test_verify_system_survives_missing_subsystems(drop):
    system = generate(9, "small")
    if drop == "can":
        system.chain = None  # a chain cannot outlive its bus
    setattr(system, drop, None)
    verdict = verify_system(system)
    assert verdict.soundness_violations == []
    assert verdict.invariant_violations == []
    layers = {c.layer for c in verdict.checks}
    dropped_layers = {"chain": {"e2e"}, "can": {"can", "e2e"},
                      "flexray": {"flexray_static", "flexray_dynamic"},
                      "tdma": {"tdma"}}[drop]
    assert layers.isdisjoint(dropped_layers)


def test_verify_system_survives_minimal_degenerate_system():
    """The shrinker's end state: nothing but a TDMA plan."""
    system = generate(9, "small")
    system.chain = None
    system.can = None
    system.flexray = None
    system.tasksets = {}
    system.critical_sections = []
    system.resources = {}
    verdict = verify_system(system)
    assert verdict.checks  # the tdma layer still gets verified
    assert all(c.layer == "tdma" for c in verdict.checks)
    assert verdict.soundness_violations == []
