"""Fuzz-campaign engine tests: determinism, jobs parity, resume,
signatures, corpus persistence.

The fuzzer's one non-negotiable property is that a campaign is a pure
function of ``(seed, budget, size, seed_batch)`` — the corpus digest
must not depend on ``--jobs``, on checkpoint interruption, or on how
many times the run was resumed.  Budgets here are small (tens of
executions) to keep the suite fast; the CI ``fuzz-smoke`` job runs the
larger acceptance campaign.
"""

import json
import os

import pytest

from repro import obs
from repro.model import Model
from repro.verify.fuzz import (CorpusEntry, Finding, FuzzReport,
                               format_fuzz_report, fuzz, signature_tokens,
                               write_corpus)
from repro.verify.generator import generate
from repro.verify.oracle import verify_system
from repro.verify.shrink import ShrinkResult, failure_keys, shrink
from stopping_meter import StoppingMeter, Stopped

BUDGET = 24  # 16 seed systems + one mutation round


@pytest.fixture(scope="module")
def baseline():
    return fuzz(seed=7, budget=BUDGET, jobs=1)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_repeat_run_is_byte_identical(baseline):
    again = fuzz(seed=7, budget=BUDGET, jobs=1)
    assert again.digest() == baseline.digest()
    assert format_fuzz_report(again) == format_fuzz_report(baseline)


def test_jobs_parity(baseline):
    parallel = fuzz(seed=7, budget=BUDGET, jobs=3)
    assert parallel.digest() == baseline.digest()


def test_different_seed_different_digest(baseline):
    other = fuzz(seed=8, budget=BUDGET, jobs=1)
    assert other.digest() != baseline.digest()


def test_budget_prefix_property(baseline):
    """A shorter campaign is a strict prefix of a longer one: same
    coverage curve, same corpus admissions, for the shared rounds."""
    longer = fuzz(seed=7, budget=BUDGET + 16, jobs=1)
    n = len(baseline.coverage_curve)
    assert longer.coverage_curve[:n] == baseline.coverage_curve
    shared = len(baseline.corpus)
    assert [e.lineage for e in longer.corpus[:shared]] \
        == [e.lineage for e in baseline.corpus]


def test_campaign_makes_progress(baseline):
    assert baseline.executions == BUDGET
    assert baseline.rounds >= 2
    assert len(baseline.corpus) >= 1
    assert len(baseline.coverage) > 10
    # the seed round always contributes coverage
    assert baseline.coverage_curve[0][1] > 0


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
def test_interrupt_and_resume_matches_uninterrupted(baseline, tmp_path):
    checkpoint = str(tmp_path / "fuzz.journal")
    with pytest.raises(Stopped):
        fuzz(seed=7, budget=BUDGET, jobs=1, checkpoint=checkpoint,
             progress=StoppingMeter(4))
    # the first round's journal exists and holds the partial progress
    assert os.path.exists(checkpoint + ".round0000")
    resumed = fuzz(seed=7, budget=BUDGET, jobs=1, checkpoint=checkpoint,
                   resume=True)
    assert resumed.digest() == baseline.digest()


def test_full_checkpoint_then_resume_recovers_everything(baseline,
                                                         tmp_path):
    checkpoint = str(tmp_path / "fuzz.journal")
    first = fuzz(seed=7, budget=BUDGET, jobs=1, checkpoint=checkpoint)
    assert first.digest() == baseline.digest()
    # resume with every round journaled: nothing re-runs, same digest
    resumed = fuzz(seed=7, budget=BUDGET, jobs=1, checkpoint=checkpoint,
                   resume=True)
    assert resumed.digest() == baseline.digest()


# ----------------------------------------------------------------------
# Signature
# ----------------------------------------------------------------------
def test_signature_tokens_cover_all_layers():
    system = generate(3, "small")
    with obs.capture() as telemetry:
        verdict = verify_system(system)
        counters = telemetry.snapshot()["metrics"]["counters"]
    tokens = signature_tokens(verdict, counters)
    assert tokens == sorted(tokens)
    prefixes = {t.split(":", 1)[0] for t in tokens}
    assert "tight" in prefixes
    assert "ctr" in prefixes
    layers = {t.split(":")[1] for t in tokens if t.startswith("tight:")}
    assert "rta" in layers
    assert "tdma" in layers


def test_signature_is_deterministic():
    system = generate(4, "small")

    def run():
        with obs.capture() as telemetry:
            verdict = verify_system(system)
            counters = telemetry.snapshot()["metrics"]["counters"]
        return signature_tokens(verdict, counters)

    assert run() == run()


def test_signature_reacts_to_tightness_change():
    """Inflating a TDMA task's demand moves its tightness bucket — the
    exact signal that keeps pressure-increasing mutants alive."""
    from dataclasses import replace
    from repro.units import ms
    from repro.verify.mutate import _retask

    system = generate(3, "small")

    def tokens_of(sys_):
        with obs.capture() as telemetry:
            verdict = verify_system(sys_)
            counters = telemetry.snapshot()["metrics"]["counters"]
        return set(signature_tokens(verdict, counters))

    base = tokens_of(system)
    hp = system.tdma.hp_task("P0")
    hot = generate(3, "small")
    hot.tdma = replace(hot.tdma, tasks=tuple(
        _retask(t, wcet=ms(4), period=ms(20)) if t.name == hp.name else t
        for t in hot.tdma.tasks))
    assert tokens_of(hot) - base  # new tightness bucket reached


# ----------------------------------------------------------------------
# Findings and corpus persistence
# ----------------------------------------------------------------------
def _tdma_finding():
    """A realistic complete finding: the historic TDMA defect, shrunk
    under the pre-fix optimistic bound (see
    :func:`tests.test_verify_shrink.legacy_tdma_bound` — the shipped
    analysis no longer exhibits it)."""
    from tests.test_verify_shrink import (legacy_tdma_bound,
                                          overloaded_tdma_system)

    with legacy_tdma_bound():
        system, key = overloaded_tdma_system()
        result = shrink(system, key)
    return Finding(key, 17, ("seed:3", "m17:tdma-inflate"), 48, result)


def test_write_corpus_roundtrip(tmp_path):
    finding = _tdma_finding()
    report = FuzzReport(7, 100, "small", findings=[finding])
    paths = write_corpus(report, str(tmp_path))
    assert len(paths) == 1
    with open(paths[0], encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["failure"]["kind"] == "soundness"
    assert payload["failure"]["detail"] == "tdma"
    assert payload["shrink"]["complete"] is True
    assert payload["shrink"]["minimal_size"] \
        < payload["shrink"]["original_size"]
    # the persisted system still reproduces the failure at the
    # persisted horizon (under the legacy bound the finding came from)
    from tests.test_verify_shrink import legacy_tdma_bound

    system = Model.from_document(payload["system"]).build()
    key = (payload["failure"]["kind"], payload["failure"]["detail"],
           payload["failure"]["subject"])
    with legacy_tdma_bound():
        assert key in failure_keys(
            verify_system(system, payload["horizon"]))


def test_write_corpus_is_deterministic(tmp_path):
    finding = _tdma_finding()
    report = FuzzReport(7, 100, "small", findings=[finding])
    first = write_corpus(report, str(tmp_path / "a"))
    second = write_corpus(report, str(tmp_path / "b"))
    assert [os.path.basename(p) for p in first] \
        == [os.path.basename(p) for p in second]
    assert open(first[0]).read() == open(second[0]).read()


def test_incomplete_findings_are_not_persisted(tmp_path):
    finding = _tdma_finding()
    finding.shrink = ShrinkResult(
        finding.shrink.system, finding.shrink.key, finding.shrink.horizon,
        probes=3, accepted=1, complete=False)
    report = FuzzReport(7, 100, "small", findings=[finding])
    assert write_corpus(report, str(tmp_path)) == []


def test_unshrunk_property():
    complete = _tdma_finding()
    report = FuzzReport(7, 100, "small", findings=[complete])
    assert report.unshrunk == []
    truncated = _tdma_finding()
    truncated.shrink = ShrinkResult(
        truncated.shrink.system, truncated.shrink.key,
        truncated.shrink.horizon, probes=1, accepted=0, complete=False)
    report.findings.append(truncated)
    assert report.unshrunk == [truncated]


def test_until_dry_is_capped_by_budget(baseline):
    """With an unreachable dryness target the budget still terminates
    the campaign, and the digest matches the plain run (dry-run state
    is bookkeeping, never coverage)."""
    report = fuzz(seed=7, budget=BUDGET, jobs=1, until_dry=99)
    assert not report.terminated_dry
    assert report.executions == BUDGET
    assert report.digest() == baseline.digest()
    assert report.mutator_counts  # at least one mutation round ran
    assert sum(report.mutator_counts.values()) == BUDGET - 16


def test_until_dry_terminates_when_rounds_stop_producing():
    """A generous budget with a dryness target of 1 stops at the first
    round that admits nothing new, well before the budget."""
    report = fuzz(seed=7, budget=400, jobs=1, until_dry=1)
    assert report.terminated_dry
    assert report.dry_rounds >= 1
    assert report.executions < 400
    assert "terminated dry" in format_fuzz_report(report)


def test_dry_state_is_not_part_of_the_digest():
    plain = FuzzReport(7, 100, "small")
    dry = FuzzReport(7, 100, "small", dry_rounds=3, terminated_dry=True,
                     mutator_counts={"util-up": 4})
    assert plain.digest() == dry.digest()


def test_fuzz_metrics_emitted():
    obs.reset()
    obs.enable()
    try:
        fuzz(seed=7, budget=18, jobs=1)
        counters = obs.registry().snapshot()["counters"]
        gauges = obs.registry().snapshot()["gauges"]
    finally:
        obs.disable()
        obs.reset()
    assert counters.get("fuzz.execs") == 18
    assert gauges["fuzz.corpus_size"]["value"] >= 1
    assert gauges["fuzz.coverage_tokens"]["value"] > 10
