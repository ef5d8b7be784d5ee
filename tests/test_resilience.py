"""Resilience verification tests: detect / contain / recover verdicts
for injected bus- and ECU-level faults, guardian babbling-idiot
containment, watchdog escalation, and the fault-scenario plumbing
through validator, mutators, shrinker, and batch runner.
"""

import random

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.network import SlotGuardian
from repro.sim import Simulator, Trace
from repro.bsw.watchdog import WatchdogManager
from repro.units import ms, us
from repro.verify.generator import FaultScenario, generate
from repro.verify.mutate import (mutate_fault_babble, mutate_fault_chain,
                                 mutate_fault_drop, mutate_fault_flexray,
                                 MUTATORS, _retask, validate_system)
from repro.verify.oracle import verify_system
from repro.verify.resilience import (CHAIN_KINDS, ScenarioVerdict,
                                     format_resilience_report,
                                     min_duration, run_resilience,
                                     scenario_problems, standard_scenarios,
                                     verify_resilience)
from repro.verify.shrink import failure_keys


# ---------------------------------------------------------------------------
# Bus guardian: babbling-idiot containment
# ---------------------------------------------------------------------------
def test_guardian_permits_only_inside_the_window():
    guardian = SlotGuardian("N1", [(0, ms(2))], period=ms(10))
    assert guardian.permit(ms(1))
    assert not guardian.permit(ms(5))
    assert guardian.permit(ms(10) + ms(1))  # window repeats every period
    assert guardian.blocked_count == 1


def test_guardian_contains_a_babbling_idiot_completely():
    """A node with no window in the independent schedule copy never
    reaches the medium, no matter how fast it babbles."""
    guardian = SlotGuardian("BABBLER", [], period=ms(10))
    attempts = 50
    granted = [guardian.permit(us(137) * i) for i in range(attempts)]
    assert not any(granted)
    assert guardian.blocked_count == attempts


def test_disabled_guardian_is_a_pass_through():
    guardian = SlotGuardian("N1", [], period=ms(10), enabled=False)
    assert guardian.permit(ms(5))
    assert guardian.blocked_count == 0


def test_guardian_rejects_invalid_configuration():
    with pytest.raises(ConfigurationError):
        SlotGuardian("N1", [], period=0)
    with pytest.raises(ConfigurationError):
        SlotGuardian("N1", [(ms(9), ms(2))], period=ms(10))


def test_babble_scenario_is_gated_detected_and_contained():
    """End to end: the injected babbling controller is blocked by the
    guardian (detection evidence), other chains see no damage, and the
    system is healthy once the babble window closes."""
    system = generate(3, "small")
    system.faults = [s for s in standard_scenarios(system)
                     if s.kind == "tdma-babble"]
    assert len(system.faults) == 1
    [verdict] = verify_resilience(system)
    assert verdict.supported
    assert verdict.detected
    assert verdict.detection_source == "guardian.blocked"
    assert verdict.detection_latency <= verdict.detection_bound
    assert verdict.contained, verdict.escape_subjects
    assert verdict.recovered
    assert verdict.ok


# ---------------------------------------------------------------------------
# Watchdog: missed-deadline escalation
# ---------------------------------------------------------------------------
def test_watchdog_missed_windows_escalate_to_violation():
    sim = Simulator()
    trace = Trace()
    violated = []
    wdg = WatchdogManager(sim, trace, on_violation=violated.append)
    wdg.supervise("TaskA", window=ms(5), tolerance=1)

    sim.run_until(ms(6))  # first window missed: tolerated, logged
    assert wdg.status("TaskA") == {"violated": False, "missed_windows": 1}
    assert len(trace.records("wdg.missed", "TaskA")) == 1
    assert violated == []

    sim.run_until(ms(11))  # second consecutive miss: escalates
    assert wdg.status("TaskA")["violated"] is True
    assert violated == ["TaskA"]
    assert len(trace.records("wdg.violation", "TaskA")) == 1


def test_watchdog_kicks_prevent_escalation_and_reset_rearms():
    sim = Simulator()
    trace = Trace()
    wdg = WatchdogManager(sim, trace)
    wdg.supervise("TaskA", window=ms(5), tolerance=0)

    def alive():
        wdg.kick("TaskA")
        if sim.now < ms(20):  # the software "crashes" at 20 ms
            sim.schedule(ms(2), alive)

    alive()
    sim.run_until(ms(20))
    assert wdg.status("TaskA") == {"violated": False, "missed_windows": 0}
    assert wdg.reset("TaskA") is False  # healthy: nothing to clear

    # stop kicking: the next window escalates immediately (tolerance 0)
    sim.run_until(ms(40))
    assert wdg.status("TaskA")["violated"] is True
    # a watchdog-triggered restart clears the latch and re-arms
    assert wdg.reset("TaskA") is True
    assert wdg.status("TaskA") == {"violated": False, "missed_windows": 0}
    sim.run_until(ms(46))
    assert wdg.status("TaskA")["missed_windows"] >= 1


# ---------------------------------------------------------------------------
# Scenario validation
# ---------------------------------------------------------------------------
def test_scenario_floor_guarantees_detection_window():
    system = generate(3, "small")
    floor = min_duration(system, "e2e-loss")
    ok = FaultScenario("e2e-loss", 0, floor)
    short = FaultScenario("e2e-loss", 0, floor - 1)
    assert scenario_problems(system, ok) == []
    assert scenario_problems(system, short)
    system.faults = [short]
    assert validate_system(system)  # validator rejects under-floor windows


def test_scenario_validation_rejects_malformed_windows():
    system = generate(3, "small")
    assert scenario_problems(system, FaultScenario("no-such-kind", 0, ms(1)))
    assert scenario_problems(
        system, FaultScenario("e2e-loss", -1, min_duration(system,
                                                           "e2e-loss")))
    assert scenario_problems(system, FaultScenario("e2e-corruption", 0, 0))
    assert scenario_problems(
        system, FaultScenario("tdma-babble", 2_000_000_000, ms(1)))
    assert scenario_problems(
        system, FaultScenario("flexray-slot-loss", 0, ms(50), "NOPE"))


def test_standard_scenarios_are_valid_and_cover_all_kinds():
    system = generate(3, "small")
    scenarios = standard_scenarios(system)
    kinds = {s.kind for s in scenarios}
    assert set(CHAIN_KINDS) <= kinds
    assert "tdma-babble" in kinds
    assert "flexray-slot-loss" in kinds
    for scenario in scenarios:
        assert scenario_problems(system, scenario) == []


# ---------------------------------------------------------------------------
# Verdicts: detect / contain / recover
# ---------------------------------------------------------------------------
def test_standard_matrix_meets_every_obligation():
    system = generate(3, "small")
    system.faults = standard_scenarios(system)
    verdicts = verify_resilience(system)
    assert len(verdicts) == len(system.faults)
    supported = [v for v in verdicts if v.supported]
    assert supported
    for verdict in supported:
        assert verdict.ok, verdict.to_dict()
        if not verdict.detection_waived:
            assert verdict.detected
            assert verdict.detection_latency <= verdict.detection_bound
        assert verdict.contained
        if not verdict.recovery_waived:
            assert verdict.recovered


def test_a_baseline_unhealthy_on_its_own_waives_the_obligations():
    """A producer whose every job runs three periods starves its chain
    in the fault-free baseline too: the baseline's E2E evidence waives
    detection of every chain fault, and its confirmed DEM event waives
    recovery of every scenario, so no verdict blames the fault."""
    system = generate(3, "small")
    chain = system.chain
    system.tasksets[chain.producer_ecu] = [
        _retask(task, wcet=3 * task.period) if task.name == chain.producer
        else task for task in system.tasksets[chain.producer_ecu]]
    system.faults = standard_scenarios(system)
    verdicts = verify_resilience(system)
    assert len(verdicts) == len(system.faults)
    for verdict in verdicts:
        assert verdict.ok, verdict.to_dict()
        assert verdict.recovery_waived
        assert verdict.detection_waived == (
            verdict.scenario.kind in CHAIN_KINDS)


def test_unsupported_scenario_is_declined_not_failed():
    """A scenario whose subsystem was shrunk away is declined (like an
    analysis that cannot run), never reported as a violation."""
    system = generate(3, "small")
    scenario = FaultScenario("flexray-slot-loss", ms(1), ms(50), "GONE")
    system.faults = [scenario]
    [verdict] = verify_resilience(system)
    assert not verdict.supported
    assert verdict.violations() == []
    oracle_verdict = verify_system(system)
    assert f"resilience:{scenario.label()}" in oracle_verdict.declined
    assert not [v for v in oracle_verdict.invariant_violations
                if v.invariant.startswith("resilience:")]


def test_unmet_obligations_become_failure_keys():
    """An undetected / escaped / unrecovered verdict surfaces through
    the same Violation type the shrinker and fuzzer key on."""
    scenario = FaultScenario("e2e-loss", ms(10), ms(100))
    verdict = ScenarioVerdict(scenario, supported=True, horizon=ms(500),
                              detected=False, detection_bound=ms(40),
                              contained=False, escaped=2,
                              escape_subjects=["T9", "T9"],
                              recovered=False)
    invariants = [v.invariant for v in verdict.violations()]
    assert invariants == ["resilience:detect", "resilience:contain",
                          "resilience:recover"]
    assert all(v.subject == scenario.label()
               for v in verdict.violations())
    assert not verdict.ok


def test_late_detection_violates_the_bound():
    scenario = FaultScenario("e2e-corruption", ms(10), ms(100))
    verdict = ScenarioVerdict(scenario, supported=True, horizon=ms(500),
                              detected=True, detection_time=ms(70),
                              detection_latency=ms(60),
                              detection_bound=ms(40))
    assert [v.invariant for v in verdict.violations()] \
        == ["resilience:detect"]


def test_verify_system_runs_attached_scenarios_and_emits_telemetry():
    system = generate(3, "small")
    system.faults = standard_scenarios(system)
    with obs.capture() as telemetry:
        verdict = verify_system(system)
        counters = telemetry.snapshot()["metrics"]["counters"]
    assert not [v for v in verdict.invariant_violations
                if v.invariant.startswith("resilience:")]
    assert counters.get("resilience.scenarios") == len(system.faults)
    assert any(name.startswith("resilience.detected_by.")
               for name in counters)
    assert failure_keys(verdict) == frozenset()


# ---------------------------------------------------------------------------
# Fault-scenario mutators and shrinking
# ---------------------------------------------------------------------------
def test_fault_mutators_are_registered():
    names = [name for name, _fn in MUTATORS]
    for expected in ("fault-chain", "fault-babble", "fault-fr-slot",
                     "fault-drop"):
        assert expected in names


def test_fault_mutators_attach_valid_scenarios():
    system = generate(3, "small")
    for mutator in (mutate_fault_chain, mutate_fault_babble,
                    mutate_fault_flexray):
        mutant = mutator(random.Random(5), system)
        assert mutant is not None
        assert len(mutant.faults) == len(system.faults) + 1
        assert validate_system(mutant) == []
        assert system.faults == []  # the input is never mutated in place


def test_fault_drop_mutator_removes_a_scenario():
    system = generate(3, "small")
    assert mutate_fault_drop(random.Random(5), system) is None  # nothing
    system.faults = standard_scenarios(system)[:2]
    mutant = mutate_fault_drop(random.Random(5), system)
    assert mutant is not None
    assert len(mutant.faults) == 1


def test_shrink_drops_fault_scenarios_unrelated_to_the_failure():
    """A TDMA soundness failure does not need the injected chain fault
    — the shrinker sheds the scenario on the way to the minimum."""
    from tests.test_verify_shrink import (legacy_tdma_bound,
                                          overloaded_tdma_system)
    from repro.verify.shrink import shrink, system_size

    with legacy_tdma_bound():
        system, key = overloaded_tdma_system()
        system.faults = [s for s in standard_scenarios(system)
                         if s.kind == "e2e-loss"]
        assert validate_system(system) == []
        before = system_size(system)
        result = shrink(system, key)
    assert result.system.faults == []
    assert system_size(result.system) < before


# ---------------------------------------------------------------------------
# Batch runner (the CLI / CI face)
# ---------------------------------------------------------------------------
def test_run_resilience_is_deterministic_and_jobs_invariant():
    base = run_resilience(11, 2, "small", jobs=1)
    assert base.passed
    assert base.unmet == 0
    parallel = run_resilience(11, 2, "small", jobs=2)
    assert parallel.digest() == base.digest()


def test_resilience_report_format_names_every_kind():
    report = run_resilience(11, 1, "small", jobs=1)
    text = format_resilience_report(report)
    assert "verdict: PASS" in text
    assert "report digest: sha256:" in text
    for kind in CHAIN_KINDS + ("tdma-babble", "flexray-slot-loss"):
        assert kind in text
