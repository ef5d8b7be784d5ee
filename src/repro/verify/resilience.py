"""Resilience verification: recovery under injected bus and ECU faults.

The differential oracle (:mod:`repro.verify.oracle`) checks that a
fault-*free* system stays inside its analytic bounds.  This module
checks the complement the paper actually argues for — that a system
carrying the full protection stack (E2E, watchdog, DEM, bus guardian,
recovery orchestrator) *survives* faults:

* **detected** — every injected fault produces its mechanism's
  detection evidence within an analytic detection-latency bound
  (E2E timeout/CRC, watchdog violation, guardian block, slot-loss);
* **contained** — no damage records outside the fault's containment
  region (babbling is physically gated by the guardian, a crashed
  producer only starves its own chain);
* **recovered** — after the fault window closes, the hysteresis
  policy (substitute → degrade → restart) heals every confirmed
  error and returns the mode machine to nominal.

Each :class:`~repro.verify.generator.FaultScenario` attached to a
generated system runs in its *own* fresh simulation, compared against
a fault-free **baseline** run to the same horizon: a mutated system
that nominally misses deadlines or times out (overload, not fault
effects) must not be blamed on the injected fault, so baseline damage
subjects are subtracted from containment, and detection/recovery
obligations are waived when the baseline already shows the same
evidence or ends unhealthy on its own.

Unmet obligations surface as :class:`~repro.verify.invariants.Violation`
rows (``resilience:detect`` / ``resilience:contain`` /
``resilience:recover``), which makes them first-class citizens of the
fuzzer's failure keys and the shrinker.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.digest import canonical_digest
from repro.errors import ConfigurationError
from repro.faults.campaign import DETECTION_CATEGORIES
from repro.faults.injector import (CanBusErrorAdapter, CanNodeAdapter,
                                   ComDelayAdapter, ComSignalAdapter,
                                   FaultInjector, FlexRaySlotAdapter,
                                   GuardedCanNodeAdapter, TaskAdapter)
from repro.faults.model import (BABBLING, CORRUPTION, CRASH, DELAY, Fault,
                                OMISSION)
from repro.faults.monitor import (containment_violations,
                                  first_detection, last_recovery)
from repro.network.guardian import SlotGuardian
from repro.units import ms
from repro.verify.generator import FaultScenario, GeneratedSystem
from repro.verify.invariants import Violation

#: DTCs stored by the resilience recovery stack.
DTC_CHAIN_E2E = 0x5B01
DTC_PRODUCER_ALIVE = 0x5B02

#: Scenario kinds whose injection point is the E2E-protected chain
#: (they require both a chain and a CAN bus).
CHAIN_KINDS = ("e2e-corruption", "e2e-loss", "e2e-delay",
               "can-error-burst", "can-bus-off", "ecu-reset")

#: Upper bound on any scenario window's end (keeps hostile corpus
#: files from demanding absurdly long simulations).
MAX_SCENARIO_END = 1_000_000_000  # 1 s


def _wdg_window(period: int) -> int:
    """Producer alive-supervision window: 2.5 chain periods."""
    return 2 * period + period // 2


def _hold(period: int) -> int:
    """Escalation/heal hysteresis hold: 2 chain periods."""
    return 2 * period


def _flood_period(system: GeneratedSystem) -> int:
    """Babbling-idiot transmission attempt period."""
    base = system.chain.period if system.chain is not None else ms(4)
    return max(1, base // 8)


def min_duration(system: GeneratedSystem, kind: str, target: str = "") -> int:
    """Smallest fault window for which detection is *guaranteed*.

    A loss window shorter than the E2E timeout is legitimately
    invisible; a crash shorter than the watchdog window never misses a
    deadline.  Scenario generators (and :func:`scenario_problems`) keep
    windows at or above this floor so an undetected fault is always a
    real defect, never an under-sized experiment.
    """
    chain = system.chain
    if kind == "e2e-corruption":
        return 2 * chain.period
    if kind in ("e2e-loss", "e2e-delay", "can-error-burst", "can-bus-off"):
        return chain.timeout + 2 * chain.period
    if kind == "ecu-reset":
        return 3 * _wdg_window(chain.period) + chain.period
    if kind == "flexray-slot-loss":
        writer = _static_writer(system, target)
        cycle = system.flexray.config.cycle_length
        return 2 * writer.period + 2 * cycle
    if kind == "tdma-babble":
        return 4 * _flood_period(system)
    raise ConfigurationError(f"unknown scenario kind {kind!r}")


def _static_writer(system: GeneratedSystem, frame_name: str):
    for writer in system.flexray.static_writers:
        if writer.assignment.frame_name == frame_name:
            return writer
    raise ConfigurationError(
        f"no static writer for frame {frame_name!r}")


def scenario_problems(system: GeneratedSystem,
                      scenario: FaultScenario) -> list[str]:
    """Validation problems of one scenario against its system.

    Used by :func:`repro.verify.mutate.validate_system`; an empty list
    means the scenario is well-formed *and* its window is large enough
    for detection to be guaranteed (see :func:`min_duration`).
    """
    problems: list[str] = []
    label = scenario.label()
    if scenario.kind not in _ALL_KINDS:
        return [f"fault {label}: unknown kind"]
    if scenario.start < 0:
        problems.append(f"fault {label}: start must be >= 0")
    if scenario.duration <= 0:
        problems.append(f"fault {label}: duration must be > 0")
        return problems
    if scenario.end > MAX_SCENARIO_END:
        problems.append(f"fault {label}: window ends after "
                        f"{MAX_SCENARIO_END} ns")
        return problems
    if scenario.kind in CHAIN_KINDS:
        if system.chain is None or system.can is None:
            problems.append(
                f"fault {label}: requires an E2E chain over CAN")
            return problems
    elif scenario.kind == "tdma-babble":
        if system.can is None:
            problems.append(f"fault {label}: requires a CAN bus")
            return problems
    elif scenario.kind == "flexray-slot-loss":
        if system.flexray is None:
            problems.append(f"fault {label}: requires a FlexRay cluster")
            return problems
        frames = {w.assignment.frame_name
                  for w in system.flexray.static_writers}
        if scenario.target not in frames:
            problems.append(
                f"fault {label}: target {scenario.target!r} is not a "
                f"static writer frame")
            return problems
    floor = min_duration(system, scenario.kind, scenario.target)
    if scenario.duration < floor:
        problems.append(
            f"fault {label}: duration {scenario.duration} below the "
            f"guaranteed-detection floor {floor}")
    return problems


_ALL_KINDS = CHAIN_KINDS + ("flexray-slot-loss", "tdma-babble")


# ----------------------------------------------------------------------
# The world: built system + recovery stack
# ----------------------------------------------------------------------
class ResilienceWorld:
    """One scenario's universe: the generated system on the simulation
    stack plus the full protection/recovery wiring on its E2E chain
    (mirroring :class:`repro.faults.campaign.ReferenceWorld`, scaled to
    the chain's period)."""

    def __init__(self, system: GeneratedSystem):
        from repro.bsw import (ErrorEvent, ErrorManager, ModeMachine,
                               RecoveryOrchestrator, RecoveryPolicy,
                               WatchdogManager)
        from repro.verify.oracle import build_system

        self.system = system
        self.built = build_system(system)
        self.sim = self.built.sim
        self.trace = self.built.trace
        self.injector = FaultInjector(self.sim, self.trace)
        self.errors = None
        self.modes = None
        self.watchdog = None
        self.recovery = None
        chain = system.chain
        if chain is None or system.can is None \
                or self.built.receiver is None:
            return

        period = chain.period
        self.wdg_window = _wdg_window(period)
        self.hold = _hold(period)
        kernel = self.built.kernels[chain.producer_ecu]
        self.watchdog = WatchdogManager(self.sim, trace=self.trace,
                                        name="WDG")
        self.watchdog.supervise_task(kernel, chain.producer,
                                     window=self.wdg_window)
        self.errors = ErrorManager("SYS", trace=self.trace,
                                   now=lambda: self.sim.now)
        self.errors.register(ErrorEvent("chain_e2e", DTC_CHAIN_E2E,
                                        threshold=2))
        self.errors.register(ErrorEvent("producer_alive",
                                        DTC_PRODUCER_ALIVE,
                                        threshold=2, fail_step=2))
        self.modes = ModeMachine("vehicle", ["nominal", "limp", "safe"],
                                 "nominal", trace=self.trace)
        self.modes.bind_clock(lambda: self.sim.now)
        self.modes.allow_chain("nominal", "limp", "safe")
        self.modes.allow_chain("safe", "limp", "nominal")
        self.recovery = RecoveryOrchestrator(
            self.sim, self.errors, modes=self.modes,
            watchdog=self.watchdog, com=self.built.rx_stack,
            trace=self.trace)
        self.recovery.add_policy(RecoveryPolicy(
            "chain_e2e", signal=chain.signal_name, degraded_mode="limp",
            escalate_hold=self.hold, heal_hold=self.hold))
        self.recovery.add_policy(RecoveryPolicy(
            "producer_alive", degraded_mode="limp",
            restart_entity=chain.producer,
            escalate_hold=self.hold, heal_hold=self.hold))
        self.recovery.bind_e2e(self.built.receiver, "chain_e2e",
                               signal=chain.signal_name)
        self.recovery.bind_watchdog({chain.producer: "producer_alive"},
                                    poll=self.wdg_window)


# ----------------------------------------------------------------------
# Per-kind scenario plans
# ----------------------------------------------------------------------
@dataclass
class _ScenarioPlan:
    """Static facts about one scenario: what detects it, how fast it
    must be detected, where damage is allowed, how long to simulate,
    and how to wire the fault into a live world."""

    categories: tuple
    bound: int
    region: set
    horizon: int
    wire: Callable[[ResilienceWorld], tuple]


def _plan_scenario(system: GeneratedSystem, scenario: FaultScenario
                   ) -> Optional[_ScenarioPlan]:
    """Build the plan, or None when the system lacks the subsystems the
    scenario needs (a shrunk counterexample) — the scenario is then
    *declined*, never a failure."""
    kind = scenario.kind
    chain = system.chain
    if kind in CHAIN_KINDS:
        if chain is None or system.can is None:
            return None
        period = chain.period
        wdg = _wdg_window(period)
        hold = _hold(period)
        region = {chain.producer, chain.consumer, chain.pdu_name,
                  chain.signal_name, chain.producer_ecu, "RX"}
        tail = 2 * chain.timeout + 12 * period + 4 * hold
        categories = DETECTION_CATEGORIES
        bound = chain.timeout + period
        if kind == "ecu-reset":
            # The COM stack keeps transmitting freshly-stamped (stale)
            # values after the producer dies, so E2E never notices —
            # only the alive supervision does.
            categories = ("wdg.violation",)
            bound = 3 * wdg + period
            tail = chain.timeout + 16 * period + 6 * hold + 3 * wdg

        def wire(world, kind=kind, scenario=scenario):
            c = world.system.chain
            if kind in ("e2e-corruption", "e2e-loss"):
                adapter = ComSignalAdapter(world.built.rx_stack,
                                           c.signal_name)
                fault_kind = (CORRUPTION if kind == "e2e-corruption"
                              else OMISSION)
                fault = Fault(fault_kind, adapter.target_name,
                              scenario.start, scenario.duration)
            elif kind == "e2e-delay":
                adapter = ComDelayAdapter(world.sim, world.built.rx_stack,
                                          c.signal_name)
                fault = Fault(DELAY, adapter.target_name, scenario.start,
                              scenario.duration,
                              params={"delay": c.timeout + c.period})
            elif kind == "can-error-burst":
                adapter = CanBusErrorAdapter(world.built.can_bus,
                                             c.pdu_name)
                fault = Fault(CORRUPTION, adapter.target_name,
                              scenario.start, scenario.duration)
            elif kind == "can-bus-off":
                controller = world.built.can_bus.controllers[
                    c.producer_ecu]
                adapter = CanNodeAdapter(world.sim, controller,
                                         flood_period=ms(1))
                fault = Fault(CRASH, adapter.target_name, scenario.start,
                              scenario.duration)
            else:  # ecu-reset
                kernel = world.built.kernels[c.producer_ecu]
                adapter = TaskAdapter(kernel, kernel.tasks[c.producer])
                fault = Fault(CRASH, adapter.target_name, scenario.start,
                              scenario.duration)
            return adapter, fault

        return _ScenarioPlan(categories, bound, region,
                             scenario.end + tail, wire)

    if kind == "flexray-slot-loss":
        if system.flexray is None:
            return None
        try:
            writer = _static_writer(system, scenario.target)
        except ConfigurationError:
            return None
        cycle = system.flexray.config.cycle_length
        region = {scenario.target, writer.assignment.node}
        bound = writer.period + 2 * cycle
        tail = 4 * writer.period + 4 * cycle

        def wire(world, scenario=scenario):
            adapter = FlexRaySlotAdapter(world.built.flexray_bus,
                                         scenario.target)
            return adapter, Fault(OMISSION, adapter.target_name,
                                  scenario.start, scenario.duration)

        return _ScenarioPlan(("flexray.slot_lost",), bound, region,
                             scenario.end + tail, wire)

    if kind == "tdma-babble":
        if system.can is None:
            return None
        flood = _flood_period(system)

        def wire(world, flood=flood, scenario=scenario):
            controller = world.built.can_bus.attach("BABBLER")
            # Independent schedule copy with *no* window for the
            # babbler: the guardian physically gates every attempt.
            guardian = SlotGuardian("BABBLER", [], period=ms(10))
            adapter = GuardedCanNodeAdapter(world.sim, controller,
                                            guardian, flood, world.trace)
            return adapter, Fault(BABBLING, adapter.target_name,
                                  scenario.start, scenario.duration)

        return _ScenarioPlan(("guardian.blocked",), 2 * flood,
                             {"BABBLER"}, scenario.end + 8 * flood + ms(1),
                             wire)

    return None


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
@dataclass
class ScenarioVerdict:
    """Detect / contain / recover result for one injected scenario."""

    scenario: FaultScenario
    supported: bool = True
    horizon: int = 0
    detected: bool = False
    detection_time: Optional[int] = None
    detection_latency: Optional[int] = None
    detection_bound: int = 0
    detection_source: Optional[str] = None
    detection_waived: bool = False
    contained: bool = True
    escaped: int = 0
    escape_subjects: list[str] = field(default_factory=list)
    recovered: bool = True
    recovery_time: Optional[int] = None
    recovery_latency: Optional[int] = None
    recovery_waived: bool = False

    @property
    def ok(self) -> bool:
        """All three obligations met (or waived)."""
        return not self.violations()

    def violations(self) -> list[Violation]:
        """Unmet obligations as oracle invariant violations."""
        if not self.supported:
            return []
        out: list[Violation] = []
        label = self.scenario.label()
        if not self.detection_waived:
            if not self.detected:
                out.append(Violation(
                    self.scenario.start, "resilience:detect", label,
                    f"injected fault produced no "
                    f"{'/'.join(self.scenario_categories)} evidence "
                    f"within horizon {self.horizon}"))
            elif self.detection_latency > self.detection_bound:
                out.append(Violation(
                    self.detection_time, "resilience:detect", label,
                    f"detection latency {self.detection_latency} "
                    f"exceeds bound {self.detection_bound}"))
        if not self.contained:
            out.append(Violation(
                self.scenario.start, "resilience:contain", label,
                f"{self.escaped} damage record(s) outside the "
                f"containment region: "
                f"{sorted(set(self.escape_subjects))}"))
        if not self.recovery_waived and not self.recovered:
            out.append(Violation(
                self.scenario.end, "resilience:recover", label,
                "confirmed errors or degraded mode persist after the "
                "fault window closed"))
        return out

    #: set by the evaluator so violation messages can name the evidence.
    scenario_categories: tuple = ()

    def to_dict(self) -> dict:
        return {
            "scenario": {"kind": self.scenario.kind,
                         "start": self.scenario.start,
                         "duration": self.scenario.duration,
                         "target": self.scenario.target},
            "supported": self.supported, "horizon": self.horizon,
            "detected": self.detected,
            "detection_time": self.detection_time,
            "detection_latency": self.detection_latency,
            "detection_bound": self.detection_bound,
            "detection_source": self.detection_source,
            "detection_waived": self.detection_waived,
            "contained": self.contained, "escaped": self.escaped,
            "escape_subjects": sorted(set(self.escape_subjects)),
            "recovered": self.recovered,
            "recovery_time": self.recovery_time,
            "recovery_latency": self.recovery_latency,
            "recovery_waived": self.recovery_waived,
            "ok": self.ok,
        }


def _evaluate(world: ResilienceWorld, baseline: ResilienceWorld,
              scenario: FaultScenario,
              plan: _ScenarioPlan) -> ScenarioVerdict:
    verdict = ScenarioVerdict(scenario, horizon=plan.horizon,
                              detection_bound=plan.bound)
    verdict.scenario_categories = plan.categories
    onset = scenario.start

    # --- detected within bound ---------------------------------------
    detection = first_detection(world.trace, plan.categories, onset)
    verdict.detected = detection is not None
    if verdict.detected:
        verdict.detection_time = detection.time
        verdict.detection_source = detection.category
        verdict.detection_latency = detection.time - onset
    # If the fault-free baseline already shows the same evidence the
    # system is overloaded on its own; detection can't be attributed.
    verdict.detection_waived = any(
        record.time >= onset
        for category in plan.categories
        for record in baseline.trace.records(category))

    # --- contained ----------------------------------------------------
    baseline_subjects = {
        r.subject for r in containment_violations(baseline.trace,
                                                  plan.region,
                                                  since=onset)}
    escapes = [r for r in containment_violations(world.trace, plan.region,
                                                 since=onset)
               if r.subject not in baseline_subjects]
    verdict.contained = not escapes
    verdict.escaped = len(escapes)
    verdict.escape_subjects = [r.subject for r in escapes]

    # --- recovered per the hysteresis policy --------------------------
    if baseline.errors is not None and (
            list(baseline.errors.confirmed_events())
            or baseline.modes.current != "nominal"):
        verdict.recovery_waived = True
    elif world.errors is not None:
        healed = not list(world.errors.confirmed_events())
        nominal = world.modes.current == "nominal"
        verdict.recovered = healed and nominal
        if verdict.recovered:
            verdict.recovery_time = last_recovery(
                world.trace, scenario.end, world.modes, "nominal")
            if verdict.recovery_time is not None:
                verdict.recovery_latency = (verdict.recovery_time
                                            - scenario.end)
    # No recovery stack (no chain): nothing can confirm, vacuously ok.
    return verdict


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def verify_resilience(system: GeneratedSystem) -> list[ScenarioVerdict]:
    """Run every attached fault scenario in its own simulation.

    One fault-free baseline world is run (and cached) per distinct
    scenario horizon for the differential waivers; the nominal
    differential-oracle simulation is never touched.
    """
    verdicts: list[ScenarioVerdict] = []
    baselines: dict[int, ResilienceWorld] = {}
    for scenario in system.faults:
        plan = _plan_scenario(system, scenario)
        if plan is None:
            verdicts.append(ScenarioVerdict(scenario, supported=False))
            if obs.enabled():
                obs.count("resilience.scenarios")
                obs.count("resilience.unsupported")
            continue
        baseline = baselines.get(plan.horizon)
        if baseline is None:
            baseline = ResilienceWorld(system)
            baseline.sim.run_until(plan.horizon)
            baselines[plan.horizon] = baseline
        world = ResilienceWorld(system)
        adapter, fault = plan.wire(world)
        world.injector.inject(adapter, fault)
        world.sim.run_until(plan.horizon)
        verdict = _evaluate(world, baseline, scenario, plan)
        verdicts.append(verdict)
        if obs.enabled():
            obs.count("resilience.scenarios")
            if verdict.detection_waived:
                obs.count("resilience.detection_waived")
            elif verdict.detected:
                obs.count(f"resilience.detected_by."
                          f"{verdict.detection_source}")
                if verdict.detection_latency > verdict.detection_bound:
                    obs.count("resilience.late_detection")
                obs.observe("resilience.detection_latency_ns",
                            verdict.detection_latency)
            else:
                obs.count("resilience.undetected")
            if not verdict.contained:
                obs.count("resilience.escapes", verdict.escaped)
            if verdict.recovery_waived:
                obs.count("resilience.recovery_waived")
            elif verdict.recovered:
                obs.count("resilience.recovered")
                if verdict.recovery_latency is not None:
                    obs.observe("resilience.recovery_latency_ns",
                                verdict.recovery_latency)
            else:
                obs.count("resilience.unrecovered")
    return verdicts


# ----------------------------------------------------------------------
# Standard matrix + batch runner (CLI / CI face)
# ----------------------------------------------------------------------
def standard_scenarios(system: GeneratedSystem) -> list[FaultScenario]:
    """The full supported fault matrix with deterministic windows."""
    scenarios: list[FaultScenario] = []
    chain = system.chain
    if chain is not None and system.can is not None:
        for kind in CHAIN_KINDS:
            floor = min_duration(system, kind)
            scenarios.append(FaultScenario(
                kind, 3 * chain.period, floor + chain.period))
    if system.can is not None:
        flood = _flood_period(system)
        scenarios.append(FaultScenario(
            "tdma-babble", 4 * flood,
            min_duration(system, "tdma-babble") + 4 * flood))
    if system.flexray is not None and system.flexray.static_writers:
        writer = min(system.flexray.static_writers,
                     key=lambda w: w.assignment.slot)
        target = writer.assignment.frame_name
        scenarios.append(FaultScenario(
            "flexray-slot-loss", 2 * writer.period,
            min_duration(system, "flexray-slot-loss", target), target))
    return scenarios


def _resilience_worker(system: GeneratedSystem, seed: int) -> dict:
    """Plan worker (module-level, hence picklable): one system per call."""
    return {"system": system.name, "seed": system.seed,
            "verdicts": [v.to_dict()
                         for v in verify_resilience(system)]}


@dataclass
class ResilienceReport:
    """Aggregate over a batch of resilience-verified systems."""

    seed: int
    count: int
    size: str
    rows: list[dict] = field(default_factory=list)

    def _verdicts(self):
        return [v for row in self.rows for v in row["verdicts"]]

    @property
    def unmet(self) -> int:
        """Scenarios with any unmet (non-waived) obligation."""
        return sum(1 for v in self._verdicts()
                   if v["supported"] and not v["ok"])

    @property
    def passed(self) -> bool:
        return self.unmet == 0

    def to_dict(self) -> dict:
        ordered = sorted(self.rows,
                         key=lambda r: (r["seed"], r["system"]))
        return {"seed": self.seed, "systems": self.count,
                "size": self.size, "rows": ordered}

    def digest(self) -> str:
        return canonical_digest(self.to_dict())

    def kind_summary(self) -> dict[str, dict]:
        """Per-kind aggregate: counts and latency spread (the E16
        fault-detection/recovery latency table)."""
        summary: dict[str, dict] = {}
        for kind in _ALL_KINDS:
            verdicts = [v for v in self._verdicts()
                        if v["scenario"]["kind"] == kind
                        and v["supported"]]
            if not verdicts:
                continue
            det = sorted(v["detection_latency"] for v in verdicts
                         if v["detection_latency"] is not None)
            rec = sorted(v["recovery_latency"] for v in verdicts
                         if v["recovery_latency"] is not None)
            summary[kind] = {
                "scenarios": len(verdicts),
                "detected": sum(1 for v in verdicts if v["detected"]),
                "bound": max(v["detection_bound"] for v in verdicts),
                "det_min": det[0] if det else None,
                "det_median": statistics.median(det) if det else None,
                "det_max": det[-1] if det else None,
                "escaped": sum(v["escaped"] for v in verdicts),
                "recovered": sum(1 for v in verdicts if v["recovered"]),
                "rec_max": rec[-1] if rec else None,
                "unmet": sum(1 for v in verdicts if not v["ok"]),
            }
        return summary


def run_resilience(seed: int, count: int, size: str = "small",
                   jobs: int = 1, checkpoint=None, resume: bool = False,
                   retries: int = 1, progress=None,
                   interrupt_after: Optional[int] = None
                   ) -> ResilienceReport:
    """Generate ``count`` systems, attach the standard fault matrix to
    each, and verify resilience — fanned out over :mod:`repro.exec`
    (jobs=1 and jobs=N produce identical digests)."""
    from repro.exec import Plan, execute
    from repro.verify.generator import generate_many

    systems = []
    for system in generate_many(seed, count, size):
        system.faults = standard_scenarios(system)
        systems.append(system)
    plan = Plan(f"resilience:size={size}", _resilience_worker,
                tuple(systems), base_seed=seed)
    outcome = execute(plan, jobs=jobs, retries=retries,
                      checkpoint=checkpoint, resume=resume,
                      progress=progress, interrupt_after=interrupt_after)
    outcome.raise_on_failure()
    return ResilienceReport(seed, count, size, list(outcome.results))


def _fmt_ms(value) -> str:
    if value is None:
        return "-"
    return f"{value / 1e6:.2f}"


def format_resilience_report(report: ResilienceReport) -> str:
    """Deterministic human-readable summary (the E16 table)."""
    lines = [f"resilience verification: seed={report.seed} "
             f"systems={report.count} size={report.size}"]
    lines.append(
        f"  {'fault kind':<18} {'cells':>5} {'det':>4} {'bound(ms)':>10} "
        f"{'latency ms (min/med/max)':>25} {'escaped':>8} {'rec':>4} "
        f"{'rec-lat(ms)':>12}")
    for kind, row in report.kind_summary().items():
        if row["det_min"] is None:
            spread = "-"
        else:
            spread = (f"{_fmt_ms(row['det_min'])}/"
                      f"{_fmt_ms(row['det_median'])}/"
                      f"{_fmt_ms(row['det_max'])}")
        lines.append(
            f"  {kind:<18} {row['scenarios']:>5} {row['detected']:>4} "
            f"{_fmt_ms(row['bound']):>10} {spread:>25} "
            f"{row['escaped']:>8} {row['recovered']:>4} "
            f"{_fmt_ms(row['rec_max']):>12}")
    total = sum(1 for v in report._verdicts() if v["supported"])
    waived = sum(1 for v in report._verdicts()
                 if v.get("detection_waived") or v.get("recovery_waived"))
    lines.append(f"scenarios: {total} supported, {waived} waived, "
                 f"{report.unmet} unmet obligation(s)")
    lines.append(f"report digest: sha256:{report.digest()}")
    lines.append(f"verdict: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)
