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
evidence or ends unhealthy on its own.  One baseline serves every
scenario of its horizon, but only through those facts: it is reduced
to them as soon as it has run and its trace is freed before any
scenario world is built, so one simulated world holds rows at a time.

Unmet obligations surface as :class:`~repro.verify.invariants.Violation`
rows (``resilience:detect`` / ``resilience:contain`` /
``resilience:recover``), which makes them first-class citizens of the
fuzzer's failure keys and the shrinker.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.digest import canonical_digest
from repro.errors import ConfigurationError
from repro.faults.injector import (CanBusErrorAdapter, CanNodeAdapter,
                                   ComSignalAdapter, FaultInjector,
                                   FlexRaySlotAdapter, TaskAdapter)
from repro.faults.model import (BABBLING, CORRUPTION, CRASH, DELAY, Fault,
                                OMISSION)
from repro.faults.monitor import DETECTION_CATEGORIES, judge
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
    deadline.  Scenario generators keep windows at or above this floor,
    and :func:`scenario_problems` (so every model document check, see
    :func:`repro.model.schema.validate_document`) rejects windows below
    it, so an undetected fault is always a real defect, never an
    under-sized experiment.
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
    """Validation problems of one scenario against its built system.

    The only definition of a well-formed fault scenario: the model
    document check :func:`repro.model.schema.validate_document` (and
    so :func:`repro.verify.mutate.validate_system`) runs it on every
    scenario, and the mutator prunes scenarios it rejects.  An empty
    list means the scenario is well-formed *and* its window is large
    enough for detection to be guaranteed (see :func:`min_duration`).
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
    lacks = _lacks(system, scenario)
    if lacks is not None:
        problems.append(f"fault {label}: {lacks}")
        return problems
    floor = min_duration(system, scenario.kind, scenario.target)
    if scenario.duration < floor:
        problems.append(
            f"fault {label}: duration {scenario.duration} below the "
            f"guaranteed-detection floor {floor}")
    return problems


_ALL_KINDS = CHAIN_KINDS + ("flexray-slot-loss", "tdma-babble")

#: Fault kind each COM rx-path scenario injects through the chain's
#: :class:`ComSignalAdapter`.
_COM_FAULT_KINDS = {"e2e-corruption": CORRUPTION, "e2e-loss": OMISSION,
                    "e2e-delay": DELAY}


def _lacks(system: GeneratedSystem, scenario: FaultScenario
           ) -> Optional[str]:
    """What ``system`` lacks to carry ``scenario``, or None: the one
    support rule :func:`scenario_problems` reports and
    :func:`_plan_scenario` declines by."""
    kind = scenario.kind
    if kind in CHAIN_KINDS:
        if system.chain is None or system.can is None:
            return "requires an E2E chain over CAN"
    elif kind == "tdma-babble":
        if system.can is None:
            return "requires a CAN bus"
    elif kind == "flexray-slot-loss":
        if system.flexray is None:
            return "requires a FlexRay cluster"
        if scenario.target not in {w.assignment.frame_name
                                   for w in system.flexray.static_writers}:
            return (f"target {scenario.target!r} is not a static writer "
                    f"frame")
    else:
        return "unknown kind"
    return None


# ----------------------------------------------------------------------
# The world: built system + recovery stack
# ----------------------------------------------------------------------
class ResilienceWorld:
    """One scenario's universe: the generated system on the simulation
    stack plus, on its E2E chain over CAN, a watchdog on the chain's
    producer and the :func:`~repro.bsw.recovery.recovery_stack`, with
    supervision window and hysteresis hold scaled to the chain's
    period.  A system without such a chain gets no recovery stack
    (``errors`` and ``modes`` are None)."""

    def __init__(self, system: GeneratedSystem):
        from repro.bsw import WatchdogManager
        from repro.bsw.recovery import recovery_stack
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

        wdg_window = _wdg_window(chain.period)
        kernel = self.built.kernels[chain.producer_ecu]
        self.watchdog = WatchdogManager(self.sim, trace=self.trace,
                                        name="WDG")
        self.watchdog.supervise_task(kernel, chain.producer,
                                     window=wdg_window)
        self.errors, self.modes, self.recovery = recovery_stack(
            self.sim, self.trace, self.watchdog, self.built.rx_stack,
            self.built.receiver, chain.signal_name, chain.producer,
            "chain_e2e", (DTC_CHAIN_E2E, DTC_PRODUCER_ALIVE),
            poll=wdg_window, hold=_hold(chain.period))


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
    """Build the plan, or None when the system lacks what the scenario
    needs (:func:`_lacks`; a shrunk counterexample) — the scenario is
    then *declined*, never a failure."""
    if _lacks(system, scenario) is not None:
        return None
    kind = scenario.kind
    if kind == "flexray-slot-loss":
        writer = _static_writer(system, scenario.target)
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
        flood = _flood_period(system)

        def wire(world, flood=flood, scenario=scenario):
            controller = world.built.can_bus.attach("BABBLER")
            # Independent schedule copy with *no* window for the
            # babbler: the guardian physically gates every attempt.
            guardian = SlotGuardian("BABBLER", [], period=ms(10))
            adapter = CanNodeAdapter(world.sim, controller, flood,
                                     guardian=guardian)
            return adapter, Fault(BABBLING, adapter.target_name,
                                  scenario.start, scenario.duration)

        return _ScenarioPlan(("guardian.blocked",), 2 * flood,
                             {"BABBLER"}, scenario.end + 8 * flood + ms(1),
                             wire)

    # The chain kinds: the injection point is the E2E-protected chain.
    chain = system.chain
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
        if kind in _COM_FAULT_KINDS:
            adapter = ComSignalAdapter(world.built.rx_stack, c.signal_name)
            fault = Fault(_COM_FAULT_KINDS[kind], adapter.target_name,
                          scenario.start, scenario.duration,
                          params=({"delay": c.timeout + c.period}
                                  if kind == "e2e-delay" else {}))
        elif kind == "can-error-burst":
            adapter = CanBusErrorAdapter(world.built.can_bus, c.pdu_name)
            fault = Fault(CORRUPTION, adapter.target_name, scenario.start,
                          scenario.duration)
        elif kind == "can-bus-off":
            controller = world.built.can_bus.controllers[c.producer_ecu]
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

    return _ScenarioPlan(categories, bound, region, scenario.end + tail,
                         wire)


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


@dataclass(frozen=True)
class _BaselineFacts:
    """What one scenario's verdict reads of its fault-free baseline."""

    #: The baseline shows the scenario's detection evidence at or after
    #: its onset: the system is overloaded on its own, so detection
    #: can't be attributed to the fault.
    evidence: bool
    #: Subjects the baseline damages outside the region since the onset.
    damaged: frozenset
    #: The baseline ends with a confirmed DEM event or a degraded mode
    #: (never, without a recovery stack).
    unhealthy: bool


def _baseline_facts(system: GeneratedSystem, horizon: int,
                    cases) -> dict[int, _BaselineFacts]:
    """Run one fault-free baseline world to ``horizon`` and judge it as
    each ``(index, scenario, plan)`` case would be judged, reduced to
    the case's facts; the world's trace is cleared before this
    returns."""
    baseline = ResilienceWorld(system)
    try:
        baseline.sim.run_until(horizon)
        facts = {}
        for index, scenario, plan in cases:
            detection, escaped, recovered, __ = judge(
                baseline, plan.categories, plan.region, scenario.start,
                scenario.end, "nominal")
            facts[index] = _BaselineFacts(
                detection is not None,
                frozenset(record.subject for record in escaped),
                not recovered)
        return facts
    finally:
        baseline.trace.clear()


def _evaluate(world: ResilienceWorld, baseline: _BaselineFacts,
              scenario: FaultScenario,
              plan: _ScenarioPlan) -> ScenarioVerdict:
    verdict = ScenarioVerdict(scenario, horizon=plan.horizon,
                              detection_bound=plan.bound)
    verdict.scenario_categories = plan.categories
    detection, escaped, recovered, recovery_time = judge(
        world, plan.categories, plan.region, scenario.start, scenario.end,
        "nominal")

    # --- detected within bound ---------------------------------------
    if detection is not None:
        verdict.detected = True
        verdict.detection_time = detection.time
        verdict.detection_source = detection.category
        verdict.detection_latency = detection.time - scenario.start
    verdict.detection_waived = baseline.evidence

    # --- contained ----------------------------------------------------
    escapes = [r for r in escaped if r.subject not in baseline.damaged]
    verdict.contained = not escapes
    verdict.escaped = len(escapes)
    verdict.escape_subjects = [r.subject for r in escapes]

    # --- recovered per the hysteresis policy --------------------------
    if baseline.unhealthy:
        verdict.recovery_waived = True
    else:
        verdict.recovered = recovered
        verdict.recovery_time = recovery_time
        if recovery_time is not None:
            verdict.recovery_latency = recovery_time - scenario.end
    return verdict


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def verify_resilience(system: GeneratedSystem) -> list[ScenarioVerdict]:
    """Run every attached fault scenario in its own simulation.

    Each distinct scenario horizon gets one fault-free baseline world
    for the differential waivers, run when the first scenario of that
    horizon comes up.  It is reduced at once to the facts the verdicts
    of all its scenarios read (:class:`_BaselineFacts`) and its trace
    is cleared before any scenario world is built, so one simulated
    world holds rows at a time.  The nominal differential-oracle
    simulation is never touched.
    """
    plans = [_plan_scenario(system, scenario) for scenario in system.faults]
    facts: dict[int, _BaselineFacts] = {}
    verdicts: list[ScenarioVerdict] = []
    for index, (scenario, plan) in enumerate(zip(system.faults, plans)):
        if plan is None:
            verdicts.append(ScenarioVerdict(scenario, supported=False))
            if obs.enabled():
                obs.count("resilience.scenarios")
                obs.count("resilience.unsupported")
            continue
        if index not in facts:
            facts.update(_baseline_facts(system, plan.horizon, [
                (other, system.faults[other], same)
                for other, same in enumerate(plans)
                if same is not None and same.horizon == plan.horizon]))
        world = ResilienceWorld(system)
        try:
            adapter, fault = plan.wire(world)
            world.injector.inject(adapter, fault)
            world.sim.run_until(plan.horizon)
            verdict = _evaluate(world, facts.pop(index), scenario, plan)
        finally:
            world.trace.clear()
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


def _resilience_worker(system: GeneratedSystem) -> dict:
    """Plan worker (module-level, hence picklable): one system per call."""
    return {"system": system.name, "seed": system.seed,
            "verdicts": [v.to_dict()
                         for v in verify_resilience(system)]}


def resilience_plan(label: str, systems, base_seed: int = 0):
    """The exec plan resilience-verifying ``systems`` (shared by
    :func:`run_resilience` and
    :func:`repro.model.build.resilience_models`).  A system that
    declares no fault scenarios gets the :func:`standard_scenarios`
    matrix attached."""
    from repro.exec import Plan

    systems = tuple(systems)
    for system in systems:
        if not system.faults:
            system.faults = standard_scenarios(system)
    return Plan(label, _resilience_worker, systems, base_seed=base_seed)


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
        import statistics

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
                   progress=None) -> ResilienceReport:
    """Generate ``count`` systems, attach the standard fault matrix to
    each, and verify resilience — fanned out over :mod:`repro.exec`
    (jobs=1 and jobs=N produce identical digests)."""
    from repro.exec import execute
    from repro.verify.generator import generate_many

    # base_seed keys the fingerprint: existing journals keep resuming.
    plan = resilience_plan(f"resilience:size={size}",
                           generate_many(seed, count, size), seed)
    results = execute(plan, jobs=jobs, checkpoint=checkpoint,
                      resume=resume, progress=progress)
    return ResilienceReport(seed, count, size, results)


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
