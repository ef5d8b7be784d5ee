"""Differential oracle: analytic bounds versus simulated ground truth.

For each :class:`~repro.verify.generator.GeneratedSystem` the oracle

1. computes every analytic bound the library offers for it — task WCRTs
   (:mod:`repro.analysis.rta`), CAN frame latencies
   (:mod:`repro.analysis.can_rta`), FlexRay static/dynamic latencies
   (:mod:`repro.analysis.flexray_rta`), TDMA partition response bounds
   (:mod:`repro.analysis.tdma_bound`) and the end-to-end chain bound
   (:mod:`repro.analysis.e2e`);
2. builds and runs the *same* configuration on the simulation stack
   (OSEK kernels, CAN/FlexRay buses, COM with E2E protection);
3. asserts **soundness** — every observation must stay at or below its
   bound — and reports **tightness** (bound / observed max);
4. replays the trace through the invariant checkers of
   :mod:`repro.verify.invariants`.

Analyses that legitimately decline (the recurrence leaves its validity
region) are reported as *declined*, never silently skipped; a bound that
exists but is beaten by the simulation is a soundness violation — the
one thing this harness exists to catch.
"""

from __future__ import annotations

import functools
import itertools
import statistics
from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.analysis import can_rta, flexray_rta, rta, tdma_bound
from repro.analysis.e2e import Chain, SAMPLED, Stage
from repro.analysis.probes import ChainProbe
from repro.com.com import CanComAdapter, ComStack, PERIODIC
from repro.com.e2e import E2eReceiver, e2e_protected_pdu, protect_link
from repro.com.signal import SignalSpec
from repro.digest import canonical_digest
from repro.errors import AnalysisError
from repro.network.can import CanBus
from repro.network.flexray import FlexRayBus
from repro.osek.kernel import EcuKernel
from repro.osek.resource import OsekResource
from repro.osek.scheduler import FixedPriorityScheduler
from repro.osek.task import Acquire, Execute, Release
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace
from repro.units import ms
from repro.verify.generator import (CriticalSection, GeneratedSystem,
                                    generate_many)
from repro.verify.invariants import (AliveCounterInvariant,
                                     E2eContainmentInvariant, Invariant,
                                     InvariantChecker,
                                     NoOverlappingExecution,
                                     PriorityCeilingInvariant,
                                     TdmaWindowInvariant, Violation)

#: Analysis layers in report order.
LAYERS = ("rta", "can", "flexray_static", "flexray_dynamic", "tdma", "e2e")


@dataclass
class Check:
    """One bound/observation pair."""

    layer: str
    subject: str
    bound: int
    observed: Optional[int]
    samples: int

    @property
    def sound(self) -> bool:
        """True when the observation respects the bound (vacuously true
        when nothing was observed)."""
        return self.observed is None or self.observed <= self.bound

    @property
    def tightness(self) -> Optional[float]:
        """bound / observed-max — how conservative the analysis is.

        ``None`` both when nothing was observed *and* when the maximum
        observation is zero (a same-instant delivery a shrunk or
        fuzzed degenerate system can produce): the ratio is undefined
        there, and returning ``None`` instead of dividing keeps
        infinities and ``ZeroDivisionError`` out of report digests.
        """
        if self.observed is None or self.observed == 0:
            return None
        return self.bound / self.observed

    def to_dict(self) -> dict:
        tightness = self.tightness
        return {"layer": self.layer, "subject": self.subject,
                "bound": self.bound, "observed": self.observed,
                "samples": self.samples, "sound": self.sound,
                "tightness": (None if tightness is None
                              else round(tightness, 4))}


@dataclass
class SystemVerdict:
    """Oracle result for one generated system."""

    name: str
    seed: int
    size: str
    checks: list[Check] = field(default_factory=list)
    declined: list[str] = field(default_factory=list)
    invariant_violations: list[Violation] = field(default_factory=list)
    records: int = 0
    #: DAQ sample rows when the measurement service rode along
    #: (``--daq``); excluded from :meth:`to_dict` so the verification
    #: digest is unchanged by sampling — the DAQ rows carry their own
    #: digest (:meth:`VerificationReport.measurement_digest`).
    daq_rows: list = field(default_factory=list)

    @property
    def soundness_violations(self) -> list[Check]:
        """Checks whose observation beats the analytic bound."""
        return [c for c in self.checks if not c.sound]

    def to_dict(self) -> dict:
        return {
            "name": self.name, "seed": self.seed, "size": self.size,
            "records": self.records,
            "declined": sorted(self.declined),
            "checks": [c.to_dict() for c in self.checks],
            "invariant_violations": [v.to_dict()
                                     for v in self.invariant_violations],
        }


@dataclass
class VerificationReport:
    """Aggregate over a batch of verified systems."""

    seed: int
    count: int
    size: str
    verdicts: list[SystemVerdict] = field(default_factory=list)

    @property
    def soundness_violations(self) -> int:
        return sum(len(v.soundness_violations) for v in self.verdicts)

    @property
    def invariant_violations(self) -> int:
        return sum(len(v.invariant_violations) for v in self.verdicts)

    @property
    def passed(self) -> bool:
        """Zero soundness violations and zero invariant violations."""
        return (self.soundness_violations == 0
                and self.invariant_violations == 0)

    def to_dict(self) -> dict:
        """Canonical form: verdicts are emitted in *sorted* order
        (by per-system seed, then name), not insertion order, so the
        digest and exit verdict are stable under any executor —
        serial, parallel, or resumed — regardless of completion order."""
        ordered = sorted(self.verdicts, key=lambda v: (v.seed, v.name))
        return {"seed": self.seed, "systems": self.count, "size": self.size,
                "verdicts": [v.to_dict() for v in ordered]}

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form — two runs of the same
        (seed, count, size) must produce the identical digest."""
        return canonical_digest(self.to_dict())

    @property
    def daq_sample_count(self) -> int:
        return sum(len(v.daq_rows) for v in self.verdicts)

    def measurement_digest(self) -> str:
        """Canonical digest of the DAQ rows collected alongside
        verification (``--daq``), in the same sorted verdict order as
        :meth:`to_dict` — byte-identical across jobs/resume."""
        from repro.meas.service import samples_digest

        ordered = sorted(self.verdicts, key=lambda v: (v.seed, v.name))
        return samples_digest([[v.name, v.daq_rows] for v in ordered])

    def layer_summary(self) -> dict[str, dict]:
        """Per-layer aggregate: check/measurement/violation counts and
        the tightness distribution (min/median/max).

        Every layer that appears in any verdict's checks or declined
        entries is summarized — including layers outside :data:`LAYERS`
        and layers with zero checks or zero observations — so the
        totals always add up to the per-verdict counts and a
        zero-observation layer renders as ``None`` tightness rather
        than being dropped or dividing by zero.
        """
        summary = {}
        declined = [d.split(":", 1)[0] for v in self.verdicts
                    for d in v.declined]
        extra = sorted({c.layer for v in self.verdicts for c in v.checks
                        if c.layer not in LAYERS}
                       | {d for d in declined if d not in LAYERS})
        for layer in (*LAYERS, *extra):
            checks = [c for v in self.verdicts for c in v.checks
                      if c.layer == layer]
            ratios = sorted(c.tightness for c in checks
                            if c.tightness is not None)
            summary[layer] = {
                "checks": len(checks),
                "measured": sum(1 for c in checks if c.observed is not None),
                "declined": declined.count(layer),
                "violations": sum(1 for c in checks if not c.sound),
                "tightness_min": ratios[0] if ratios else None,
                "tightness_median": (statistics.median(ratios)
                                     if ratios else None),
                "tightness_max": ratios[-1] if ratios else None,
            }
        return summary


# ----------------------------------------------------------------------
# Analytic side
# ----------------------------------------------------------------------
# Each layer is solved by a dedicated pure function of exactly the
# sub-model that :func:`repro.perf.layer_keys` digests, returning
# ``[(subject, bound-or-None), ...]`` (None = the analysis declined for
# that subject).  ``tests/test_perf_invalidation.py`` pins the
# key/mutator matrix.

def _solve_rta(specs, cs_map) -> list:
    """Per-ECU task WCRTs.  ``wcrt - jitter`` is the from-release
    bound, which is what the kernel's activation-to-completion
    measurement observes (release jitter of the sporadic consumer is
    realised by the bus, not re-applied by the kernel)."""
    result = rta.analyze(specs, cs_map)
    return [(spec.name,
             None if result.wcrt[spec.name] < 0
             else result.wcrt[spec.name] - spec.jitter)
            for spec in specs]


def _solve_can(frame_specs, bitrate_bps) -> list:
    """CAN frame WCRTs in arbitration (can_id) order; negative WCRTs
    (analysis declined) pass through as None rows."""
    frames = sorted(frame_specs, key=lambda f: f.can_id)
    result = can_rta.analyze(frames, bitrate_bps)
    return [(frame.name,
             None if result.wcrt[frame.name] < 0
             else result.wcrt[frame.name])
            for frame in frames]


def _solve_flexray_static(config, writers) -> list:
    return [(writer.assignment.frame_name,
             flexray_rta.static_latency_bound(config, writer.assignment))
            for writer in writers]


def _solve_flexray_dynamic(config, writers) -> list:
    specs = [w.spec for w in writers]
    rows = []
    for writer in writers:
        competitors = [s for s in specs if s.name != writer.spec.name]
        try:
            bound = flexray_rta.dynamic_latency_bound(
                writer.spec, competitors, config)
        except AnalysisError:
            bound = None
        rows.append((writer.spec.name, bound))
    return rows


def _solve_tdma(plan) -> list:
    scheduler = plan.scheduler()
    rows = []
    for partition in plan.partitions:
        members = [t for t in plan.tasks if t.partition == partition]
        if not members:
            continue
        hp = plan.hp_task(partition)
        try:
            bound = tdma_bound.tdma_response_bound(
                scheduler, partition, hp.wcet, period=hp.period,
                max_activations=hp.max_activations)
        except AnalysisError:
            bound = None
        rows.append((hp.name, bound))
    return rows


def _solve_e2e(chain, producer, consumer, frame_wcrt) -> list:
    """Chain bound from already-solved producer/consumer/bus numbers —
    pure in them, so its composite layer key hashes the upstream layer
    keys rather than re-deriving the inputs."""
    if producer is None or consumer is None or frame_wcrt < 0:
        return [(chain.pdu_name, None)]
    model = Chain(chain.pdu_name, [
        Stage("producer", producer),
        Stage("frame", frame_wcrt, SAMPLED, period=chain.period),
        Stage("consumer", consumer),
    ])
    return [(chain.pdu_name, model.worst_case_latency())]


def analyze_bounds(system: GeneratedSystem
                   ) -> tuple[list[tuple[str, str, int]], list[str]]:
    """Every analytic bound for ``system`` as ``(layer, subject, bound)``
    rows, plus the ``layer:subject`` entries where analysis declined.

    Subsystems a shrunk or mutated system no longer carries (chain,
    CAN, FlexRay, TDMA) simply contribute no rows; the layers that are
    present are analysed exactly as for a full system.
    """
    bounds: list[tuple[str, str, int]] = []
    declined: list[str] = []

    def collect(layer: str, rows: list) -> None:
        for name, bound in rows:
            if bound is None:
                declined.append(f"{layer}:{name}")
            else:
                bounds.append((layer, name, bound))

    for ecu in system.fp_ecus:
        specs = system.tasksets[ecu]
        names = {t.name for t in specs}
        # Restricted to this ECU's tasks: blocking_time only ever reads
        # sections owned by tasks in the analysed set, and the restriction
        # makes the solve a pure function of the rta:<ecu> key slice.
        cs_map: dict[str, list[tuple[int, int]]] = {}
        for section in system.critical_sections:
            if section.task in names:
                cs_map.setdefault(section.task, []).append(
                    (system.resources[section.resource],
                     section.duration))
        collect("rta", _solve_rta(specs, cs_map))
    task_bound = {name: bound for _, name, bound in bounds}

    can_wcrt: Optional[dict] = None
    if system.can is not None:
        rows = _solve_can(system.can.frame_specs, system.can.bitrate_bps)
        can_wcrt = {name: (-1 if bound is None else bound)
                    for name, bound in rows}
        collect("can", rows)

    if system.flexray is not None:
        config = system.flexray.config
        collect("flexray_static", _solve_flexray_static(
            config, system.flexray.static_writers))
        collect("flexray_dynamic", _solve_flexray_dynamic(
            config, system.flexray.dynamic_writers))

    if system.tdma is not None:
        collect("tdma", _solve_tdma(system.tdma))

    chain = system.chain
    if chain is not None and can_wcrt is not None:
        collect("e2e", _solve_e2e(chain, task_bound.get(chain.producer),
                                  task_bound.get(chain.consumer),
                                  can_wcrt.get(chain.pdu_name, -1)))
    return bounds, declined


# ----------------------------------------------------------------------
# Simulated side
# ----------------------------------------------------------------------
@dataclass
class BuiltSystem:
    """Live simulation handles for one generated system.

    Handles of subsystems the system does not carry (shrunk
    counterexamples) are ``None``; their layers simply observe
    nothing.
    """

    sim: Simulator
    trace: Trace
    kernels: dict[str, EcuKernel]
    can_bus: Optional[CanBus]
    flexray_bus: Optional[FlexRayBus]
    probe: Optional[ChainProbe]
    receiver: Optional[E2eReceiver]
    horizon: int
    stacks: dict[str, ComStack] = field(default_factory=dict)
    rx_stack: Optional[ComStack] = None


def _cs_body(section: CriticalSection, resource: OsekResource):
    """Body factory: pre / critical section under ICPP / post."""
    def body(job):
        if section.pre:
            yield Execute(section.pre)
        yield Acquire(resource)
        yield Execute(section.duration)
        yield Release(resource)
        if section.post:
            yield Execute(section.post)
    return body


def default_horizon(system: GeneratedSystem) -> int:
    """Four times the longest period anywhere in the system."""
    periods = [t.period for t in system.all_task_specs()]
    if system.can is not None:
        periods += [f.period for f in system.can.frame_specs]
    if system.flexray is not None:
        periods += [w.period for w in system.flexray.static_writers]
        periods += [w.period for w in system.flexray.dynamic_writers]
    # A completely empty system still needs a positive horizon.
    return 4 * max(periods) if periods else ms(100)


def build_system(system: GeneratedSystem) -> BuiltSystem:
    """Instantiate the generated configuration on the simulation stack.

    Missing subsystems (a shrunk counterexample's dropped chain, CAN,
    FlexRay or TDMA plan) are simply not built; everything present is
    wired exactly as for a full system.
    """
    sim = Simulator()
    trace = Trace()
    chain = system.chain

    # -- CAN bus + per-ECU COM stacks ----------------------------------
    can_bus = None
    stacks: dict[str, ComStack] = {}
    rx_stack = None
    if system.can is not None:
        can_bus = CanBus(sim, system.can.bitrate_bps, trace)
        for ecu in system.fp_ecus:
            controller = can_bus.attach(ecu)
            frame_map = {f.name: f for f in system.can.frame_specs}
            adapter = CanComAdapter(controller, frame_map)
            stacks[ecu] = ComStack(sim, adapter, ecu, trace)
        rx_controller = can_bus.attach("RX")
        rx_stack = ComStack(sim, CanComAdapter(rx_controller, {}), "RX",
                            trace)
        for frame in system.can.frames:
            stacks[frame.sender].add_tx_pdu(frame.ipdu, PERIODIC,
                                            frame.period)

    # -- E2E-protected chain over CAN ----------------------------------
    probe = None
    receiver = None
    tx_stack = None
    on_producer_complete = on_consumer_complete = None
    if chain is not None and system.can is not None:
        profile = chain.profile()

        def chain_pdu():
            return e2e_protected_pdu(
                chain.pdu_name, 8,
                [SignalSpec(chain.signal_name, chain.signal_bits)],
                profile)

        tx_stack = stacks[chain.producer_ecu]
        tx_stack.add_tx_pdu(chain_pdu(), PERIODIC, chain.period)
        rx_stack.add_rx_pdu(chain_pdu())
        receiver = protect_link(tx_stack, rx_stack, chain.pdu_name,
                                profile)
        probe = ChainProbe(chain.pdu_name)
        produced = itertools.count(1)

        def on_producer_complete(job):
            seq = next(produced) % 65536
            probe.stamp(seq, job.activation_time)
            tx_stack.write_signal(chain.signal_name, seq)

        def on_consumer_complete(job):
            probe.observe(rx_stack.read_signal(chain.signal_name),
                          job.completed_at)

    # -- fixed-priority ECU kernels ------------------------------------
    resources = {name: OsekResource(name, ceiling)
                 for name, ceiling in system.resources.items()}
    sections = {s.task: s for s in system.critical_sections}

    kernels: dict[str, EcuKernel] = {}
    consumer_task = None
    for ecu in system.fp_ecus:
        kernel = EcuKernel(sim, FixedPriorityScheduler(), trace, name=ecu)
        kernels[ecu] = kernel
        for spec in system.tasksets[ecu]:
            if chain is not None and spec.name == chain.consumer \
                    and on_consumer_complete is not None:
                consumer_task = kernel.add_task(
                    spec, on_complete=on_consumer_complete,
                    auto_start=False)
            elif chain is not None and spec.name == chain.producer \
                    and on_producer_complete is not None:
                kernel.add_task(spec, on_complete=on_producer_complete)
            elif spec.name in sections:
                section = sections[spec.name]
                kernel.add_task(spec, body=_cs_body(
                    section, resources[section.resource]))
            else:
                kernel.add_task(spec)

    if consumer_task is not None:
        consumer_kernel = kernels[chain.consumer_ecu]
        rx_stack.on_signal(
            chain.signal_name,
            lambda __: consumer_kernel.activate(consumer_task))

    # -- TDMA ECU ------------------------------------------------------
    if system.tdma is not None:
        tdma_kernel = EcuKernel(sim, system.tdma.scheduler(), trace,
                                name=system.tdma.ecu)
        kernels[system.tdma.ecu] = tdma_kernel
        for spec in system.tdma.tasks:
            tdma_kernel.add_task(spec)

    # -- FlexRay cluster -----------------------------------------------
    flexray_bus = None
    if system.flexray is not None:
        flexray_bus = FlexRayBus(sim, system.flexray.config, trace)
        controllers = {node: flexray_bus.attach(node)
                       for node in system.flexray.nodes}
        for writer in system.flexray.static_writers:
            flexray_bus.assign_slot(writer.assignment)
        flexray_bus.start()

        def start_static(writer):
            controller = controllers[writer.assignment.node]
            payloads = itertools.count(1)

            def fire():
                controller.send_static(writer.assignment.slot,
                                       next(payloads))
                sim.schedule(writer.period, fire)

            sim.schedule_at(writer.offset, fire)

        def start_dynamic(writer):
            controller = controllers[writer.node]
            payloads = itertools.count(1)

            def fire():
                controller.queue_dynamic(writer.spec, next(payloads))
                sim.schedule(writer.period, fire)

            sim.schedule_at(writer.offset, fire)

        for writer in system.flexray.static_writers:
            start_static(writer)
        for writer in system.flexray.dynamic_writers:
            start_dynamic(writer)

    return BuiltSystem(sim, trace, kernels, can_bus, flexray_bus, probe,
                       receiver, default_horizon(system), stacks, rx_stack)


# ----------------------------------------------------------------------
# Differential verification
# ----------------------------------------------------------------------
def make_invariants(system: GeneratedSystem) -> list[Invariant]:
    """The invariant set matching one generated system."""
    task_ecu = {t.name: ecu for ecu in system.fp_ecus
                for t in system.tasksets[ecu]}
    if system.tdma is not None:
        task_ecu.update({t.name: system.tdma.ecu
                         for t in system.tdma.tasks})
    priorities = {t.name: t.priority for t in system.all_task_specs()}
    invariants: list[Invariant] = [
        NoOverlappingExecution(task_ecu),
        PriorityCeilingInvariant(priorities, system.resources, task_ecu),
    ]
    if system.tdma is not None:
        scheduler = system.tdma.scheduler()
        windows = [(w.start, w.length, w.partition)
                   for w in scheduler.windows]
        partition_of = {t.name: t.partition for t in system.tdma.tasks}
        invariants.append(TdmaWindowInvariant(
            windows, system.tdma.major_frame, partition_of))
    chain = system.chain
    if chain is not None and system.can is not None:
        invariants.append(AliveCounterInvariant(
            chain.pdu_name, 1 << chain.counter_bits,
            chain.max_delta_counter))
        invariants.append(E2eContainmentInvariant())
    return invariants


def _observations(built: BuiltSystem, layer: str, subject: str) -> list[int]:
    """Simulated measurements matching one analytic bound."""
    if layer in ("rta", "tdma"):
        return built.trace.data_values("task.complete", "response", subject)
    if layer == "can":
        return built.can_bus.latencies(subject) if built.can_bus else []
    if layer in ("flexray_static", "flexray_dynamic"):
        return (built.flexray_bus.latencies(subject)
                if built.flexray_bus else [])
    if layer == "e2e":
        return list(built.probe.latencies) if built.probe else []
    raise AnalysisError(f"unknown layer {layer!r}")


def verify_system(system: GeneratedSystem,
                  horizon: Optional[int] = None,
                  daq_period: Optional[int] = None) -> SystemVerdict:
    """Run the full differential check for one generated system.

    ``daq_period`` (ns, optional) attaches the measurement service and
    runs the default DAQ list alongside the differential run; the
    samples land in ``verdict.daq_rows``.  Sampling only *reads* the
    live object graph and keeps its records out of the simulation
    trace, so checks, invariants and the verification digest are the
    same with or without it.
    """
    with obs.span("verify.system", category="verify", system=system.name,
                  seed=system.seed, size=system.size):
        bounds, declined = analyze_bounds(system)
        built = build_system(system)
        service = None
        if daq_period is not None:
            from repro.meas.service import MeasurementService, default_daq

            service = MeasurementService.attach(built, system)
            service.connect()
            service.start_daq(default_daq(service.registry, daq_period))
        built.sim.run_until(horizon if horizon is not None
                            else built.horizon)
        checks = []
        for layer, subject, bound in bounds:
            values = _observations(built, layer, subject)
            checks.append(Check(layer, subject, bound,
                                max(values) if values else None,
                                len(values)))
        violations = InvariantChecker(
            make_invariants(system)).run(built.trace)
        if system.faults:
            # Injected-fault scenarios run in *separate* simulations
            # (the nominal differential run above stays fault-free);
            # unmet detect/contain/recover obligations surface as
            # invariant violations so every downstream consumer —
            # failure keys, shrinking, fuzz feedback — sees them.
            from repro.verify.resilience import verify_resilience
            for rv in verify_resilience(system):
                if not rv.supported:
                    declined.append(f"resilience:{rv.scenario.label()}")
                    continue
                violations.extend(rv.violations())
        verdict = SystemVerdict(system.name, system.seed, system.size,
                                checks, declined, violations,
                                len(built.trace))
        if service is not None:
            service.detach()
            verdict.daq_rows = service.sample_rows()
    if obs.enabled():
        obs.count("verify.systems")
        obs.count("verify.checks", len(verdict.checks))
        obs.count("verify.declined", len(verdict.declined))
        obs.count("verify.soundness_violations",
                  len(verdict.soundness_violations))
        obs.count("verify.invariant_violations",
                  len(verdict.invariant_violations))
        obs.count("verify.trace_records", verdict.records)
        # Overload symptoms: these make saturation *visible* to the
        # fuzzer's feedback signature — a mutant that starts shedding
        # activations or missing deadlines reached new behaviour even
        # while every bound still holds.
        lost = len(built.trace.records("task.activation_lost"))
        if lost:
            obs.count("verify.activations_lost", lost)
        missed = len(built.trace.records("task.deadline_miss"))
        if missed:
            obs.count("verify.deadline_misses", missed)
        for check in verdict.checks:
            if check.tightness is not None:
                obs.observe("verify.tightness", check.tightness,
                            buckets=obs.RATIO_BUCKETS)
        obs.harvest_trace(built.trace, system.name)
    return verdict


def _system_worker(horizon: Optional[int], daq_period: Optional[int],
                   system: GeneratedSystem, seed: int) -> SystemVerdict:
    """Plan worker (module-level, hence picklable): one system per call.

    The ``seed`` argument is the engine's spawn-derived per-item seed;
    the system spec was already generated from it, so verification
    itself draws no randomness and the argument is unused.
    """
    return verify_system(system, horizon, daq_period)


def verify_plan(kind: str, scope: str, systems: tuple,
                horizon: Optional[int], daq_period: Optional[int],
                base_seed: int):
    """The exec plan verifying ``systems`` (shared by
    :func:`verify_many` and :func:`repro.model.build.verify_models`).

    DAQ runs get their own ``<kind>-daq`` label: the checkpoint
    fingerprint covers the label, so journals of plain and sampling
    runs never mix result shapes."""
    from repro.exec import Plan

    label = f"{kind}:{scope}:horizon={horizon}"
    if daq_period is not None:
        label = f"{kind}-daq:{scope}:horizon={horizon}:period={daq_period}"
    return Plan(label, functools.partial(_system_worker, horizon,
                                         daq_period),
                systems, base_seed=base_seed)


def verify_many(seed: int, count: int, size: str = "small",
                horizon: Optional[int] = None, jobs: int = 1,
                checkpoint=None, resume: bool = False, retries: int = 1,
                progress=None,
                interrupt_after: Optional[int] = None,
                daq_period: Optional[int] = None) -> VerificationReport:
    """Generate and differentially verify ``count`` systems.

    System specs are generated up front (cheap) and fanned out over
    :mod:`repro.exec` (simulation is the expensive half) — the specs
    travel to the workers by pickling, and results merge in plan order,
    so ``jobs=1`` and ``jobs=N`` produce identical report digests.
    ``checkpoint``/``resume`` journal per-system verdicts and skip
    completed systems on restart.
    """
    from repro.exec import execute

    plan = verify_plan("verify", f"size={size}",
                       tuple(generate_many(seed, count, size)), horizon,
                       daq_period, seed)
    outcome = execute(plan, jobs=jobs, retries=retries,
                      checkpoint=checkpoint, resume=resume,
                      progress=progress, interrupt_after=interrupt_after)
    outcome.raise_on_failure()
    return VerificationReport(seed, count, size, list(outcome.results))


def format_report(report: VerificationReport) -> str:
    """Deterministic human-readable summary of a verification batch."""
    lines = [f"differential verification: seed={report.seed} "
             f"systems={report.count} size={report.size}"]
    header = (f"  {'layer':<16} {'checks':>6} {'measured':>8} "
              f"{'declined':>8} {'violations':>10} {'tightness':>22}")
    lines.append(header)
    for layer, row in report.layer_summary().items():
        if row["tightness_min"] is None:
            spread = "-"
        else:
            spread = (f"{row['tightness_min']:.2f}/"
                      f"{row['tightness_median']:.2f}/"
                      f"{row['tightness_max']:.2f}")
        lines.append(f"  {layer:<16} {row['checks']:>6} "
                     f"{row['measured']:>8} {row['declined']:>8} "
                     f"{row['violations']:>10} {spread:>22}")
    lines.append(f"invariant violations: {report.invariant_violations}")
    lines.append(f"report digest: sha256:{report.digest()}")
    lines.append(f"verdict: {'PASS' if report.passed else 'FAIL'} "
                 f"({report.soundness_violations} soundness, "
                 f"{report.invariant_violations} invariant violation(s))")
    return "\n".join(lines)
