"""Fault campaigns: deterministic sweeps over fault matrices.

A *campaign* runs the same scenario once per cell of a
(kind × target × onset × duration) matrix, injecting exactly one fault
per run, and measures what Section 4 of the paper demands from an
integrated architecture: was the fault **detected** (and how fast), was
the damage **contained** to the faulty element's region, and did the
system **recover** after the fault window closed?

The runner owns none of the scenario: a user-supplied factory builds a
fresh world per cell (fresh simulator, stacks, error manager …), so
cells are independent and bit-for-bit reproducible.  The report is a
plain data structure consumable by :mod:`repro.analysis.system_report`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro import obs
from repro.digest import canonical_digest
from repro.errors import ConfigurationError
from repro.faults.model import Fault
from repro.faults.monitor import (containment_violations,
                                  first_detection, last_recovery)
from repro.sim.trace import summarize

#: Trace categories counted as *detection* of an injected fault.  E2E
#: receiver error verdicts, watchdog expiry, OS budget enforcement and
#: COM deadline monitoring are the paper's detector inventory.
DETECTION_CATEGORIES = (
    "e2e.crc_error",
    "e2e.wrong_sequence",
    "e2e.repeated",
    "e2e.timeout",
    "wdg.violation",
    "task.budget_overrun",
    "com.timeout",
)


@dataclass(frozen=True)
class CampaignCell:
    """One point of the fault matrix."""

    kind: str
    target: str
    onset: int
    duration: Optional[int] = None
    params: dict = field(default_factory=dict, hash=False)

    def fault(self) -> Fault:
        """A fresh Fault instance for this cell's injection."""
        return Fault(self.kind, self.target, self.onset, self.duration,
                     dict(self.params))

    @property
    def label(self) -> str:
        return f"{self.kind}@{self.target}+{self.onset}"

    @property
    def end(self) -> Optional[int]:
        if self.duration is None:
            return None
        return self.onset + self.duration


def grid(kinds: Iterable[str], targets: Iterable[str],
         onsets: Iterable[int], durations: Iterable[Optional[int]],
         params: Optional[dict] = None,
         supported: Optional[Callable[[str, str], bool]] = None
         ) -> list[CampaignCell]:
    """Cartesian fault matrix; ``supported(kind, target)`` prunes cells
    the scenario cannot inject (e.g. CRASH on a COM signal)."""
    cells = []
    for kind, target, onset, duration in itertools.product(
            kinds, targets, onsets, durations):
        if supported is not None and not supported(kind, target):
            continue
        cells.append(CampaignCell(kind, target, onset, duration,
                                  dict(params or {})))
    return cells


@dataclass
class CellResult:
    """Measured outcome of one campaign cell."""

    cell: CampaignCell
    detected: bool
    detection_time: Optional[int]
    detection_latency: Optional[int]
    detection_source: Optional[str]
    confirmed_dtcs: list[int]
    degraded: bool
    contained: bool
    escaped_damage: int
    recovered: bool
    recovery_time: Optional[int]
    recovery_latency: Optional[int]
    errors: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    #: DAQ sample rows when a measurement service rode along
    #: (``--daq``); excluded from :meth:`to_dict` so campaign digests
    #: are unchanged by sampling — the rows carry their own digest
    #: (:meth:`CampaignReport.measurement_digest`).
    daq_rows: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """Flat row for tables/CSV (extra metrics inlined)."""
        row = {
            "kind": self.cell.kind,
            "target": self.cell.target,
            "onset": self.cell.onset,
            "duration": self.cell.duration,
            "detected": self.detected,
            "detection_latency": self.detection_latency,
            "detection_source": self.detection_source,
            "dtcs": list(self.confirmed_dtcs),
            "degraded": self.degraded,
            "contained": self.contained,
            "escaped_damage": self.escaped_damage,
            "recovered": self.recovered,
            "recovery_latency": self.recovery_latency,
        }
        row.update(self.extra)
        return row


@dataclass
class CampaignReport:
    """All cell results of one campaign plus summary accessors."""

    results: list[CellResult]
    horizon: int

    def to_dicts(self) -> list[dict]:
        return [r.to_dict() for r in self.results]

    @property
    def cells(self) -> int:
        return len(self.results)

    @property
    def detection_rate(self) -> Optional[float]:
        if not self.results:
            return None
        return sum(r.detected for r in self.results) / len(self.results)

    @property
    def containment_rate(self) -> Optional[float]:
        if not self.results:
            return None
        return sum(r.contained for r in self.results) / len(self.results)

    @property
    def recovery_rate(self) -> Optional[float]:
        """Share of *recoverable* cells (finite fault window) that
        healed back to nominal before the horizon."""
        finite = [r for r in self.results if r.cell.duration is not None]
        if not finite:
            return None
        return sum(r.recovered for r in finite) / len(finite)

    def detection_latencies(self) -> list[int]:
        return [r.detection_latency for r in self.results
                if r.detection_latency is not None]

    def recovery_latencies(self) -> list[int]:
        return [r.recovery_latency for r in self.results
                if r.recovery_latency is not None]

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form of the *sorted* result
        rows — identical for any executor (serial, parallel, resumed)
        that ran the same cells to the same horizon."""
        rows = sorted(self.to_dicts(),
                      key=lambda row: (row["kind"], row["target"],
                                       row["onset"],
                                       -1 if row["duration"] is None
                                       else row["duration"]))
        return canonical_digest({"horizon": self.horizon, "cells": rows},
                                default=repr)

    @property
    def daq_sample_count(self) -> int:
        return sum(len(r.daq_rows) for r in self.results)

    def measurement_digest(self) -> str:
        """Canonical digest of the DAQ rows collected alongside the
        campaign (``--daq``), keyed and sorted by cell label — the same
        ordering discipline as :meth:`digest`, so it is byte-identical
        across ``--jobs`` levels and ``--resume``."""
        from repro.meas.service import samples_digest

        ordered = sorted(self.results,
                         key=lambda r: (r.cell.kind, r.cell.target,
                                        r.cell.onset,
                                        -1 if r.cell.duration is None
                                        else r.cell.duration))
        return samples_digest([[r.cell.label, r.daq_rows]
                               for r in ordered])

    def summary(self) -> dict:
        """Aggregate verdicts (the report's one-look row)."""
        return {
            "cells": self.cells,
            "detection_rate": self.detection_rate,
            "containment_rate": self.containment_rate,
            "recovery_rate": self.recovery_rate,
            "detection_latency": summarize(self.detection_latencies()),
            "recovery_latency": summarize(self.recovery_latencies()),
            "undetected": [r.cell.label for r in self.results
                           if not r.detected],
            "escaped": [r.cell.label for r in self.results
                        if not r.contained],
        }


class CampaignWorld:
    """Base class for campaign scenarios (duck typing suffices).

    A factory passed to :func:`run_campaign` must return an object per
    cell exposing:

    * ``sim`` — a fresh :class:`~repro.sim.kernel.Simulator`;
    * ``trace`` — the shared :class:`~repro.sim.trace.Trace` all
      subsystems of the scenario log into;
    * ``injector`` — a :class:`~repro.faults.injector.FaultInjector`;
    * ``adapter_for(cell)`` — the fault adapter to inject through;
    * optionally ``errors`` (ErrorManager), ``modes`` (ModeMachine),
      ``allowed_region(cell)`` (containment region, default
      ``{cell.target}``) and ``metrics()`` (extra per-cell readings
      merged into the result row).
    """

    errors = None
    modes = None

    def adapter_for(self, cell: CampaignCell):
        raise NotImplementedError

    def allowed_region(self, cell: CampaignCell) -> set[str]:
        """Trace subjects allowed to show damage for this cell."""
        return {cell.target}

    def detection_categories(self, cell: CampaignCell) -> tuple:
        """Trace categories that count as *detecting* this cell's fault.

        The default is the full :data:`DETECTION_CATEGORIES` tuple;
        worlds whose faults are detected by mechanism-specific evidence
        (a guardian block, a slot-loss record) narrow it per cell.
        """
        return DETECTION_CATEGORIES

    def metrics(self) -> dict:
        """Scenario-specific readings appended to the cell's row."""
        return {}


def _make_world(factory: Callable[..., CampaignWorld],
                seed: Optional[int]) -> CampaignWorld:
    """Build a fresh world, passing ``seed`` to factories that take one.

    Stochastic scenarios declare a ``seed`` parameter (or ``**kwargs``)
    and receive the cell's spawn-derived seed; deterministic worlds
    like :class:`ReferenceWorld` are simply called with no arguments.
    """
    if seed is None:
        return factory()
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        return factory()
    if "seed" in parameters or any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in parameters.values()):
        return factory(seed=seed)
    return factory()


def run_cell(factory: Callable[..., CampaignWorld], cell: CampaignCell,
             horizon: int, seed: Optional[int] = None,
             daq_period: Optional[int] = None) -> CellResult:
    """Run one cell: fresh world, one fault, measure, tear down.

    ``daq_period`` (ns, optional) attaches a generic measurement
    service (:func:`repro.meas.service.attach_world`) and samples the
    world cyclically; the rows land in ``result.daq_rows`` without
    touching the cell's trace or digest."""
    with obs.span("campaign.cell", category="campaign", kind=cell.kind,
                  target=cell.target, onset=cell.onset):
        world = _make_world(factory, seed)
        if cell.end is not None and cell.end >= horizon:
            raise ConfigurationError(
                f"cell {cell.label}: fault window must close before the "
                f"horizon {horizon} to measure recovery")
        adapter = world.adapter_for(cell)
        world.injector.inject(adapter, cell.fault())
        service = None
        if daq_period is not None:
            from repro.meas.service import attach_world, default_daq

            service = attach_world(world, node=f"MEAS:{cell.label}")
            service.connect()
            service.start_daq(default_daq(service.registry, daq_period))
        world.sim.run_until(horizon)
        result = _evaluate(world, cell, horizon)
        if service is not None:
            service.detach()
            result.daq_rows = service.sample_rows()
    if obs.enabled():
        obs.count("campaign.cells")
        obs.count(f"campaign.detected_by.{result.detection_source}"
                  if result.detected else "campaign.undetected")
        if result.detection_latency is not None:
            obs.observe("campaign.detection_latency_ns",
                        result.detection_latency)
        if result.recovery_latency is not None:
            obs.observe("campaign.recovery_latency_ns",
                        result.recovery_latency)
        # DEM events were already DLT-logged live by the ErrorManager;
        # harvest the remaining BSW categories (watchdog, recovery,
        # mode, E2E, COM) from the cell's trace without double-counting.
        obs.harvest_trace(
            (r for r in world.trace if not r.category.startswith("dem.")))
    return result


def _cell_worker(factory, horizon: int, daq_period: Optional[int],
                 cell: CampaignCell, seed: int) -> CellResult:
    """Plan worker (module-level, hence picklable): one cell per call."""
    return run_cell(factory, cell, horizon, seed, daq_period)


def run_campaign(factory: Callable[..., CampaignWorld],
                 cells: Iterable[CampaignCell],
                 horizon: int, jobs: int = 1, base_seed: int = 0,
                 checkpoint=None, resume: bool = False, retries: int = 1,
                 progress=None,
                 interrupt_after: Optional[int] = None,
                 daq_period: Optional[int] = None) -> CampaignReport:
    """Run every cell through a fresh world.

    Cells are executed through :mod:`repro.exec`: sharded one cell per
    chunk, seeded from ``(base_seed, cell_index)``, and merged back in
    plan order — so ``jobs=1`` and ``jobs=N`` yield reports with the
    same :meth:`CampaignReport.digest`.  ``checkpoint``/``resume``
    journal per-cell results to a JSONL file and skip completed cells
    on restart; ``interrupt_after`` aborts after that many completions
    (testing hook for the resume path).
    """
    from repro.exec import Plan, execute

    # DAQ runs get their own label: the checkpoint fingerprint covers
    # it, so plain and DAQ journals never mix result shapes.
    label = (f"campaign:horizon={horizon}" if daq_period is None else
             f"campaign-daq:horizon={horizon}:period={daq_period}")
    plan = Plan(label, functools.partial(_cell_worker, factory, horizon,
                                         daq_period),
                tuple(cells), base_seed=base_seed)
    outcome = execute(plan, jobs=jobs, retries=retries,
                      checkpoint=checkpoint, resume=resume,
                      progress=progress, interrupt_after=interrupt_after)
    outcome.raise_on_failure()
    return CampaignReport(outcome.results, horizon)


def _evaluate(world: CampaignWorld, cell: CampaignCell,
              horizon: int) -> CellResult:
    trace = world.trace
    categories = getattr(world, "detection_categories",
                         lambda c: DETECTION_CATEGORIES)(cell)
    detection = first_detection(trace, categories, cell.onset)
    detected = detection is not None
    detection_time = detection.time if detected else None

    errors_snapshot = {}
    confirmed_dtcs: list[int] = []
    if world.errors is not None:
        errors_snapshot = world.errors.snapshot()
        confirmed_dtcs = world.errors.stored_dtcs()

    nominal = None
    degraded = False
    if world.modes is not None:
        nominal = world.modes.history[0][1]
        degraded = any(mode != nominal
                       for _, mode in world.modes.history[1:])

    region = world.allowed_region(cell)
    escaped = containment_violations(trace, region, since=cell.onset)

    # Recovery: after the fault window closes, every confirmed error
    # must heal and the mode machine must return to nominal.
    recovery_time = None
    recovered = False
    if cell.end is not None:
        healed_clean = world.errors is None or not [
            e for e in world.errors.confirmed_events()]
        mode_nominal = world.modes is None \
            or world.modes.current == nominal
        recovered = healed_clean and mode_nominal
        if recovered:
            recovery_time = last_recovery(trace, cell.end, world.modes,
                                          nominal)

    return CellResult(
        cell=cell,
        detected=detected,
        detection_time=detection_time,
        detection_latency=(detection_time - cell.onset
                           if detected else None),
        detection_source=detection.category if detected else None,
        confirmed_dtcs=confirmed_dtcs,
        degraded=degraded,
        contained=not escaped,
        escaped_damage=len(escaped),
        recovered=recovered,
        recovery_time=recovery_time,
        recovery_latency=(recovery_time - cell.end
                          if recovery_time is not None else None),
        errors=errors_snapshot,
        extra=world.metrics(),
    )


# ---------------------------------------------------------------------------
# Reference scenario: a protected speed link on CAN with full recovery
# ---------------------------------------------------------------------------
#: DTCs the reference world stores.
DTC_SPEED_E2E = 0x4A01
DTC_PRODUCER_ALIVE = 0x4A02

#: Stuck-at value the reference corruption cells inject (outside the
#: producer's plausible 0..200 km/h range).
CORRUPT_VALUE = 0xFFFF


class ReferenceWorld(CampaignWorld):
    """Two-ECU CAN scenario wiring the whole protection/recovery stack.

    ECU A runs a periodic ``producer`` task (10 ms) writing a 16-bit
    ``speed`` signal into an E2E-protected PDU; ECU B consumes it.  A
    watchdog supervises the producer, an E2E receiver checks the link,
    both feed a debouncing error manager, and a recovery orchestrator
    escalates confirmed errors through substitution → limp mode →
    partition restart, healing back after the fault clears.  One world
    instance is one cell's universe.
    """

    PERIOD = 10_000_000          # 10 ms producer/pdu period
    E2E_TIMEOUT = 30_000_000     # 30 ms reception supervision
    WDG_WINDOW = 25_000_000      # 25 ms alive supervision window
    HOLD = 20_000_000            # escalation / heal hysteresis hold

    def __init__(self):
        from repro.bsw import (ErrorEvent, ErrorManager, ModeMachine,
                               RecoveryOrchestrator, RecoveryPolicy,
                               WatchdogManager)
        from repro.com import (CanComAdapter, ComStack, E2eProfile,
                               PERIODIC, SignalSpec, e2e_protected_pdu,
                               protect_link)
        from repro.network import CanBus, CanFrameSpec
        from repro.faults.injector import FaultInjector
        from repro.osek import EcuKernel, FixedPriorityScheduler, TaskSpec
        from repro.sim import Simulator, Trace

        self.sim = Simulator()
        self.trace = Trace()
        self.injector = FaultInjector(self.sim, self.trace)
        self.bus = CanBus(self.sim, 500_000, trace=self.trace)
        self.idiot_ctrl = self.bus.attach("idiot")

        # --- ECU A: producer task + protected tx stack ----------------
        self.kernel = EcuKernel(self.sim, FixedPriorityScheduler(),
                                trace=self.trace, name="EcuA")
        spec = SignalSpec("speed", 16, timeout=self.E2E_TIMEOUT)
        profile = E2eProfile(0x2A5A, timeout=self.E2E_TIMEOUT)
        self.tx = ComStack(
            self.sim,
            CanComAdapter(self.bus.attach("A"),
                          {"P": CanFrameSpec("P", 0x100)}),
            "A", trace=self.trace)
        self.tx.add_tx_pdu(e2e_protected_pdu("P", 8, [spec], profile),
                           mode=PERIODIC, period=self.PERIOD)
        self.kmh = 0

        def produce(job):
            self.kmh = (self.kmh + 1) % 200
            self.tx.write_signal("speed", self.kmh)

        self.producer = self.kernel.add_task(
            TaskSpec("producer", wcet=1_000_000, period=self.PERIOD,
                     budget=2_000_000, priority=5),
            on_complete=produce)
        self.watchdog = WatchdogManager(self.sim, trace=self.trace,
                                        name="WdgA")
        self.watchdog.supervise_task(self.kernel, "producer",
                                     window=self.WDG_WINDOW)

        # --- ECU B: protected rx stack + app-level consumption --------
        self.rx = ComStack(self.sim,
                           CanComAdapter(self.bus.attach("B"), {}),
                           "B", trace=self.trace)
        self.rx.add_rx_pdu(e2e_protected_pdu(
            "P", 8, [SignalSpec("speed", 16, timeout=self.E2E_TIMEOUT)],
            profile))
        self.receiver = protect_link(self.tx, self.rx, "P", profile)
        self.deliveries: list[tuple[int, int]] = []
        self.rx.on_signal(
            "speed",
            lambda value: self.deliveries.append((self.sim.now, value)))

        # --- Error handling, modes, recovery --------------------------
        self.errors = ErrorManager("SYS", trace=self.trace,
                                   now=lambda: self.sim.now)
        self.errors.register(ErrorEvent("speed_e2e", DTC_SPEED_E2E,
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
            watchdog=self.watchdog, com=self.rx, trace=self.trace)
        self.recovery.add_policy(RecoveryPolicy(
            "speed_e2e", signal="speed", degraded_mode="limp",
            escalate_hold=self.HOLD, heal_hold=self.HOLD))
        self.recovery.add_policy(RecoveryPolicy(
            "producer_alive", degraded_mode="limp",
            restart_entity="producer",
            escalate_hold=self.HOLD, heal_hold=self.HOLD))
        self.recovery.bind_e2e(self.receiver, "speed_e2e",
                               signal="speed")
        self.recovery.bind_watchdog({"producer": "producer_alive"},
                                    poll=self.WDG_WINDOW)

    # ------------------------------------------------------------------
    def adapter_for(self, cell: CampaignCell):
        from repro.faults.injector import (CanNodeAdapter,
                                           ComSignalAdapter, TaskAdapter)
        from repro.faults.model import BABBLING

        if cell.target == "speed":
            return ComSignalAdapter(self.rx, "speed")
        if cell.target == "producer":
            return TaskAdapter(self.kernel, self.producer)
        if cell.target == "idiot" and cell.kind == BABBLING:
            return CanNodeAdapter(self.sim, self.idiot_ctrl,
                                  flood_period=150_000)
        raise ConfigurationError(
            f"reference world cannot inject {cell.kind} on "
            f"{cell.target!r}")

    def allowed_region(self, cell: CampaignCell) -> set[str]:
        # The producer's region includes its own frame and signal: a
        # producer fault may legitimately starve them.
        if cell.target == "producer":
            return {"producer", "P", "speed"}
        return {cell.target, "P"}

    def metrics(self) -> dict:
        undetected = sum(1 for _, value in self.deliveries
                         if value == CORRUPT_VALUE)
        return {
            "app_deliveries": len(self.deliveries),
            "undetected_corrupted": undetected,
            "e2e_errors": self.receiver.error_count,
            "substituted": self.rx.substituted_signals(),
        }


def reference_cells(onset: int = 50_000_000,
                    duration: int = 100_000_000) -> list[CampaignCell]:
    """The reference matrix: all five fault kinds, one target each."""
    from repro.faults.model import (BABBLING, CORRUPTION, CRASH, OMISSION,
                                    TIMING_OVERRUN)
    return [
        CampaignCell(CORRUPTION, "speed", onset, duration,
                     {"value": CORRUPT_VALUE}),
        CampaignCell(OMISSION, "speed", onset, duration),
        CampaignCell(BABBLING, "idiot", onset, duration),
        CampaignCell(CRASH, "producer", onset, duration),
        CampaignCell(TIMING_OVERRUN, "producer", onset, duration),
    ]
