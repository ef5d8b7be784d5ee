"""Seeded random generation of valid distributed system configurations.

The differential oracle (:mod:`repro.verify.oracle`) needs a steady
supply of *valid but unchoreographed* systems: task sets with
priorities/periods/WCETs, CAN frame layouts packed from random signals,
an E2E-protected cause-effect chain, FlexRay static/dynamic traffic and
a TDMA-partitioned ECU.  Everything is derived from one
``random.Random(seed)`` stream, so the same ``(seed, size)`` pair always
yields byte-identical configurations — the determinism the acceptance
gate relies on.

The generator *constructs descriptions* (specs and plans) out of the
same building blocks the rest of the library uses
(:class:`~repro.osek.task.TaskSpec`, :func:`~repro.com.packing.pack_signals`,
:class:`~repro.network.can.CanFrameSpec`, ...); the oracle turns a
:class:`GeneratedSystem` into a live simulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.com.e2e import E2eProfile, e2e_protected_pdu
from repro.com.ipdu import IPdu
from repro.com.packing import PackableSignal, PackedFrame, pack_signals
from repro.com.signal import SignalSpec
from repro.errors import ConfigurationError
from repro.network.can import CanFrameSpec, frame_time
from repro.network.flexray import (DynamicFrameSpec, FlexRayConfig,
                                   StaticSlotAssignment)
from repro.osek.task import TaskSpec
from repro.osek.tdma import TdmaScheduler, build_even_schedule
from repro.units import ms, us

#: Task periods drawn for fixed-priority ECUs (harmonic-ish automotive mix).
PERIOD_POOL = (ms(5), ms(10), ms(20), ms(25), ms(50), ms(100))
#: Signal periods (>= 10 ms keeps generated bus load analysable).
SIGNAL_PERIOD_POOL = (ms(10), ms(20), ms(25), ms(50), ms(100))
#: Task periods on the TDMA-partitioned ECU (must exceed one major frame
#: plus one window so the single-demand supply bound applies).
TDMA_PERIOD_POOL = (ms(20), ms(50), ms(100))

CAN_BITRATE_BPS = 500_000
#: Background frame identifiers start here (period-monotonic order).
BASE_CAN_ID = 0x100
#: The E2E-protected chain frame outranks all background frames.
CHAIN_CAN_ID = 0xF0
#: Generated priorities start here; larger number = more important.
PRIORITY_BASE = 10
#: Generated CAN sets are trimmed to stay analysable.
MAX_BUS_UTILIZATION = 0.80

TDMA_MAJOR_FRAME = ms(10)


@dataclass(frozen=True)
class SizeSpec:
    """Knobs of one generation size class."""

    name: str
    n_ecus: int
    tasks_per_ecu: tuple[int, int]
    utilization: float
    n_signals: tuple[int, int]
    n_static_frames: tuple[int, int]
    n_dynamic_frames: int
    tdma_partitions: int
    tasks_per_partition: tuple[int, int]


SIZES: dict[str, SizeSpec] = {
    "small": SizeSpec("small", 2, (3, 4), 0.45, (10, 14), (3, 4), 2,
                      2, (1, 2)),
    "medium": SizeSpec("medium", 3, (4, 6), 0.55, (18, 26), (5, 6), 3,
                       3, (2, 3)),
    "large": SizeSpec("large", 4, (6, 8), 0.60, (30, 40), (8, 10), 3,
                      4, (2, 3)),
}


@dataclass(frozen=True)
class CriticalSection:
    """One task's ICPP critical section: pre/cs/post sum to its WCET."""

    task: str
    resource: str
    pre: int
    duration: int
    post: int


@dataclass(frozen=True)
class ChainPlan:
    """The generated E2E-protected cause-effect chain."""

    producer: str
    producer_ecu: str
    consumer: str
    consumer_ecu: str
    signal_name: str
    signal_bits: int
    pdu_name: str
    period: int
    data_id: int
    counter_bits: int
    max_delta_counter: int
    timeout: int

    def profile(self) -> E2eProfile:
        """Build the (stateless) E2E profile for either link end."""
        return E2eProfile(self.data_id, self.counter_bits,
                          self.max_delta_counter, self.timeout)

    def pdu(self) -> IPdu:
        """Build the protected 8-byte I-PDU either link end registers:
        the chain signal, then the E2E counter and CRC."""
        return e2e_protected_pdu(
            self.pdu_name, 8, [SignalSpec(self.signal_name,
                                          self.signal_bits)],
            self.profile())


@dataclass(frozen=True)
class CanPlan:
    """Background CAN traffic: packed frames plus their frame specs."""

    bitrate_bps: int
    frames: tuple[PackedFrame, ...]
    frame_specs: tuple[CanFrameSpec, ...]

    def spec_of(self, pdu_name: str) -> CanFrameSpec:
        """Frame spec by PDU name."""
        for spec in self.frame_specs:
            if spec.name == pdu_name:
                return spec
        raise ConfigurationError(f"no CAN frame named {pdu_name!r}")


@dataclass(frozen=True)
class StaticWriter:
    """A periodic writer of one FlexRay static slot."""

    assignment: StaticSlotAssignment
    period: int
    offset: int


@dataclass(frozen=True)
class DynamicWriter:
    """A periodic enqueuer of one FlexRay dynamic frame."""

    spec: DynamicFrameSpec
    node: str
    period: int
    offset: int


@dataclass(frozen=True)
class FlexRayPlan:
    """FlexRay cluster configuration and traffic."""

    config: FlexRayConfig
    nodes: tuple[str, ...]
    static_writers: tuple[StaticWriter, ...]
    dynamic_writers: tuple[DynamicWriter, ...]


@dataclass(frozen=True)
class TdmaPlan:
    """The TDMA-partitioned ECU."""

    ecu: str
    partitions: tuple[str, ...]
    major_frame: int
    tasks: tuple[TaskSpec, ...]

    def scheduler(self) -> TdmaScheduler:
        """Fresh scheduler instance (even windows over the partitions)."""
        return build_even_schedule(list(self.partitions), self.major_frame)

    def hp_task(self, partition: str) -> TaskSpec:
        """Highest-priority task of a partition (the one the single-
        demand supply bound is valid for)."""
        members = [t for t in self.tasks if t.partition == partition]
        return max(members, key=lambda t: t.priority)


@dataclass(frozen=True)
class FaultScenario:
    """One injected fault hypothesis riding along with a system.

    ``kind`` is a kind :mod:`repro.verify.resilience` can inject;
    ``target`` names the affected element where the kind needs one (the
    static-slot frame for ``flexray-slot-loss``), and is ``""`` for
    kinds whose target is implied (the E2E chain, its producer ECU, or
    the CAN bus).  The fault is active over ``[start, start + duration)``
    simulation ns.
    """

    kind: str
    start: int
    duration: int
    target: str = ""

    @property
    def end(self) -> int:
        return self.start + self.duration

    def label(self) -> str:
        """Stable display/subject label for verdicts and telemetry."""
        suffix = f":{self.target}" if self.target else ""
        return f"{self.kind}{suffix}@{self.start}"


@dataclass
class GeneratedSystem:
    """One complete generated configuration."""

    name: str
    seed: int
    size: str
    tasksets: dict[str, list[TaskSpec]] = field(default_factory=dict)
    resources: dict[str, int] = field(default_factory=dict)
    critical_sections: list[CriticalSection] = field(default_factory=list)
    chain: Optional[ChainPlan] = None
    can: Optional[CanPlan] = None
    flexray: Optional[FlexRayPlan] = None
    tdma: Optional[TdmaPlan] = None
    faults: list[FaultScenario] = field(default_factory=list)

    @property
    def fp_ecus(self) -> list[str]:
        """Fixed-priority ECU names, in deterministic order."""
        return sorted(self.tasksets)

    def all_task_specs(self) -> list[TaskSpec]:
        """Every task spec (fixed-priority ECUs + TDMA ECU).

        Tolerates a missing TDMA plan: shrunk counterexamples (see
        :mod:`repro.verify.shrink`) keep only the subsystems their
        failure needs.
        """
        specs = [t for ecu in self.fp_ecus for t in self.tasksets[ecu]]
        if self.tdma is not None:
            specs.extend(self.tdma.tasks)
        return specs


def _uunifast(rng: random.Random, n: int, total: float) -> list[float]:
    """UUniFast: split ``total`` utilization over ``n`` tasks uniformly."""
    utils = []
    remaining = total
    for i in range(1, n):
        nxt = remaining * rng.random() ** (1.0 / (n - i))
        utils.append(remaining - nxt)
        remaining = nxt
    utils.append(remaining)
    return utils


def _assign_priorities(rows: list[tuple[str, int, int]],
                       base: int = PRIORITY_BASE) -> list[TaskSpec]:
    """Rate-monotonic unique priorities: shorter period = higher.

    ``rows`` are ``(name, wcet, period)``; ties break on name so the
    assignment is deterministic.
    """
    order = sorted(rows, key=lambda r: (r[2], r[0]))
    priority_of = {name: base + len(order) - rank
                   for rank, (name, __, __) in enumerate(order)}
    return [TaskSpec(name, wcet, period=period,
                     priority=priority_of[name])
            for name, wcet, period in rows]


def _generate_taskset(rng: random.Random, ecu: str,
                      spec: SizeSpec) -> list[tuple[str, int, int]]:
    """Random (name, wcet, period) rows for one fixed-priority ECU."""
    n = rng.randint(*spec.tasks_per_ecu)
    rows = []
    for i, u in enumerate(_uunifast(rng, n, spec.utilization)):
        period = rng.choice(PERIOD_POOL)
        wcet = min(max(us(30), int(u * period)), period // 2)
        rows.append((f"{ecu}.T{i}", wcet, period))
    return rows


def _generate_can(rng: random.Random, spec: SizeSpec, ecus: list[str],
                  chain: ChainPlan) -> CanPlan:
    """Random signals, packed first-fit-decreasing into periodic frames.

    Identifiers are assigned period-monotonically starting at
    ``BASE_CAN_ID``; the frame set is trimmed (longest periods first
    stay) until worst-case bus utilization is analysable.
    """
    n = rng.randint(*spec.n_signals)
    signals = [PackableSignal(SignalSpec(f"sig{i}", rng.randint(1, 16)),
                              rng.choice(SIGNAL_PERIOD_POOL),
                              rng.choice(ecus))
               for i in range(n)]
    packed = pack_signals(signals, frame_bytes=8)
    packed.sort(key=lambda f: (f.period, f.ipdu.name))
    chain_spec = CanFrameSpec(chain.pdu_name, CHAIN_CAN_ID, dlc=8,
                              period=chain.period)
    while packed:
        specs = [CanFrameSpec(f.ipdu.name, BASE_CAN_ID + i, dlc=8,
                              period=f.period)
                 for i, f in enumerate(packed)]
        util = sum(frame_time(s.dlc, CAN_BITRATE_BPS) / s.period
                   for s in specs + [chain_spec])
        if util <= MAX_BUS_UTILIZATION:
            break
        packed.pop()  # shed the highest-id (slowest-added) frame
    else:
        specs = []
    return CanPlan(CAN_BITRATE_BPS, tuple(packed),
                   tuple([chain_spec] + specs))


def _generate_flexray(rng: random.Random, spec: SizeSpec) -> FlexRayPlan:
    """A FlexRay cluster: static slots with cycle multiplexing plus a
    handful of dynamic-segment frames (all guaranteed to fit one
    dynamic segment, so the conservative latency bound applies)."""
    n_static = rng.randint(*spec.n_static_frames)
    config = FlexRayConfig(slot_length=us(100), n_static_slots=n_static + 1,
                           minislot_length=us(10), n_minislots=24,
                           nit_length=us(50), bitrate_bps=10_000_000)
    nodes = ("FR0", "FR1")
    cycle = config.cycle_length
    static_writers = []
    for i in range(n_static):
        repetition = rng.choice((1, 2, 4))
        base_cycle = rng.randrange(repetition)
        assignment = StaticSlotAssignment(i + 1, nodes[i % 2], f"SF{i}",
                                          base_cycle, repetition)
        period = repetition * cycle
        static_writers.append(StaticWriter(assignment, period,
                                           rng.randrange(period)))
    dynamic_writers = []
    for i in range(spec.n_dynamic_frames):
        dyn = DynamicFrameSpec(f"DF{i}", frame_id=i + 1,
                               size_bytes=rng.randint(2, 8))
        period = 4 * cycle
        dynamic_writers.append(DynamicWriter(dyn, nodes[i % 2], period,
                                             rng.randrange(period)))
    return FlexRayPlan(config, nodes, tuple(static_writers),
                       tuple(dynamic_writers))


def _generate_tdma(rng: random.Random, spec: SizeSpec) -> TdmaPlan:
    """A TDMA-partitioned ECU with an even window schedule.

    WCETs stay below a third of one window and periods exceed one major
    frame plus one window, so the highest-priority task of each
    partition is covered by the single-demand supply bound.
    """
    ecu = "TDMA0"
    partitions = tuple(f"P{i}" for i in range(spec.tdma_partitions))
    window = TDMA_MAJOR_FRAME // spec.tdma_partitions
    rows = []
    owner = {}
    for partition in partitions:
        for i in range(rng.randint(*spec.tasks_per_partition)):
            name = f"{ecu}.{partition}.T{i}"
            wcet = rng.randint(us(100), max(us(100) + 1, window // 3))
            rows.append((name, wcet, rng.choice(TDMA_PERIOD_POOL)))
            owner[name] = partition
    specs = _assign_priorities(rows)
    tasks = tuple(TaskSpec(t.name, t.wcet, period=t.period,
                           priority=t.priority, partition=owner[t.name])
                  for t in specs)
    return TdmaPlan(ecu, partitions, TDMA_MAJOR_FRAME, tasks)


def generate(seed: int, size: str = "small") -> GeneratedSystem:
    """Generate one valid random system for ``(seed, size)``."""
    spec = SIZES.get(size)
    if spec is None:
        raise ConfigurationError(
            f"unknown size {size!r}; pick one of {sorted(SIZES)}")
    rng = random.Random(seed)
    system = GeneratedSystem(f"sys-{size}-{seed}", seed, size)
    ecus = [f"E{i}" for i in range(spec.n_ecus)]

    # -- cause-effect chain over CAN (producer on E0, consumer on E1) --
    chain_period = rng.choice((ms(10), ms(20)))
    chain = ChainPlan(
        producer="E0.prod", producer_ecu="E0",
        consumer="E1.cons", consumer_ecu="E1",
        signal_name="chain.seq", signal_bits=16,
        pdu_name="CHAIN", period=chain_period,
        data_id=(seed * 7919 + 0x1234) & 0xFFFF,
        counter_bits=4, max_delta_counter=1,
        timeout=3 * chain_period)
    system.chain = chain

    # -- fixed-priority ECUs -------------------------------------------
    for ecu in ecus:
        rows = _generate_taskset(rng, ecu, spec)
        if ecu == chain.producer_ecu:
            rows.append((chain.producer, us(200), chain_period))
        system.tasksets[ecu] = _assign_priorities(rows)

    # The consumer is sporadic (activated by chain-frame reception) but
    # analysed as periodic at the chain period with release jitter up to
    # one period (the worst delivery delay of a schedulable frame).  Top
    # priority on its ECU keeps its own busy window trivial.
    consumer_ecu_tasks = system.tasksets[chain.consumer_ecu]
    top = max(t.priority for t in consumer_ecu_tasks) + 1
    consumer_ecu_tasks.append(
        TaskSpec(chain.consumer, us(200), period=chain_period,
                 priority=top, jitter=chain_period, max_activations=3))

    # -- one ICPP resource shared by two tasks on E0 -------------------
    candidates = sorted((t for t in system.tasksets["E0"]
                         if t.name != chain.producer and t.wcet >= 3),
                        key=lambda t: t.priority)[:2]
    if len(candidates) == 2:
        resource = "R.E0"
        system.resources[resource] = max(t.priority for t in candidates)
        for task in candidates:
            duration = max(1, task.wcet // 4)
            pre = (task.wcet - duration) // 2
            system.critical_sections.append(CriticalSection(
                task.name, resource, pre, duration,
                task.wcet - duration - pre))

    system.can = _generate_can(rng, spec, ecus, chain)
    system.flexray = _generate_flexray(rng, spec)
    system.tdma = _generate_tdma(rng, spec)
    return system


def generate_many(seed: int, count: int,
                  size: str = "small") -> list[GeneratedSystem]:
    """Generate ``count`` systems, each seeded from ``(seed, index)``.

    Per-system seeds are spawn-derived by
    :func:`repro.exec.shard.derive_seed` — a pure function of the batch
    seed and the system's index, with no shared sequential stream — so
    system ``i`` is identical whether the batch is generated serially,
    in parallel, in any order, or one system at a time
    (``generate_many(s, n)[:k] == generate_many(s, k)``).
    """
    from repro.exec.shard import derive_seed

    return [generate(derive_seed(seed, i), size) for i in range(count)]
