"""Structural mutation of generated systems for the coverage fuzzer.

Fresh random seeds (:func:`repro.verify.generator.generate`) sample the
*centre* of the configuration space — every draw respects the
generator's self-imposed safety margins (bus utilization caps, TDMA
WCETs below a third of a window, periods above the major frame).  The
interesting differential-verification cases live at the *edges*: task
sets right at the schedulability cliff, partitions near overload, bus
layouts the packing heuristic would never emit.  Mutators walk an
existing :class:`~repro.verify.generator.GeneratedSystem` toward those
edges **without leaving well-formedness**:

* every mutant satisfies :func:`validate_system` — the model document
  check :func:`repro.model.schema.validate_document` applied to the
  mutant's document (unique priorities, frames that fit their bus
  payload, disjoint FlexRay slots, chains referencing live tasks, fault
  windows above their detection floor);
* mutation is a pure function of ``(system, rng)`` — the same parent
  and seed always produce the same mutant, which is what makes fuzzing
  runs resumable and ``--jobs`` invariant.

A mutant may well be *unanalysable* (a bound declines) or genuinely
overloaded — that is the point: declining is a legitimate, reported
oracle outcome, while a bound that exists and is beaten by the
simulation is the soundness violation the fuzzer hunts.
"""

from __future__ import annotations

import copy
import random
from dataclasses import replace
from typing import Callable, Optional

from repro.network.flexray import StaticSlotAssignment
from repro.osek.task import TaskSpec
from repro.verify.generator import (ChainPlan, FaultScenario,
                                    GeneratedSystem, PERIOD_POOL,
                                    SIGNAL_PERIOD_POOL,
                                    TDMA_PERIOD_POOL, TdmaPlan)
from repro.units import ms, us

#: WCET scale factors applied by the utilization nudges.
_SCALE_UP = (1.25, 1.5, 2.0)
_SCALE_DOWN = (0.5, 0.75)
#: TDMA WCET inflation walks harder — partition overload is the edge
#: the single-demand supply bound is validity-sensitive to.
_TDMA_SCALE = (1.5, 2.0, 3.0)
#: Candidate TDMA major frames (window perturbation).
_MAJOR_FRAMES = (ms(5), ms(10), ms(20))
#: Candidate chain periods for rewiring.
_CHAIN_PERIODS = (ms(10), ms(20), ms(50))

Mutator = Callable[[random.Random, GeneratedSystem],
                   Optional[GeneratedSystem]]


# ----------------------------------------------------------------------
# Well-formedness
# ----------------------------------------------------------------------
def validate_system(system: GeneratedSystem) -> list[str]:
    """Well-formedness problems of ``system`` (empty list = valid): the
    problems of its model document, so
    :func:`repro.model.schema.validate_document` is the one definition
    of a well-formed system.

    This is the contract every mutator and every shrink step must
    re-establish; it intentionally does *not* include analysability —
    unanalysable-but-well-formed systems are exactly the edge cases the
    fuzzer exists to reach.
    """
    from repro.model import model_from_system, validate_document

    return validate_document(model_from_system(system))


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _retask(task: TaskSpec, *, wcet: Optional[int] = None,
            period: Optional[int] = None,
            jitter: Optional[int] = None,
            priority: Optional[int] = None,
            max_activations: Optional[int] = None) -> TaskSpec:
    """A fresh TaskSpec with selected fields changed.

    The deadline and BCET are re-derived (deadline follows the period,
    BCET follows the WCET) exactly like the generator leaves them, so a
    mutated task never carries a stale deadline from its previous
    period.
    """
    return TaskSpec(task.name,
                    task.wcet if wcet is None else wcet,
                    period=task.period if period is None else period,
                    offset=task.offset,
                    priority=task.priority if priority is None
                    else priority,
                    partition=task.partition,
                    max_activations=task.max_activations
                    if max_activations is None else max_activations,
                    budget=task.budget,
                    jitter=task.jitter if jitter is None else jitter,
                    criticality=task.criticality)


def _chain_task_names(system: GeneratedSystem) -> set[str]:
    if system.chain is None:
        return set()
    return {system.chain.producer, system.chain.consumer}


def _cs_tasks(system: GeneratedSystem) -> set[str]:
    return {s.task for s in system.critical_sections}


def _pick_fp_task(rng: random.Random, system: GeneratedSystem,
                  exclude: set[str]) -> Optional[tuple[str, int]]:
    """A random (ecu, index) over fixed-priority tasks not in
    ``exclude``, or None when no task qualifies."""
    candidates = [(ecu, i)
                  for ecu in system.fp_ecus
                  for i, t in enumerate(system.tasksets[ecu])
                  if t.name not in exclude]
    if not candidates:
        return None
    return candidates[rng.randrange(len(candidates))]


def _scale_clamped(wcet: int, factor: float, period: int) -> int:
    return min(max(us(10), int(wcet * factor)), period)


# ----------------------------------------------------------------------
# Mutators.  Each takes (rng, system), returns a NEW system or None
# when inapplicable; the input is never modified.
# ----------------------------------------------------------------------
def mutate_util_up(rng: random.Random,
                   system: GeneratedSystem) -> Optional[GeneratedSystem]:
    """Inflate one fixed-priority task's WCET (toward the RTA cliff)."""
    pick = _pick_fp_task(rng, system, _cs_tasks(system))
    if pick is None:
        return None
    mutant = copy.deepcopy(system)
    ecu, index = pick
    task = mutant.tasksets[ecu][index]
    wcet = _scale_clamped(task.wcet, rng.choice(_SCALE_UP), task.period)
    mutant.tasksets[ecu][index] = _retask(task, wcet=wcet)
    return mutant


def mutate_util_down(rng: random.Random,
                     system: GeneratedSystem) -> Optional[GeneratedSystem]:
    """Deflate one fixed-priority task's WCET."""
    pick = _pick_fp_task(rng, system, _cs_tasks(system))
    if pick is None:
        return None
    mutant = copy.deepcopy(system)
    ecu, index = pick
    task = mutant.tasksets[ecu][index]
    wcet = _scale_clamped(task.wcet, rng.choice(_SCALE_DOWN), task.period)
    mutant.tasksets[ecu][index] = _retask(task, wcet=wcet)
    return mutant


def mutate_jitter(rng: random.Random,
                  system: GeneratedSystem) -> Optional[GeneratedSystem]:
    """Re-draw one fixed-priority task's release jitter."""
    pick = _pick_fp_task(rng, system, set())
    if pick is None:
        return None
    mutant = copy.deepcopy(system)
    ecu, index = pick
    task = mutant.tasksets[ecu][index]
    jitter = rng.choice((0, task.period // 8, task.period // 4,
                         task.period // 2))
    mutant.tasksets[ecu][index] = _retask(task, jitter=jitter)
    return mutant


def mutate_priority_swap(rng: random.Random,
                         system: GeneratedSystem
                         ) -> Optional[GeneratedSystem]:
    """Swap the priorities of two tasks on one ECU (uniqueness kept)."""
    ecus = [ecu for ecu in system.fp_ecus
            if len(system.tasksets[ecu]) >= 2]
    if not ecus:
        return None
    mutant = copy.deepcopy(system)
    ecu = ecus[rng.randrange(len(ecus))]
    tasks = mutant.tasksets[ecu]
    i, j = rng.sample(range(len(tasks)), 2)
    tasks[i], tasks[j] = (_retask(tasks[i], priority=tasks[j].priority),
                          _retask(tasks[j], priority=tasks[i].priority))
    # Re-establish ICPP: a ceiling never sits below a user's priority.
    by_name = {t.name: t for ts in mutant.tasksets.values() for t in ts}
    for section in mutant.critical_sections:
        user = by_name.get(section.task)
        if user is not None:
            resource = section.resource
            mutant.resources[resource] = max(mutant.resources[resource],
                                            user.priority)
    return mutant


def mutate_period_repick(rng: random.Random,
                         system: GeneratedSystem
                         ) -> Optional[GeneratedSystem]:
    """Re-draw a background task's period from the generator pool."""
    pick = _pick_fp_task(rng, system,
                         _chain_task_names(system) | _cs_tasks(system))
    if pick is None:
        return None
    mutant = copy.deepcopy(system)
    ecu, index = pick
    task = mutant.tasksets[ecu][index]
    period = rng.choice(PERIOD_POOL)
    mutant.tasksets[ecu][index] = _retask(
        task, period=period, wcet=min(task.wcet, period))
    return mutant


def mutate_can_id_swap(rng: random.Random,
                       system: GeneratedSystem
                       ) -> Optional[GeneratedSystem]:
    """Swap the identifiers (arbitration priority) of two background
    frames."""
    if system.can is None:
        return None
    chain_pdu = system.chain.pdu_name if system.chain else None
    indices = [i for i, s in enumerate(system.can.frame_specs)
               if s.name != chain_pdu]
    if len(indices) < 2:
        return None
    mutant = copy.deepcopy(system)
    i, j = rng.sample(indices, 2)
    specs = list(mutant.can.frame_specs)
    specs[i].can_id, specs[j].can_id = specs[j].can_id, specs[i].can_id
    mutant.can = replace(mutant.can, frame_specs=tuple(specs))
    return mutant


def mutate_can_period(rng: random.Random,
                      system: GeneratedSystem
                      ) -> Optional[GeneratedSystem]:
    """Re-draw one background frame's period (spec and packed traffic
    together — the analysed and the simulated period never diverge)."""
    if system.can is None:
        return None
    chain_pdu = system.chain.pdu_name if system.chain else None
    indices = [i for i, s in enumerate(system.can.frame_specs)
               if s.name != chain_pdu]
    if not indices:
        return None
    mutant = copy.deepcopy(system)
    index = indices[rng.randrange(len(indices))]
    specs = list(mutant.can.frame_specs)
    period = rng.choice(SIGNAL_PERIOD_POOL)
    specs[index].period = period
    specs[index].deadline = period
    name = specs[index].name
    frames = tuple(replace(f, period=period) if f.ipdu.name == name else f
                   for f in mutant.can.frames)
    mutant.can = replace(mutant.can, frame_specs=tuple(specs),
                         frames=frames)
    return mutant


def mutate_can_repack(rng: random.Random,
                      system: GeneratedSystem
                      ) -> Optional[GeneratedSystem]:
    """Shrink a background frame's DLC to exactly its payload (repack:
    the bus stops carrying padding bytes, shortening every transmission
    behind it)."""
    if system.can is None:
        return None
    chain_pdu = system.chain.pdu_name if system.chain else None
    sizes = {f.ipdu.name: f.ipdu.size_bytes for f in system.can.frames}
    indices = [i for i, s in enumerate(system.can.frame_specs)
               if s.name != chain_pdu and s.name in sizes
               and sizes[s.name] < s.dlc]
    if not indices:
        return None
    mutant = copy.deepcopy(system)
    index = indices[rng.randrange(len(indices))]
    specs = list(mutant.can.frame_specs)
    specs[index].dlc = sizes[specs[index].name]
    mutant.can = replace(mutant.can, frame_specs=tuple(specs))
    return mutant


def mutate_flexray_slot_swap(rng: random.Random,
                             system: GeneratedSystem
                             ) -> Optional[GeneratedSystem]:
    """Exchange the slot numbers of two static writers (disjointness is
    preserved by construction)."""
    if system.flexray is None or len(system.flexray.static_writers) < 2:
        return None
    mutant = copy.deepcopy(system)
    writers = list(mutant.flexray.static_writers)
    i, j = rng.sample(range(len(writers)), 2)
    a, b = writers[i].assignment, writers[j].assignment
    writers[i] = replace(writers[i], assignment=StaticSlotAssignment(
        b.slot, a.node, a.frame_name, a.base_cycle, a.repetition))
    writers[j] = replace(writers[j], assignment=StaticSlotAssignment(
        a.slot, b.node, b.frame_name, b.base_cycle, b.repetition))
    mutant.flexray = replace(mutant.flexray,
                             static_writers=tuple(writers))
    return mutant


def mutate_flexray_cycle_mux(rng: random.Random,
                             system: GeneratedSystem
                             ) -> Optional[GeneratedSystem]:
    """Re-draw one static writer's cycle multiplexing (repetition and
    base cycle), re-phasing its traffic to match."""
    if system.flexray is None or not system.flexray.static_writers:
        return None
    mutant = copy.deepcopy(system)
    writers = list(mutant.flexray.static_writers)
    index = rng.randrange(len(writers))
    writer = writers[index]
    repetition = rng.choice((1, 2, 4))
    base_cycle = rng.randrange(repetition)
    period = repetition * mutant.flexray.config.cycle_length
    assignment = StaticSlotAssignment(
        writer.assignment.slot, writer.assignment.node,
        writer.assignment.frame_name, base_cycle, repetition)
    writers[index] = replace(writer, assignment=assignment, period=period,
                             offset=rng.randrange(period))
    mutant.flexray = replace(mutant.flexray,
                             static_writers=tuple(writers))
    return mutant


def mutate_flexray_dynamic(rng: random.Random,
                           system: GeneratedSystem
                           ) -> Optional[GeneratedSystem]:
    """Resize and re-phase one dynamic-segment frame."""
    if system.flexray is None or not system.flexray.dynamic_writers:
        return None
    mutant = copy.deepcopy(system)
    writers = list(mutant.flexray.dynamic_writers)
    index = rng.randrange(len(writers))
    writer = writers[index]
    spec = copy.deepcopy(writer.spec)
    spec.size_bytes = rng.randint(1, 8)
    writers[index] = replace(writer, spec=spec,
                             offset=rng.randrange(writer.period))
    mutant.flexray = replace(mutant.flexray,
                             dynamic_writers=tuple(writers))
    return mutant


def mutate_tdma_inflate(rng: random.Random,
                        system: GeneratedSystem
                        ) -> Optional[GeneratedSystem]:
    """Inflate a TDMA task's WCET past the generator's window/3 margin —
    the edge where partition supply stops covering demand."""
    if system.tdma is None or not system.tdma.tasks:
        return None
    mutant = copy.deepcopy(system)
    tasks = list(mutant.tdma.tasks)
    index = rng.randrange(len(tasks))
    task = tasks[index]
    wcet = _scale_clamped(task.wcet, rng.choice(_TDMA_SCALE), task.period)
    tasks[index] = _retask(task, wcet=wcet)
    mutant.tdma = replace(mutant.tdma, tasks=tuple(tasks))
    return mutant


def mutate_tdma_overload(rng: random.Random,
                         system: GeneratedSystem
                         ) -> Optional[GeneratedSystem]:
    """Push one partition's highest-priority task toward overload:
    inflate its WCET *and* deepen its activation queue in one step.
    Response-time pressure only registers on the hp task (it is the
    only one the supply bound covers), and backlog only accumulates
    when re-activations queue instead of being shed — separately the
    two nudges are often behaviourally invisible, together they walk
    straight along the supply/demand edge."""
    if system.tdma is None or not system.tdma.tasks:
        return None
    mutant = copy.deepcopy(system)
    partitions = sorted({t.partition for t in mutant.tdma.tasks})
    partition = partitions[rng.randrange(len(partitions))]
    hp = mutant.tdma.hp_task(partition)
    wcet = _scale_clamped(hp.wcet, rng.choice(_TDMA_SCALE), hp.period)
    depth = rng.choice((2, 3, 4))
    tasks = tuple(
        _retask(t, wcet=wcet, max_activations=depth)
        if t.name == hp.name else t
        for t in mutant.tdma.tasks)
    mutant.tdma = replace(mutant.tdma, tasks=tasks)
    return mutant


def mutate_tdma_queue(rng: random.Random,
                      system: GeneratedSystem
                      ) -> Optional[GeneratedSystem]:
    """Raise a TDMA task's activation queue depth.  With a single
    pending activation an overloaded partition silently sheds work (the
    kernel drops re-activations) and responses plateau; queued
    activations let the backlog *accumulate* across major frames — the
    regime where the single-demand supply bound goes unsound."""
    if system.tdma is None or not system.tdma.tasks:
        return None
    mutant = copy.deepcopy(system)
    tasks = list(mutant.tdma.tasks)
    index = rng.randrange(len(tasks))
    task = tasks[index]
    tasks[index] = _retask(task, max_activations=rng.choice((2, 3, 4)))
    mutant.tdma = replace(mutant.tdma, tasks=tuple(tasks))
    return mutant


def mutate_tdma_period(rng: random.Random,
                       system: GeneratedSystem
                       ) -> Optional[GeneratedSystem]:
    """Re-draw a TDMA task's period, down to one major frame — below
    the generator's single-demand margin."""
    if system.tdma is None or not system.tdma.tasks:
        return None
    mutant = copy.deepcopy(system)
    tasks = list(mutant.tdma.tasks)
    index = rng.randrange(len(tasks))
    task = tasks[index]
    pool = TDMA_PERIOD_POOL + (mutant.tdma.major_frame,
                               2 * mutant.tdma.major_frame)
    period = rng.choice(pool)
    tasks[index] = _retask(task, period=period,
                           wcet=min(task.wcet, period))
    mutant.tdma = replace(mutant.tdma, tasks=tuple(tasks))
    return mutant


def mutate_tdma_major_frame(rng: random.Random,
                            system: GeneratedSystem
                            ) -> Optional[GeneratedSystem]:
    """Re-draw the TDMA major frame — every partition window stretches
    or shrinks with it."""
    if system.tdma is None:
        return None
    choices = [f for f in _MAJOR_FRAMES if f != system.tdma.major_frame]
    if not choices:
        return None
    mutant = copy.deepcopy(system)
    frame = rng.choice(choices)
    tasks = tuple(_retask(t, wcet=min(t.wcet, t.period))
                  for t in mutant.tdma.tasks)
    mutant.tdma = replace(mutant.tdma, major_frame=frame, tasks=tasks)
    return mutant


def mutate_chain_rewire(rng: random.Random,
                        system: GeneratedSystem
                        ) -> Optional[GeneratedSystem]:
    """Re-draw the cause-effect chain's period (producer task, consumer
    task, frame spec and E2E timeout all follow)."""
    if system.chain is None or system.can is None:
        return None
    mutant = copy.deepcopy(system)
    chain = mutant.chain
    period = rng.choice([p for p in _CHAIN_PERIODS if p != chain.period]
                        or list(_CHAIN_PERIODS))
    mutant.chain = ChainPlan(
        chain.producer, chain.producer_ecu, chain.consumer,
        chain.consumer_ecu, chain.signal_name, chain.signal_bits,
        chain.pdu_name, period, chain.data_id, chain.counter_bits,
        chain.max_delta_counter, 3 * period)
    for ecu, names in ((chain.producer_ecu, {chain.producer}),
                       (chain.consumer_ecu, {chain.consumer})):
        tasks = mutant.tasksets[ecu]
        for index, task in enumerate(tasks):
            if task.name in names:
                jitter = period if task.name == chain.consumer else 0
                tasks[index] = _retask(task, period=period, jitter=jitter)
    specs = list(mutant.can.frame_specs)
    for spec in specs:
        if spec.name == chain.pdu_name:
            spec.period = period
            spec.deadline = period
    mutant.can = replace(mutant.can, frame_specs=tuple(specs))
    return mutant


def mutate_drop_task(rng: random.Random,
                     system: GeneratedSystem) -> Optional[GeneratedSystem]:
    """Drop one background fixed-priority task (and any critical
    sections it owned; its resource goes too when orphaned)."""
    pick = _pick_fp_task(rng, system,
                         _chain_task_names(system) | _cs_tasks(system))
    if pick is None:
        return None
    ecu, index = pick
    if len(system.tasksets[ecu]) <= 1:
        return None
    mutant = copy.deepcopy(system)
    del mutant.tasksets[ecu][index]
    return mutant


def mutate_drop_frame(rng: random.Random,
                      system: GeneratedSystem
                      ) -> Optional[GeneratedSystem]:
    """Drop one background CAN frame (spec and packed traffic)."""
    if system.can is None:
        return None
    chain_pdu = system.chain.pdu_name if system.chain else None
    names = [s.name for s in system.can.frame_specs if s.name != chain_pdu]
    if not names:
        return None
    mutant = copy.deepcopy(system)
    name = names[rng.randrange(len(names))]
    mutant.can = replace(
        mutant.can,
        frames=tuple(f for f in mutant.can.frames
                     if f.ipdu.name != name),
        frame_specs=tuple(s for s in mutant.can.frame_specs
                          if s.name != name))
    return mutant


#: At most this many fault scenarios ride on one mutant — each costs a
#: baseline + faulted simulation pair at verification time.
_MAX_SCENARIOS = 2


def mutate_fault_chain(rng: random.Random,
                       system: GeneratedSystem
                       ) -> Optional[GeneratedSystem]:
    """Attach one chain-targeted fault scenario (E2E corruption, loss
    or delay, a CAN error burst, producer bus-off, or a transient
    producer-ECU reset) with a window wide enough that detection is
    guaranteed by construction (see
    :func:`repro.verify.resilience.min_duration`)."""
    if system.chain is None or system.can is None \
            or len(system.faults) >= _MAX_SCENARIOS:
        return None
    from repro.verify.resilience import CHAIN_KINDS, min_duration
    kind = CHAIN_KINDS[rng.randrange(len(CHAIN_KINDS))]
    period = system.chain.period
    mutant = copy.deepcopy(system)
    onset = period * rng.randint(2, 6)
    duration = min_duration(system, kind) + period * rng.randint(1, 3)
    mutant.faults.append(FaultScenario(kind, onset, duration))
    return mutant


def mutate_fault_babble(rng: random.Random,
                        system: GeneratedSystem
                        ) -> Optional[GeneratedSystem]:
    """Attach a babbling-idiot scenario: a rogue CAN node floods the
    bus behind a windowless guardian (the containment claim under
    test is that nothing gets through)."""
    if system.can is None or len(system.faults) >= _MAX_SCENARIOS:
        return None
    from repro.verify.resilience import min_duration
    mutant = copy.deepcopy(system)
    floor = min_duration(system, "tdma-babble")
    onset = floor * rng.randint(1, 4)
    duration = floor * rng.randint(1, 4)
    mutant.faults.append(FaultScenario("tdma-babble", onset, duration))
    return mutant


def mutate_fault_flexray(rng: random.Random,
                         system: GeneratedSystem
                         ) -> Optional[GeneratedSystem]:
    """Attach a FlexRay slot-corruption scenario on one static writer."""
    if system.flexray is None or not system.flexray.static_writers \
            or len(system.faults) >= _MAX_SCENARIOS:
        return None
    from repro.verify.resilience import min_duration
    writers = sorted(system.flexray.static_writers,
                     key=lambda w: w.assignment.slot)
    writer = writers[rng.randrange(len(writers))]
    target = writer.assignment.frame_name
    mutant = copy.deepcopy(system)
    onset = writer.period * rng.randint(2, 6)
    duration = (min_duration(system, "flexray-slot-loss", target)
                + writer.period * rng.randint(0, 2))
    mutant.faults.append(
        FaultScenario("flexray-slot-loss", onset, duration, target))
    return mutant


def mutate_fault_drop(rng: random.Random,
                      system: GeneratedSystem
                      ) -> Optional[GeneratedSystem]:
    """Remove one attached fault scenario."""
    if not system.faults:
        return None
    mutant = copy.deepcopy(system)
    del mutant.faults[rng.randrange(len(mutant.faults))]
    return mutant


#: The mutation catalogue, in the stable order lineage names refer to.
MUTATORS: tuple[tuple[str, Mutator], ...] = (
    ("util-up", mutate_util_up),
    ("util-down", mutate_util_down),
    ("jitter", mutate_jitter),
    ("priority-swap", mutate_priority_swap),
    ("period-repick", mutate_period_repick),
    ("can-id-swap", mutate_can_id_swap),
    ("can-period", mutate_can_period),
    ("can-repack", mutate_can_repack),
    ("fr-slot-swap", mutate_flexray_slot_swap),
    ("fr-cycle-mux", mutate_flexray_cycle_mux),
    ("fr-dynamic", mutate_flexray_dynamic),
    ("tdma-inflate", mutate_tdma_inflate),
    ("tdma-overload", mutate_tdma_overload),
    ("tdma-queue", mutate_tdma_queue),
    ("tdma-period", mutate_tdma_period),
    ("tdma-major-frame", mutate_tdma_major_frame),
    ("chain-rewire", mutate_chain_rewire),
    ("drop-task", mutate_drop_task),
    ("drop-frame", mutate_drop_frame),
    ("fault-chain", mutate_fault_chain),
    ("fault-babble", mutate_fault_babble),
    ("fault-fr-slot", mutate_fault_flexray),
    ("fault-drop", mutate_fault_drop),
)


def mutate(system: GeneratedSystem,
           rng: random.Random) -> tuple[GeneratedSystem, str]:
    """Apply one randomly chosen applicable mutator.

    Mutators are tried in a seed-determined order until one applies and
    yields a well-formed mutant; the result is ``(mutant, mutator
    name)``.  Raises :class:`AssertionError` if no mutator applies —
    impossible for any system the generator or shrinker emits (a system
    with at least one task always admits a WCET nudge).
    """
    order = rng.sample(range(len(MUTATORS)), len(MUTATORS))
    for index in order:
        name, mutator = MUTATORS[index]
        mutant = mutator(rng, system)
        if mutant is None:
            continue
        _prune_faults(mutant)
        problems = validate_system(mutant)
        assert not problems, (
            f"mutator {name} broke well-formedness: {problems}")
        return mutant, name
    raise AssertionError("no mutator applies to this system")


def _prune_faults(system: GeneratedSystem) -> None:
    """Drop fault scenarios a structural mutation invalidated.

    A chain rewire changes the period every chain-kind window floor is
    derived from; dropping a frame or subsystem can remove a scenario's
    injection point.  Scenarios that no longer validate are silently
    removed — the mutant stays well-formed instead of the mutator
    asserting."""
    if not system.faults:
        return
    from repro.verify.resilience import scenario_problems
    system.faults = [f for f in system.faults
                     if not scenario_problems(system, f)]
