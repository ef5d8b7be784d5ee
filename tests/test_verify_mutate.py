"""Property-based tests for the fuzzer's structural mutators.

The contract every mutator must honour (module docstring of
:mod:`repro.verify.mutate`): a well-formed system in, a well-formed
system out, deterministically under a fixed seed, without touching the
input.  These properties are what make the fuzz loop resumable and
``--jobs`` invariant, so they get the heaviest test coverage.
"""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.model import canonical_json, model_from_system
from repro.verify.generator import generate
from repro.verify.mutate import MUTATORS, mutate, validate_system

MUTATOR_NAMES = [name for name, _ in MUTATORS]


def canonical(system) -> str:
    return canonical_json(model_from_system(system))


# ----------------------------------------------------------------------
# Generator output is the base line
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("size", ["small", "medium"])
def test_generated_systems_are_well_formed(seed, size):
    assert validate_system(generate(seed, size)) == []


# ----------------------------------------------------------------------
# Well-formedness preservation, per mutator
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 50), mutator_seed=st.integers(0, 10_000),
       index=st.integers(0, len(MUTATORS) - 1))
def test_each_mutator_preserves_well_formedness(seed, mutator_seed, index):
    system = generate(seed, "small")
    name, mutator = MUTATORS[index]
    mutant = mutator(random.Random(mutator_seed), system)
    if mutant is None:  # mutator inapplicable to this system: fine
        return
    problems = validate_system(mutant)
    assert problems == [], f"{name} broke well-formedness: {problems}"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 50), mutator_seed=st.integers(0, 10_000),
       depth=st.integers(1, 6))
def test_mutation_chains_stay_well_formed(seed, mutator_seed, depth):
    system = generate(seed, "small")
    rng = random.Random(mutator_seed)
    for _ in range(depth):
        system, name = mutate(system, rng)
        assert validate_system(system) == [], name


# ----------------------------------------------------------------------
# Determinism and input purity
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 50), mutator_seed=st.integers(0, 10_000))
def test_mutation_is_deterministic_under_fixed_seed(seed, mutator_seed):
    system = generate(seed, "small")
    first, name_a = mutate(system, random.Random(mutator_seed))
    second, name_b = mutate(system, random.Random(mutator_seed))
    assert name_a == name_b
    assert canonical(first) == canonical(second)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 50), mutator_seed=st.integers(0, 10_000))
def test_mutation_never_modifies_its_input(seed, mutator_seed):
    system = generate(seed, "small")
    before = canonical(system)
    mutate(system, random.Random(mutator_seed))
    assert canonical(system) == before


def test_mutation_changes_something():
    """A mutant differs from its parent (else the corpus would fill
    with duplicates that can never contribute coverage)."""
    changed = 0
    for seed in range(20):
        system = generate(seed, "small")
        mutant, _ = mutate(system, random.Random(seed))
        if canonical(mutant) != canonical(system):
            changed += 1
    assert changed >= 18  # slot/id swaps can no-op; near-all must change


# ----------------------------------------------------------------------
# Specific structural guarantees the validator encodes
# ----------------------------------------------------------------------
def _mutants(seed_range=30):
    for seed in range(seed_range):
        system = generate(seed % 10, "small")
        rng = random.Random(seed)
        for _ in range(3):
            system, _ = mutate(system, rng)
        yield system


def test_priorities_stay_unique_per_ecu():
    for system in _mutants():
        for ecu in system.fp_ecus:
            priorities = [t.priority for t in system.tasksets[ecu]]
            assert len(set(priorities)) == len(priorities)


def test_frames_fit_bus_payload():
    for system in _mutants():
        if system.can is None:
            continue
        dlc = {s.name: s.dlc for s in system.can.frame_specs}
        for frame in system.can.frames:
            assert frame.ipdu.size_bytes <= dlc[frame.ipdu.name]


def test_flexray_slots_stay_disjoint():
    for system in _mutants():
        if system.flexray is None:
            continue
        slots = [w.assignment.slot for w in system.flexray.static_writers]
        assert len(set(slots)) == len(slots)


def test_chain_references_live_tasks():
    for system in _mutants():
        chain = system.chain
        if chain is None:
            continue
        producers = {t.name for t in system.tasksets[chain.producer_ecu]}
        consumers = {t.name for t in system.tasksets[chain.consumer_ecu]}
        assert chain.producer in producers
        assert chain.consumer in consumers


def test_chain_rewire_keeps_periods_consistent():
    """The chain period, the producer/consumer task periods and the
    chain frame spec period move together."""
    from repro.verify.mutate import mutate_chain_rewire

    for seed in range(20):
        system = generate(seed % 10, "small")
        mutant = mutate_chain_rewire(random.Random(seed), system)
        if mutant is None:
            continue
        chain = mutant.chain
        by_name = {t.name: t for ts in mutant.tasksets.values()
                   for t in ts}
        assert by_name[chain.producer].period == chain.period
        assert by_name[chain.consumer].period == chain.period
        spec = {s.name: s for s in mutant.can.frame_specs}[chain.pdu_name]
        assert spec.period == chain.period
        assert chain.timeout >= chain.period


def test_validator_rejects_broken_systems():
    """validate_system actually detects each class of breakage the
    mutators promise not to introduce."""
    from dataclasses import replace

    base = generate(1, "small")

    dup = copy.deepcopy(base)
    ecu = dup.fp_ecus[0]
    dup.tasksets[ecu][0] = replace_priority(dup.tasksets[ecu][0],
                                            dup.tasksets[ecu][1].priority)
    assert any("not unique" in p for p in validate_system(dup))

    fat = copy.deepcopy(base)
    specs = list(fat.can.frame_specs)
    target = next(s for s in specs
                  if any(f.ipdu.name == s.name for f in fat.can.frames))
    target.dlc = 0
    fat.can = replace(fat.can, frame_specs=tuple(specs))
    assert any("exceeds" in p for p in validate_system(fat))

    orphan = copy.deepcopy(base)
    orphan.chain = replace_chain_producer(orphan.chain, "NoSuchTask")
    assert any("producer" in p for p in validate_system(orphan))


def replace_priority(task, priority):
    from repro.verify.mutate import _retask
    return _retask(task, priority=priority)


def replace_chain_producer(chain, producer):
    from repro.verify.generator import ChainPlan
    return ChainPlan(producer, chain.producer_ecu, chain.consumer,
                     chain.consumer_ecu, chain.signal_name,
                     chain.signal_bits, chain.pdu_name, chain.period,
                     chain.data_id, chain.counter_bits,
                     chain.max_delta_counter, chain.timeout)
