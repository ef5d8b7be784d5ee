"""Per-layer analysis keys (:mod:`repro.perf.keys`) and their
invalidation soundness, per fuzz mutator.

A layer key is sound only if every input the analysis layer reads is
part of it.  The fuzzer's mutators are a ready-made adversary: each one
perturbs a specific subsystem, so for every mutator we can state which
layers' keys are *allowed* to change — and any key change outside that
family would mean a layer reads state its key does not cover, while a
mutator that never changes its primary layer's key would mean the key
misses the very input the mutator exists to perturb.  Both directions
are pinned here, for every mutator in
:data:`repro.verify.mutate.MUTATORS`.
"""

import json
import random

import pytest

from repro.perf.keys import layer_inputs, layer_keys
from repro.verify.generator import generate
from repro.verify.mutate import MUTATORS, _prune_faults
from repro.verify.serialize import system_to_dict

#: mutator name -> layer families whose keys the mutation may change.
#: Families name key prefixes: "rta" covers every ``rta:<ecu>`` key.
#: "faults" appears in every family because ``mutate()`` runs
#: ``_prune_faults`` after *any* mutation — a structural change can
#: invalidate a fault scenario's injection point and drop it.
ALLOWED = {
    # Task-set mutators: the mutated ECU's rta slice, plus the e2e
    # composite (its key embeds the producer/consumer rta keys).
    "util-up": {"rta", "e2e"},
    "util-down": {"rta", "e2e"},
    "jitter": {"rta", "e2e"},
    "priority-swap": {"rta", "e2e"},
    "period-repick": {"rta", "e2e"},
    "drop-task": {"rta", "e2e"},
    # CAN mutators: the bus key is whole-bus (over-inclusive by
    # design), and the e2e composite embeds it.
    "can-id-swap": {"can", "e2e"},
    "can-period": {"can", "e2e"},
    "can-repack": {"can", "e2e"},
    "drop-frame": {"can", "e2e"},
    # FlexRay mutators: static and dynamic segments key separately.
    "fr-slot-swap": {"flexray_static"},
    "fr-cycle-mux": {"flexray_static"},
    "fr-dynamic": {"flexray_dynamic"},
    # TDMA mutators.
    "tdma-inflate": {"tdma"},
    "tdma-overload": {"tdma"},
    "tdma-queue": {"tdma"},
    "tdma-period": {"tdma"},
    "tdma-major-frame": {"tdma"},
    # Chain rewire touches producer/consumer tasks, the chain frame
    # spec, and the chain plan itself.
    "chain-rewire": {"rta", "can", "e2e"},
    # Fault mutators touch only the fault scenario list.
    "fault-chain": {"faults"},
    "fault-babble": {"faults"},
    "fault-drop": {"faults"},
    "fault-fr-slot": {"faults"},
}

SEED_RANGE = range(30)


def family(layer: str) -> str:
    return layer.split(":", 1)[0]


def primary_family(name: str) -> str:
    """The family a mutator exists to perturb (first entry by intent)."""
    if name.startswith("fault-"):
        return "faults"
    if name.startswith("tdma-"):
        return "tdma"
    if name in ("fr-slot-swap", "fr-cycle-mux"):
        return "flexray_static"
    if name == "fr-dynamic":
        return "flexray_dynamic"
    if name.startswith("can-") or name == "drop-frame":
        return "can"
    if name == "chain-rewire":
        return "e2e"
    return "rta"


def test_allowed_table_covers_every_mutator_exactly():
    assert sorted(ALLOWED) == sorted(name for name, _ in MUTATORS)


def apply(mutator, rng, system):
    """One mutation exactly as ``mutate()`` performs it (including the
    fault-scenario pruning pass)."""
    mutant = mutator(rng, system)
    if mutant is not None:
        _prune_faults(mutant)
    return mutant


def base_for(name: str, seed: int):
    """A generated system the named mutator can actually apply to.

    Two mutators never apply to fresh generator output: ``fault-drop``
    needs an attached fault scenario (added here via ``fault-chain``),
    and ``can-repack`` needs a frame whose DLC exceeds its payload —
    a state only the shrinker's signal removal produces, emulated here
    by slimming one background frame's I-PDU below its (max-size) DLC.
    """
    system = generate(seed, "small")
    if name == "fault-drop":
        from repro.verify.mutate import mutate_fault_chain
        with_fault = mutate_fault_chain(random.Random(seed), system)
        return with_fault if with_fault is not None else system
    if name == "can-repack":
        if system.can is None:
            return system
        chain_pdu = system.chain.pdu_name if system.chain else None
        for frame in system.can.frames:
            if frame.ipdu.name != chain_pdu and frame.ipdu.size_bytes > 1:
                frame.ipdu.size_bytes -= 1
                break
        return system
    return system


@pytest.mark.parametrize("name,mutator", MUTATORS)
def test_mutator_changes_only_its_allowed_layer_keys(name, mutator):
    allowed = ALLOWED[name]
    applied = 0
    for seed in SEED_RANGE:
        base = base_for(name, seed)
        base_keys = layer_keys(base)
        base_dict = system_to_dict(base)
        mutant = apply(mutator, random.Random(seed), base)
        if mutant is None:
            continue
        applied += 1
        mutant_keys = layer_keys(mutant)
        if system_to_dict(mutant) == base_dict:
            # A no-op draw (e.g. a slot swapped with itself): the keys
            # must agree exactly — same content, same keys.
            assert mutant_keys == base_keys, name
            continue
        changed = ({layer for layer in base_keys
                    if mutant_keys.get(layer) != base_keys[layer]}
                   | (set(mutant_keys) ^ set(base_keys)))
        assert changed, (
            f"{name}: mutant differs from base but no layer key "
            f"changed — some analysed input is missing from the keys")
        illegal = {layer for layer in changed
                   if family(layer) not in allowed}
        assert not illegal, (
            f"{name}: changed keys {sorted(illegal)} outside the "
            f"allowed families {sorted(allowed)}")
    assert applied >= 5, f"{name} applied to too few seeds to judge"


@pytest.mark.parametrize("name,mutator", MUTATORS)
def test_mutator_invalidates_its_primary_layer_somewhere(name, mutator):
    """Each mutator must actually dirty the layer it targets on at
    least one seed — otherwise its key misses the perturbed input."""
    target = primary_family(name)
    for seed in SEED_RANGE:
        base = base_for(name, seed)
        base_keys = layer_keys(base)
        mutant = apply(mutator, random.Random(seed), base)
        if mutant is None:
            continue
        mutant_keys = layer_keys(mutant)
        changed = ({layer for layer in base_keys
                    if mutant_keys.get(layer) != base_keys[layer]}
                   | (set(mutant_keys) ^ set(base_keys)))
        if any(family(layer) == target for layer in changed):
            return
    pytest.fail(f"{name} never changed a {target} key over "
                f"{len(SEED_RANGE)} seeds")


def test_unrelated_layer_reuse_across_mutation():
    """Mutate one subsystem, and every untouched layer's key survives
    verbatim."""
    from repro.verify.mutate import MUTATORS as table

    by_name = dict(table)
    for seed in SEED_RANGE:
        base = generate(seed, "small")
        if base.tdma is None:
            continue
        base_keys = layer_keys(base)
        mutant = apply(by_name["tdma-inflate"], random.Random(seed), base)
        if mutant is None:
            continue
        mutant_keys = layer_keys(mutant)
        for layer in base_keys:
            if family(layer) in ("tdma", "faults"):
                continue
            assert mutant_keys[layer] == base_keys[layer], layer
        return
    pytest.fail("no seed produced a TDMA-carrying system to mutate")


def test_layer_keys_are_deterministic_and_hex():
    system = generate(3, "small")
    keys_a = layer_keys(system)
    keys_b = layer_keys(generate(3, "small"))
    assert keys_a == keys_b
    assert keys_a
    for key in keys_a.values():
        assert len(key) == 64 and int(key, 16) >= 0


def test_layer_keys_cover_every_analyzed_layer():
    system = generate(3, "small")
    keys = layer_keys(system)
    for ecu in system.fp_ecus:
        assert f"rta:{ecu}" in keys
    if system.can is not None:
        assert "can" in keys
    if system.flexray is not None:
        assert "flexray_static" in keys and "flexray_dynamic" in keys
    if system.tdma is not None:
        assert "tdma" in keys
    if system.chain is not None and system.can is not None:
        assert "e2e" in keys


def test_e2e_key_depends_on_its_producer_rta_key():
    """The composite e2e key embeds its dependency layers' keys, so a
    task change invalidates the chain bound even though the chain plan
    itself is untouched."""
    system = generate(3, "small")
    assert system.chain is not None and system.can is not None
    keys = layer_keys(system)
    producer = system.chain.producer_ecu
    task = system.tasksets[producer][0]
    task.wcet += 1
    bumped = layer_keys(system)
    assert bumped[f"rta:{producer}"] != keys[f"rta:{producer}"]
    assert bumped["e2e"] != keys["e2e"]


def test_layer_inputs_are_json_native():
    system = generate(5, "small")
    inputs = layer_inputs(system)
    assert json.loads(json.dumps(inputs, sort_keys=True)) == inputs
