"""The five user pipelines the benchmark drives, one round at a time.

A run repeats *rounds* until its time is up.  A round is one call of
the pipeline's public entry point -- the function the ``repro`` CLI
calls -- on inputs derived from ``(seed, round index)``, at program
defaults and ``jobs=1`` (the in-process serial executor).  Rounds are
scaled-down versions of the full-size seed-7 calls pinned in
``pins.json``, small enough that a run holds many of them and
overshoots its time by at most one.
"""

from __future__ import annotations

import importlib
import inspect
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    """One pipeline: how to call it and how to judge what it returned."""

    name: str
    why: str
    #: (module, attribute) of the per-item public function; an item is
    #: one call of it.
    item: tuple[str, str]
    #: round seed -> keyword arguments of the pipeline call.
    inputs: Callable[[int], dict]
    #: the pipeline entry point, called with ``inputs(...)``.
    call: Callable[..., object]
    #: report -> number of items it covers.
    items: Callable[[object], int]
    #: report -> problems (empty when the outputs are correct).
    verdict: Callable[[object], list]


def _module(name: str):
    # import_module, not attribute access: repro.verify re-exports
    # functions named ``fuzz`` and ``resilience`` over the submodules.
    return importlib.import_module(name)


def round_seed(seed: int, index: int) -> int:
    """Spawn-derived seed of round ``index`` (repro's own derivation)."""
    return _module("repro.exec.shard").derive_seed(seed, index)


# -- verify -------------------------------------------------------------
def _verify_many(seed: int, count: int, size: str):
    return _module("repro.verify.oracle").verify_many(seed, count, size)


def _verify_verdict(report) -> list:
    if report.passed:
        return []
    return [f"verify: {report.soundness_violations} soundness and "
            f"{report.invariant_violations} invariant violation(s)"]


def _verify(name: str, size: str, count: int, why: str) -> Workload:
    return Workload(
        name, why, ("repro.verify.oracle", "verify_system"),
        lambda seed: {"seed": seed, "count": count, "size": size},
        _verify_many, lambda report: len(report.verdicts),
        _verify_verdict)


# -- fuzz ---------------------------------------------------------------
#: One seed round of 16 fresh systems plus one mutation round of 8
#: mutants of them.  Deeper mutation rounds mutate mutants, and their
#: costs are heavy-tailed (a fault-chain mutant runs ~4x a fresh
#: system, and its descendants stay heavy), so with budget 48 a run's
#: throughput followed the seed: 6-10% spread over 10 seeds against
#: 1.7-3.7% with 24.
FUZZ_BUDGET = 24


def _fuzz(seed: int, budget: int):
    return _module("repro.verify.fuzz").fuzz(seed, budget=budget)


def _fuzz_verdict(report) -> list:
    problems = []
    if report.findings:
        problems.append(f"fuzz: {len(report.findings)} finding(s)")
    if report.executions != report.budget:
        problems.append(f"fuzz: {report.executions} of {report.budget} "
                        f"executions ran")
    return problems


# -- resilience ---------------------------------------------------------
#: Chain periods (ms) of the systems of one resilience round.  A 20 ms
#: chain doubles every chain scenario's horizon, so a small system costs
#: about 0.45 s or 0.85 s by its chain period alone (spread within each
#: class: about 10%).  The generator draws the period 50/50, so a run of
#: ~30 systems would follow the seed's draw; a fixed mix per round keeps
#: ``items_per_s`` and the item percentiles off it.  Three to one, not
#: one to one, so that the median item lies inside a class rather than
#: in the gap between them.
RESILIENCE_CHAIN_MS = (10, 10, 10, 20)


def _resilience_round(seed: int) -> dict:
    """The first batch seed derived from ``seed`` whose systems have the
    chain periods of :data:`RESILIENCE_CHAIN_MS` (about one in four
    qualifies; generating a candidate batch takes ~3 ms).  The search
    is the benchmark's work, so it calls past a traced run's wrapper."""
    generate_many = inspect.unwrap(
        _module("repro.verify.generator").generate_many)
    ms = _module("repro.units").ms
    wanted = sorted(ms(period) for period in RESILIENCE_CHAIN_MS)
    attempt = 0
    while True:
        candidate = round_seed(seed, attempt)
        systems = generate_many(candidate, len(wanted), "small")
        if sorted(system.chain.period for system in systems) == wanted:
            return {"seed": candidate, "count": len(wanted),
                    "size": "small"}
        attempt += 1


def _run_resilience(seed: int, count: int, size: str):
    return _module("repro.verify.resilience").run_resilience(
        seed, count, size)


def _resilience_verdict(report) -> list:
    return [f"resilience: {report.unmet} unmet scenario(s)"] \
        if report.unmet else []


# -- campaign -----------------------------------------------------------
#: Fault onsets (ms) a campaign round samples from.  Every cell of the
#: full 40..189 ms matrix detects its fault and delivers no corrupted
#: value, so any sample must too.
ONSETS_MS = range(40, 190)
CAMPAIGN_ONSETS = 15
CAMPAIGN_HORIZON_MS = 300


def campaign_inputs(onsets_ms) -> dict:
    """The reference matrix at every onset of ``onsets_ms``."""
    campaign = _module("repro.faults.campaign")
    ms = _module("repro.units").ms
    return {"cells": [cell for onset in onsets_ms
                      for cell in campaign.reference_cells(onset=ms(onset))],
            "horizon": ms(CAMPAIGN_HORIZON_MS)}


def _campaign_round(seed: int) -> dict:
    return campaign_inputs(
        sorted(random.Random(seed).sample(ONSETS_MS, CAMPAIGN_ONSETS)))


def _run_campaign(cells: list, horizon: int):
    campaign = _module("repro.faults.campaign")
    return campaign.run_campaign(campaign.ReferenceWorld, cells,
                                 horizon=horizon)


def _campaign_verdict(report) -> list:
    problems = []
    corrupted = sum(r.extra.get("undetected_corrupted", 0)
                    for r in report.results)
    if corrupted:
        problems.append(f"campaign: {corrupted} undetected corrupted "
                        f"deliveries")
    if report.detection_rate != 1.0:
        problems.append(f"campaign: detection rate "
                        f"{report.detection_rate}")
    return problems


WORKLOADS = {w.name: w for w in (
    _verify("verify-small", "small", 15,
            "default repro verify traffic; simulation (FlexRay/OSEK "
            "dispatch) dominates, trace queries second"),
    _verify("verify-large", "large", 10,
            "large traces x many subjects; Trace.records rescans "
            "dominate, so an observation index shows here"),
    Workload(
        "fuzz",
        "the verify oracle with telemetry on plus mutation, signature "
        "and corpus admission: a seed round of 16 systems and a mutation "
        "round of 8",
        ("repro.verify.fuzz", "verify_system"),
        lambda seed: {"seed": seed, "budget": FUZZ_BUDGET}, _fuzz,
        lambda report: report.executions, _fuzz_verdict),
    Workload(
        "resilience",
        "many short fault-world simulations per system, no analysis or "
        "invariants; the most simulation-heavy workload",
        ("repro.verify.resilience", "verify_resilience"),
        _resilience_round, _run_resilience, lambda report: len(report.rows),
        _resilience_verdict),
    Workload(
        "campaign",
        "tiny BSW/CAN/E2E fault cells with no FlexRay or analysis; "
        "write-heavy traces and per-item fixed costs",
        ("repro.faults.campaign", "run_cell"),
        _campaign_round, _run_campaign,
        lambda report: report.cells, _campaign_verdict),
)}


def prepare(workload: Workload) -> None:
    """Import the workload's pipeline, so set-up time includes it."""
    _module(workload.item[0])
