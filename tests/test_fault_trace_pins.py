"""Trace pins of resilience fault worlds.

Each standard fault scenario of the CI resilience systems
(``generate_many(7, 2, "small")``) is wired into a fresh
:class:`~repro.verify.resilience.ResilienceWorld` through its plan,
injected and run to the plan's horizon; the record count and the trace
digest are pinned.  Any change to how an injection adapter floods,
gates, drops, corrupts or delays moves a digest here, so these pins are
the parity gate for refactoring :mod:`repro.faults.injector`.  The
campaign's reference cells are pinned in ``test_campaign.py``.
"""

import pytest

from repro.verify.generator import generate_many
from repro.verify.resilience import (ResilienceWorld, _plan_scenario,
                                     standard_scenarios)

KINDS = ("e2e-corruption", "e2e-loss", "e2e-delay", "can-error-burst",
         "can-bus-off", "ecu-reset", "tdma-babble", "flexray-slot-loss")

PINS = {
    # system index: {scenario kind: (records, digest prefix)}
    0: {"e2e-corruption": (3180, "a1add3049dc6"),
        "e2e-loss": (3448, "9bdf7736d036"),
        "e2e-delay": (3460, "abd9e9773790"),
        "can-error-burst": (4459, "1288b0727ea9"),
        "can-bus-off": (3412, "22f018add4a8"),
        "ecu-reset": (5091, "dbce15e0b12c"),
        "tdma-babble": (268, "bf74a6fb848d"),
        "flexray-slot-loss": (122, "8f74a2013783")},
    1: {"e2e-corruption": (4688, "eaf0c8c5e377"),
        "e2e-loss": (5100, "579093084eb9"),
        "e2e-delay": (5108, "cdaaa261e92d"),
        "can-error-burst": (7065, "d303e0dbed63"),
        "can-bus-off": (5072, "73866e7f7d8b"),
        "ecu-reset": (7482, "7dce126235c3"),
        "tdma-babble": (392, "2d7d0d820345"),
        "flexray-slot-loss": (116, "d2649eec45dc")},
}


def test_every_standard_scenario_is_pinned():
    systems = generate_many(7, 2, "small")
    assert [[s.kind for s in standard_scenarios(system)]
            for system in systems] == [list(KINDS), list(KINDS)]


@pytest.mark.parametrize("index", sorted(PINS))
@pytest.mark.parametrize("kind", KINDS)
def test_fault_world_trace_is_pinned(index, kind):
    system = generate_many(7, 2, "small")[index]
    scenario = next(s for s in standard_scenarios(system) if s.kind == kind)
    plan = _plan_scenario(system, scenario)
    world = ResilienceWorld(system)
    adapter, fault = plan.wire(world)
    world.injector.inject(adapter, fault)
    world.sim.run_until(plan.horizon)
    assert (len(world.trace), world.trace.digest()[:12]) == \
        PINS[index][kind]
