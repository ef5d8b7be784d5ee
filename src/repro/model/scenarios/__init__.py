"""The bundled scenario library: named, versioned system models.

Each scenario is one committed model document (``*.json`` next to this
file) exercising a characteristic automotive architecture, loadable by
name from code (``load_scenario("adas-fusion")``) or the CLI
(``repro model scenarios run adas-fusion``, ``repro verify --model
adas-fusion``).  Every bundled scenario is CI-pinned to validate
against the schema, round-trip digest-identically through the live
objects, and pass both ``repro verify`` and ``repro resilience`` with
zero violations (EXPERIMENTS E18).

========================  ============================================
name                      architecture
========================  ============================================
``adas-fusion``           camera/radar/fusion sensor chain: an
                          E2E-protected object-list chain over a
                          packed CAN bus, ICPP-shared fusion buffer
``gateway-multibus``      gateway-heavy multi-bus topology: four ECUs
                          bridging dense CAN traffic onto a FlexRay
                          backbone (static + dynamic segments)
``tdma-overload``         time-partitioned ECU driven into overload:
                          queued activations against partition supply
                          (the multi-activation busy-window regime)
``flexray-mixed``         FlexRay cluster mixing cycle-multiplexed
                          static slots with minislot dynamic traffic
``limp-home``             recovery cascade: chain faults (corruption,
                          loss, delay, bus-off, producer reset) driving
                          the substitute -> degrade -> restart policy
========================  ============================================
"""

from __future__ import annotations

import os

from repro.errors import ConfigurationError
from repro.model.build import Model, load_document

_HERE = os.path.dirname(__file__)

#: Scenario name -> bundled document file.
SCENARIO_FILES = {
    "adas-fusion": "adas_fusion.json",
    "gateway-multibus": "gateway_multibus.json",
    "tdma-overload": "tdma_overload.json",
    "flexray-mixed": "flexray_mixed.json",
    "limp-home": "limp_home.json",
}


def scenario_names() -> list[str]:
    """Every bundled scenario name, sorted."""
    return sorted(SCENARIO_FILES)


def scenario_path(name: str) -> str:
    """Absolute path of one bundled scenario document."""
    try:
        return os.path.join(_HERE, SCENARIO_FILES[name])
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; bundled scenarios: "
            f"{', '.join(scenario_names())}") from None


def load_ref(ref: str) -> dict:
    """The raw JSON document behind a ``PATH|NAME`` reference — a
    bundled scenario name, else a file path — unvalidated.  This is the
    one loader behind every ``--model`` and ``repro model`` / ``repro
    meas`` reference; unreadable input raises
    :class:`ConfigurationError`."""
    return load_document(scenario_path(ref) if ref in SCENARIO_FILES
                         else ref)


def load_scenario(name: str, validate: bool = True) -> Model:
    """Load one bundled scenario by name (validated by default)."""
    return Model.from_document(load_document(scenario_path(name)),
                               validate=validate)


def scenario_description(name: str) -> str:
    """One scenario's ``meta.description`` without full validation."""
    return load_document(scenario_path(name))["meta"].get(
        "description", "")
