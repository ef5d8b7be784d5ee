"""Rich components: the AUTOSAR component model "conservatively extended"
with multi-viewpoint contracts and vertical assumptions (Section 3).

A :class:`RichComponent` wraps an :class:`~repro.core.component.SwComponent`
with one contract per *viewpoint* (functional, timing, safety, resource)
and a list of vertical assumptions.  The wrapped component is unchanged —
the extension is conservative, as the paper requires: any AUTOSAR-style
tool ignoring the richness still sees a plain component.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ContractError
from repro.contracts.contract import Contract, Var
from repro.contracts.vertical import VerticalAssumption
from repro.core.component import SwComponent

FUNCTIONAL = "functional"
TIMING = "timing"
SAFETY = "safety"
RESOURCE = "resource"

VIEWPOINTS = (FUNCTIONAL, TIMING, SAFETY, RESOURCE)


class RichComponent:
    """A component type plus its rich interface specification."""

    def __init__(self, component: SwComponent):
        self.component = component
        self.contracts: dict[str, Contract] = {}
        self.vertical: list[VerticalAssumption] = []
        component.contract = self

    @property
    def name(self) -> str:
        """The wrapped component's name."""
        return self.component.name

    def add_contract(self, viewpoint: str, contract: Contract) -> None:
        """Attach a contract under a viewpoint (one per viewpoint)."""
        if viewpoint not in VIEWPOINTS:
            raise ContractError(
                f"{self.name}: unknown viewpoint {viewpoint!r} "
                f"(use one of {VIEWPOINTS})")
        if viewpoint in self.contracts:
            raise ContractError(
                f"{self.name}: viewpoint {viewpoint!r} already has a "
                f"contract")
        self.contracts[viewpoint] = contract

    def claim(self, kind: str, demand: float, confidence: float = 1.0,
              description: str = "") -> VerticalAssumption:
        """Convenience: record a vertical assumption owned by this
        component."""
        assumption = VerticalAssumption(self.name, kind, demand, confidence,
                                        description)
        self.vertical.append(assumption)
        return assumption

    def contract_for(self, viewpoint: str) -> Optional[Contract]:
        """The contract of a viewpoint, or None when unconstrained."""
        return self.contracts.get(viewpoint)

    def refines(self, abstract: "RichComponent",
                universe: dict[str, Var]) -> bool:
        """Cross-viewpoint dominance: every viewpoint the abstract
        component constrains must be refined by this component."""
        for viewpoint, abstract_contract in abstract.contracts.items():
            concrete = self.contracts.get(viewpoint)
            if concrete is None:
                return False
            if not concrete.refines(abstract_contract, universe):
                return False
        return True

    def __repr__(self) -> str:
        return (f"<RichComponent {self.name} "
                f"viewpoints={sorted(self.contracts)} "
                f"vertical={len(self.vertical)}>")
