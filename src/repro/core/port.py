"""Ports: typed connection points of software components."""

from __future__ import annotations

from dataclasses import dataclass

PROVIDED = "provided"
REQUIRED = "required"


class Port:
    """One port of a component type.

    ``direction`` is ``provided`` (P-port: data sender / operation server)
    or ``required`` (R-port: data receiver / operation client).
    """

    def __init__(self, name: str, interface, direction: str):
        self.name = name
        self.interface = interface
        self.direction = direction

    @property
    def is_provided(self) -> bool:
        """True for P-ports (data sender / operation server)."""
        return self.direction == PROVIDED

    @property
    def is_required(self) -> bool:
        """True for R-ports (data receiver / operation client)."""
        return self.direction == REQUIRED

    def compatible_with(self, other: "Port") -> bool:
        """Whether a connector from this (provided) port to ``other``
        (required) is type-correct."""
        return (self.is_provided and other.is_required
                and self.interface.compatible_with(other.interface))

    def __repr__(self) -> str:
        tag = "P" if self.is_provided else "R"
        return f"<{tag}Port {self.name}:{self.interface.name}>"


@dataclass(frozen=True)
class Endpoint:
    """(instance name, port name) — one end of a connector."""

    instance: str
    port: str

    def __str__(self) -> str:
        return f"{self.instance}.{self.port}"
