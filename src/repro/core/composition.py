"""Compositions: wiring component instances, with hierarchy.

A :class:`Composition` holds instances (of atomic components or nested
compositions) and :class:`Connector` objects between their ports.  A
composition can expose *delegation ports* that forward to an inner
instance's port, so sub-system suppliers can publish a composition under
the same port/interface discipline as an atomic component.

:func:`Composition.flatten` resolves the hierarchy into the flat instance
and connector lists that the VFB and RTE operate on; connector validation
is the static interface-compatibility check of the paper's Section 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import CompositionError
from repro.core.component import ComponentInstance
from repro.core.interface import SenderReceiverInterface
from repro.core.port import Endpoint, Port


@dataclass(frozen=True)
class Connector:
    """A directed connector: provided endpoint -> required endpoint."""

    source: Endpoint
    target: Endpoint


@dataclass(frozen=True)
class DelegationPort:
    """A composition-level port forwarding to an inner port."""

    name: str
    inner: Endpoint
    direction: str


class Composition:
    """A (possibly nested) assembly of component instances."""

    def __init__(self, name: str):
        self.name = name
        self.instances: dict[str, Union[ComponentInstance,
                                        "CompositionInstance"]] = {}
        self.connectors: list[Connector] = []
        self.delegations: dict[str, DelegationPort] = {}

    # ------------------------------------------------------------------
    def add(self, instance) -> None:
        """Add a component instance or a nested composition instance."""
        if instance.name in self.instances:
            raise CompositionError(
                f"composition {self.name}: duplicate instance "
                f"{instance.name!r}")
        self.instances[instance.name] = instance

    def connect(self, src_instance: str, src_port: str,
                dst_instance: str, dst_port: str) -> Connector:
        """Connect a provided port to a required port, with validation."""
        source = Endpoint(src_instance, src_port)
        target = Endpoint(dst_instance, dst_port)
        sport = self._resolve_port(source)
        tport = self._resolve_port(target)
        if not sport.is_provided:
            raise CompositionError(
                f"composition {self.name}: {source} is not a provided port")
        if not tport.is_required:
            raise CompositionError(
                f"composition {self.name}: {target} is not a required port")
        if not sport.interface.compatible_with(tport.interface):
            raise CompositionError(
                f"composition {self.name}: incompatible interfaces on "
                f"{source} ({sport.interface.name}) -> {target} "
                f"({tport.interface.name})")
        for existing in self.connectors:
            if existing.target == target:
                if isinstance(tport.interface, SenderReceiverInterface):
                    raise CompositionError(
                        f"composition {self.name}: {target} already has a "
                        f"writer ({existing.source}); sender-receiver "
                        f"targets accept a single source")
                raise CompositionError(
                    f"composition {self.name}: {target} already has a "
                    f"server ({existing.source}); a client port calls a "
                    f"single server")
        connector = Connector(source, target)
        self.connectors.append(connector)
        return connector

    def delegate(self, name: str, inner_instance: str,
                 inner_port: str) -> DelegationPort:
        """Expose an inner instance's port at this composition's boundary."""
        if name in self.delegations:
            raise CompositionError(
                f"composition {self.name}: duplicate delegation {name!r}")
        endpoint = Endpoint(inner_instance, inner_port)
        port = self._resolve_port(endpoint)
        delegation = DelegationPort(name, endpoint, port.direction)
        self.delegations[name] = delegation
        return delegation

    def instantiate(self, instance_name: str) -> "CompositionInstance":
        """Create a named instance of this composition for nesting."""
        return CompositionInstance(instance_name, self)

    # ------------------------------------------------------------------
    def _resolve_port(self, endpoint: Endpoint) -> Port:
        instance = self.instances.get(endpoint.instance)
        if instance is None:
            raise CompositionError(
                f"composition {self.name}: unknown instance "
                f"{endpoint.instance!r}")
        if isinstance(instance, CompositionInstance):
            delegation = instance.composition.delegations.get(endpoint.port)
            if delegation is None:
                raise CompositionError(
                    f"composition {self.name}: nested composition "
                    f"{endpoint.instance!r} exposes no port "
                    f"{endpoint.port!r}")
            return instance.composition._resolve_port(delegation.inner)
        return instance.port(endpoint.port)

    def flatten(self, prefix: str = "") -> tuple[list[ComponentInstance],
                                                 list[Connector]]:
        """Resolve hierarchy: atomic instances with dotted names plus
        connectors whose delegation endpoints are rewritten to atomic
        ports."""
        instances: list[ComponentInstance] = []
        connectors: list[Connector] = []
        for name, instance in self.instances.items():
            full = f"{prefix}{name}"
            if isinstance(instance, CompositionInstance):
                inner_instances, inner_connectors = \
                    instance.composition.flatten(prefix=f"{full}.")
                instances.extend(inner_instances)
                connectors.extend(inner_connectors)
            else:
                flat = ComponentInstance(full, instance.component)
                flat.state = instance.state
                instances.append(flat)
        for connector in self.connectors:
            source = self._flatten_endpoint(connector.source, prefix)
            target = self._flatten_endpoint(connector.target, prefix)
            connectors.append(Connector(source, target))
        return instances, connectors

    def _flatten_endpoint(self, endpoint: Endpoint, prefix: str) -> Endpoint:
        instance = self.instances[endpoint.instance]
        full = f"{prefix}{endpoint.instance}"
        if isinstance(instance, CompositionInstance):
            delegation = instance.composition.delegations[endpoint.port]
            return instance.composition._flatten_endpoint(
                delegation.inner, prefix=f"{full}.")
        return Endpoint(full, endpoint.port)

    def __repr__(self) -> str:
        return (f"<Composition {self.name} instances={len(self.instances)} "
                f"connectors={len(self.connectors)}>")


class CompositionInstance:
    """One occurrence of a composition inside a parent composition."""

    def __init__(self, name: str, composition: Composition):
        self.name = name
        self.composition = composition

    def __repr__(self) -> str:
        return f"<CompositionInstance {self.name}:{self.composition.name}>"
