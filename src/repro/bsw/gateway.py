"""PDU gateways between buses (Figure 1's "Gateway" box).

In a federated architecture, domains on separate buses exchange selected
frames through a gateway ECU.  The gateway subscribes to frames on one
bus and re-emits them on another after a processing delay — the hop the
integrated architecture removes (experiment E5 counts these).

Two gateways are provided: :class:`CanGateway` (a central gateway with
one controller on each of two or more CAN buses; the RTE generator
instantiates it for multi-domain deployments) and
:class:`FlexRayCanGateway` (CAN <-> FlexRay static segment — the
migration path of Section 4, where legacy CAN domains hang off a
time-triggered backbone).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.network.can import CanBus, CanFrameSpec
from repro.network.flexray import FlexRayBus
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace


class CanGateway:
    """A central gateway spanning several CAN domains.

    ``buses`` maps each domain name to its bus; the gateway attaches one
    controller, named ``<name>.<domain>``, per domain.  A route forwards
    a frame arriving in its source domain to any set of destination
    domains after the processing delay, optionally under another frame
    spec there (id translation).
    """

    def __init__(self, sim: Simulator, name: str,
                 buses: dict[str, CanBus], processing_delay: int = 100_000,
                 trace: Optional[Trace] = None):
        if len(buses) < 2:
            raise ConfigurationError(
                f"gateway {name}: needs at least two domains")
        if len({id(bus) for bus in buses.values()}) < len(buses):
            raise ConfigurationError(
                f"gateway {name}: two domains on the same bus")
        if processing_delay < 0:
            raise ConfigurationError(
                f"gateway {name}: negative processing delay")
        self.sim = sim
        self.name = name
        self.processing_delay = processing_delay
        self.trace = trace if trace is not None else Trace()
        self._ports = {domain: bus.attach(f"{name}.{domain}")
                       for domain, bus in buses.items()}
        #: frame name -> (source domain, {dst domain: out spec}).
        self._routes: dict[str, tuple[str, dict[str, CanFrameSpec]]] = {}
        self.forwarded = 0
        for domain, controller in self._ports.items():
            controller.on_receive(
                lambda spec, msg, d=domain: self._forward(d, spec, msg))

    def route(self, frame_name: str, src_domain: str,
              out_specs: dict[str, CanFrameSpec]) -> None:
        """Forward ``frame_name`` from ``src_domain`` to each destination
        domain with the given outgoing spec."""
        if frame_name in self._routes:
            raise ConfigurationError(
                f"gateway {self.name}: duplicate route {frame_name!r}")
        unknown = ({src_domain} | set(out_specs)) - set(self._ports)
        if unknown:
            raise ConfigurationError(
                f"gateway {self.name}: unknown domains {sorted(unknown)}")
        if src_domain in out_specs:
            raise ConfigurationError(
                f"gateway {self.name}: route {frame_name!r} forwards "
                f"into its own source domain")
        self._routes[frame_name] = (src_domain, dict(out_specs))

    def _forward(self, arrived_in: str, spec, msg) -> None:
        route = self._routes.get(spec.name)
        if route is None:
            return
        src_domain, out_specs = route
        if arrived_in != src_domain:
            return  # our own re-emission in a destination domain

        def emit():
            for domain, out_spec in out_specs.items():
                self.forwarded += 1
                self.trace.log(self.sim.now, "gateway.forward", spec.name,
                               gateway=self.name, to=domain)
                self._ports[domain].send(out_spec, msg.payload)

        self.sim.schedule(self.processing_delay, emit)

    def __repr__(self) -> str:
        return (f"<CanGateway {self.name} domains="
                f"{sorted(self._ports)} routes={len(self._routes)}>")


class FlexRayCanGateway:
    """Bridges a legacy CAN domain onto a FlexRay backbone.

    * **CAN -> FlexRay**: a routed CAN frame's payload is written into a
      gateway-owned static slot buffer; the backbone transmits it at the
      next slot occurrence (event-triggered traffic becomes
      time-triggered state).
    * **FlexRay -> CAN**: a routed static frame's payload is re-emitted
      on the CAN domain as a normal frame after the processing delay.
    """

    def __init__(self, sim: Simulator, name: str, can_bus: CanBus,
                 flexray_bus: FlexRayBus, processing_delay: int = 100_000,
                 trace: Optional[Trace] = None):
        if processing_delay < 0:
            raise ConfigurationError(
                f"gateway {name}: negative processing delay")
        self.sim = sim
        self.name = name
        self.processing_delay = processing_delay
        self.trace = trace if trace is not None else Trace()
        self.can = can_bus.attach(f"{name}.can")
        self.flexray = flexray_bus.attach(f"{name}.fr")
        #: CAN frame name -> FlexRay slot the gateway owns.
        self._to_flexray: dict[str, int] = {}
        #: FlexRay frame name -> outgoing CAN spec.
        self._to_can: dict[str, CanFrameSpec] = {}
        self.forwarded = 0
        self.can.on_receive(self._from_can)
        self.flexray.on_receive(self._from_flexray)

    def route_to_flexray(self, can_frame_name: str, slot: int) -> None:
        """Forward a CAN frame into a gateway-owned static slot."""
        if can_frame_name in self._to_flexray:
            raise ConfigurationError(
                f"gateway {self.name}: duplicate route for "
                f"{can_frame_name!r}")
        self._to_flexray[can_frame_name] = slot

    def route_to_can(self, flexray_frame_name: str,
                     out_spec: CanFrameSpec) -> None:
        """Forward a FlexRay static frame onto the CAN domain."""
        if flexray_frame_name in self._to_can:
            raise ConfigurationError(
                f"gateway {self.name}: duplicate route for "
                f"{flexray_frame_name!r}")
        self._to_can[flexray_frame_name] = out_spec

    def _from_can(self, spec, msg) -> None:
        slot = self._to_flexray.get(spec.name)
        if slot is None:
            return

        def emit():
            self.forwarded += 1
            self.trace.log(self.sim.now, "gateway.forward", spec.name,
                           gateway=self.name, to="flexray", slot=slot)
            self.flexray.send_static(slot, msg.payload)

        self.sim.schedule(self.processing_delay, emit)

    def _from_flexray(self, frame_name, msg, slot) -> None:
        out_spec = self._to_can.get(frame_name)
        if out_spec is None:
            return

        def emit():
            self.forwarded += 1
            self.trace.log(self.sim.now, "gateway.forward", frame_name,
                           gateway=self.name, to="can",
                           can_id=out_spec.can_id)
            self.can.send(out_spec, msg.payload)

        self.sim.schedule(self.processing_delay, emit)

    def __repr__(self) -> str:
        return (f"<FlexRayCanGateway {self.name} "
                f"routes={len(self._to_flexray) + len(self._to_can)}>")
