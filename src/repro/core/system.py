"""System models: composition + ECUs + mapping + bus.

A :class:`SystemModel` is the integrator's view: the flattened component
network, the ECU inventory, the instance-to-ECU mapping and the bus
configuration.  :meth:`SystemModel.validate` performs the "prior to
implementation system configuration checks" the paper calls for (Section
2, limitation 2): mapping and bus checks on the model, and server and
frame rules on the tasks and PDUs :func:`~repro.core.rte.rte_plan` says
the RTE will generate — the rules the generator itself enforces, so a
configuration that validates also builds.
:meth:`SystemModel.build` generates the RTE from that same plan and
returns a runnable :class:`~repro.core.rte.SystemRuntime`.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.errors import ConfigurationError
from repro.core.composition import Composition
from repro.core.ecu import EcuSpec
from repro.core.interface import ClientServerInterface
from repro.core.rte import (BUS_PARAMS, RteBuilder, bus_capacity_issue,
                            bus_params_issue, rte_plan,
                            server_runnable_issues)


class SystemModel:
    """A deployable system description."""

    def __init__(self, name: str):
        self.name = name
        self.ecus: dict[str, EcuSpec] = {}
        self.root: Optional[Composition] = None
        self.mapping: dict[str, str] = {}
        #: per-domain bus configuration: domain -> (kind, params).
        self.domain_buses: dict[str, tuple[Optional[str], dict]] = {}
        self.can_ids: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_ecu(self, name: str, scheduler_factory=None,
                domain: str = "default") -> EcuSpec:
        """Declare an ECU (optionally with scheduler and domain)."""
        if name in self.ecus:
            raise ConfigurationError(f"duplicate ECU {name!r}")
        ecu = EcuSpec(name, scheduler_factory, domain)
        self.ecus[name] = ecu
        return ecu

    def set_root(self, composition: Composition) -> None:
        """Set the composition this system deploys."""
        self.root = composition

    def map(self, instance_name: str, ecu_name: str) -> None:
        """Map a flattened instance name onto an ECU."""
        self.mapping[instance_name] = ecu_name

    def map_all(self, ecu_name: str) -> None:
        """Map every instance onto one ECU (integrated single-box)."""
        if self.root is None:
            raise ConfigurationError("set_root before map_all")
        instances, __ = self.root.flatten()
        for instance in instances:
            self.mapping[instance.name] = ecu_name

    def configure_bus(self, kind: Optional[str], **params) -> None:
        """Configure the bus of the ``default`` domain (the common
        single-bus case)."""
        self.configure_domain_bus("default", kind, **params)

    def configure_domain_bus(self, domain: str, kind: Optional[str],
                             **params) -> None:
        """Configure one domain's bus with parameters its kind reads
        (:data:`~repro.core.rte.BUS_PARAMS`), at values it can run
        (:func:`~repro.core.rte.bus_params_issue`).  Cross-domain
        traffic is routed through an auto-generated central gateway
        (CAN domains only)."""
        if kind not in BUS_PARAMS:
            raise ConfigurationError(
                f"unsupported bus kind {kind!r}; pick from "
                f"{tuple(BUS_PARAMS)}")
        unread = sorted(set(params) - set(BUS_PARAMS[kind]))
        if unread:
            raise ConfigurationError(
                f"bus kind {kind!r} reads no parameter "
                f"{', '.join(unread)}; it reads "
                f"{', '.join(BUS_PARAMS[kind]) or 'none'}")
        issue = bus_params_issue(kind, params)
        if issue is not None:
            raise ConfigurationError(f"domain {domain!r}: {issue}")
        self.domain_buses[domain] = (kind, params)

    def set_can_id(self, pdu_name: str, can_id: int) -> None:
        """Pin the CAN identifier of a generated PDU."""
        self.can_ids[pdu_name] = can_id

    # ------------------------------------------------------------------
    # Static checks
    # ------------------------------------------------------------------
    def validate(self) -> list[str]:
        """Configuration checks; returns human-readable issues (empty =
        consistent).  ``build`` refuses to proceed on a non-empty list."""
        issues: list[str] = []
        if self.root is None:
            return ["no root composition set"]
        instances, connectors = self.root.flatten()
        by_name = {i.name: i for i in instances}
        for instance in instances:
            ecu = self.mapping.get(instance.name)
            if ecu is None:
                issues.append(f"instance {instance.name!r} is not mapped "
                              f"to any ECU")
            elif ecu not in self.ecus:
                issues.append(f"instance {instance.name!r} mapped to "
                              f"unknown ECU {ecu!r}")
        for name in self.mapping:
            if name not in by_name:
                issues.append(f"mapping references unknown instance "
                              f"{name!r}")
        for connector in connectors:
            src_ecu = self.mapping.get(connector.source.instance)
            dst_ecu = self.mapping.get(connector.target.instance)
            if src_ecu is None or dst_ecu is None or src_ecu == dst_ecu:
                continue
            if src_ecu not in self.ecus or dst_ecu not in self.ecus:
                continue
            src = by_name[connector.source.instance]
            port = src.port(connector.source.port)
            if isinstance(port.interface, ClientServerInterface):
                for op in port.interface.operations.values():
                    if op.returns is not None:
                        issues.append(
                            f"connector {connector.source} -> "
                            f"{connector.target}: remote client-server "
                            f"operations with return values are not "
                            f"supported; operation {op.name!r} returns "
                            f"{op.returns.name}")
            issues.extend(self._check_domains(connector, src_ecu,
                                              dst_ecu))
        plan = rte_plan(self)
        issues.extend(server_runnable_issues(plan))
        issues.extend(self._check_pdus(plan))
        return issues

    def _domain_kind(self, domain: str) -> Optional[str]:
        kind, __ = self.domain_buses.get(domain, (None, {}))
        return kind

    def _check_domains(self, connector, src_ecu: str,
                       dst_ecu: str) -> list[str]:
        issues = []
        src_domain = self.ecus[src_ecu].domain
        dst_domain = self.ecus[dst_ecu].domain
        for domain in {src_domain, dst_domain}:
            if self._domain_kind(domain) is None:
                issues.append(
                    f"connector {connector.source} -> {connector.target} "
                    f"needs a bus in domain {domain!r} but none is "
                    f"configured")
        if src_domain != dst_domain:
            kinds = {self._domain_kind(src_domain),
                     self._domain_kind(dst_domain)}
            if kinds - {None} and kinds != {"can"}:
                issues.append(
                    f"connector {connector.source} -> {connector.target} "
                    f"crosses domains {src_domain!r} -> {dst_domain!r}; "
                    f"auto-gatewaying only supports CAN domains "
                    f"(got {sorted(k for k in kinds if k)})")
        return issues

    def _check_pdus(self, plan) -> list[str]:
        """Frame rules on the PDUs the RTE generates: each domain's bus
        has room for the PDUs its ECUs send, and each CAN-carried PDU
        fits one 8-byte frame and has a CAN id of its own."""
        issues = []
        sent = Counter(self.ecus[pdu.ecu].domain
                       for pdu in plan.pdus.values())
        for domain, n_pdus in sorted(sent.items()):
            kind, params = self.domain_buses.get(domain, (None, {}))
            issue = bus_capacity_issue(domain, kind, params, n_pdus)
            if issue is not None:
                issues.append(issue)
        by_id: dict[int, list[str]] = {}
        for pdu in plan.pdus.values():
            if self._domain_kind(self.ecus[pdu.ecu].domain) != "can":
                continue
            by_id.setdefault(pdu.can_id, []).append(pdu.name)
            if pdu.bits <= 64:
                continue
            if pdu.operation is None:
                issues.append(
                    f"port {pdu.source} needs {pdu.bits} bits with "
                    f"update bits; exceeds one 8-byte CAN frame — split "
                    f"the interface")
            else:
                issues.append(
                    f"client-server request {pdu.name} needs {pdu.bits} "
                    f"bits with its fire bit; exceeds one 8-byte CAN "
                    f"frame — split the operation")
        for can_id, names in sorted(by_id.items()):
            if len(names) > 1:
                issues.append(f"PDUs {', '.join(names)} share CAN id "
                              f"0x{can_id:03X}")
        return issues

    def build(self, sim, trace=None):
        """Generate the RTE and instantiate the platform on ``sim``."""
        issues = self.validate()
        if issues:
            raise ConfigurationError(
                "system configuration checks failed:\n  "
                + "\n  ".join(issues))
        return RteBuilder(self).build(sim, trace)

    def __repr__(self) -> str:
        buses = {domain: kind
                 for domain, (kind, __) in sorted(self.domain_buses.items())}
        return (f"<SystemModel {self.name} ecus={sorted(self.ecus)} "
                f"buses={buses}>")
