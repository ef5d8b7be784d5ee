"""RTE generation: deploying a component network onto ECUs and a bus.

The builder turns a validated :class:`~repro.core.system.SystemModel` into
a running platform:

* every runnable becomes an OS task on its instance's ECU (TimingEvent →
  periodic task, DataReceivedEvent / OperationInvokedEvent / InitEvent →
  sporadic task), with rate-monotonic default priorities;
* sender-receiver connectors become direct buffer writes when both ends
  share an ECU, and COM signals packed into I-PDUs (with update bits, sent
  in direct mode) when they cross ECUs;
* client-server connectors are synchronous inline calls within an ECU and
  argument-carrying request frames across ECUs (void operations only —
  checked by ``SystemModel.validate``).

Execution follows implicit (buffered) communication semantics: a task
snapshots its instance's inputs when it *starts* and commits its outputs
when it *completes* — so a runnable's observable I/O happens at the
points timing analysis assumes.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Optional

from repro.errors import CompositionError, ConfigurationError
from repro.com import (CanComAdapter, ComStack, DIRECT, FlexRayComAdapter,
                       SignalSpec, TRIGGERED, TteComAdapter,
                       pack_sequentially)
from repro.core.component import ComponentInstance
from repro.core.composition import Endpoint
from repro.core.interface import (ClientServerInterface,
                                  SenderReceiverInterface)
from repro.core.runnable import (DataReceivedEvent, InitEvent,
                                 OperationInvokedEvent, TimingEvent)
from repro.network import (CanBus, CanFrameSpec, FlexRayBus, FlexRayConfig,
                           StaticSlotAssignment, TtEthernetSwitch,
                           TtFrameSpec, ethernet_frame_time)
from repro.osek import EcuKernel, TaskSpec
from repro.sim.trace import Trace
from repro.units import us

#: Default priority for sporadic (event-activated) tasks: above periodic
#: rate-monotonic levels, so data-driven chains progress promptly.
SPORADIC_PRIORITY = 1000
#: Queue depth for event-activated tasks.
SPORADIC_QUEUE = 16
#: FIFO depth of queued sender-receiver elements (matches the VFB).
QUEUE_LENGTH = 16

FIRST_CAN_ID = 0x100


def assign_rm_priorities(explicit: dict[str, int],
                         plan: list) -> dict[str, int]:
    """Priority assignment shared by the RTE builder and the
    prior-to-implementation timing report: explicit overrides win,
    periodic runnables get rate-monotonic levels, event-activated
    runnables run at :data:`SPORADIC_PRIORITY`.

    ``plan`` holds ``(instance_name, runnable)`` pairs.
    """
    periodic = []
    priorities = {}
    for instance_name, runnable in plan:
        name = f"{instance_name}.{runnable.name}"
        if name in explicit:
            priorities[name] = explicit[name]
        elif isinstance(runnable.trigger, TimingEvent):
            periodic.append((runnable.trigger.period, name))
        else:
            priorities[name] = SPORADIC_PRIORITY
    periodic.sort()  # shortest period first -> highest priority
    level = len(periodic)
    for __, name in periodic:
        priorities[name] = level
        level -= 1
    return priorities


def pdu_can_ids(system) -> dict[str, int]:
    """The CAN id of every PDU the RTE generates for ``system``: one per
    cross-ECU sender-receiver source port (``instance.port``) and one
    request PDU per operation of a cross-ECU client-server connector
    (``cs.client.port.operation``).  Ids pinned by ``set_can_id`` are
    kept; the others are numbered from :data:`FIRST_CAN_ID` in PDU-name
    order, skipping pinned ids.  The RTE builder and the timing report
    both take their frame ids from here."""
    instances, connectors = system.root.flatten()
    by_name = {i.name: i for i in instances}
    names = set()
    for connector in connectors:
        source, target = connector.source, connector.target
        if system.mapping[source.instance] == system.mapping[target.instance]:
            continue
        interface = by_name[source.instance].port(source.port).interface
        if isinstance(interface, SenderReceiverInterface):
            names.add(f"{source.instance}.{source.port}")
        else:
            names.update(f"cs.{target.instance}.{target.port}.{op_name}"
                          for op_name in interface.operations)
    pinned = system.can_ids
    used = set(pinned.values())
    free = (can_id for can_id in itertools.count(FIRST_CAN_ID)
            if can_id not in used)
    return {name: pinned[name] if name in pinned else next(free)
            for name in sorted(names)}


class RteContext:
    """``ctx`` handed to runnables on a deployed system."""

    def __init__(self, runtime: "SystemRuntime", ecu: "_EcuRuntime",
                 instance: ComponentInstance):
        self._runtime = runtime
        self._ecu = ecu
        self._instance = instance
        self._snapshot: Optional[dict] = None

    @property
    def now(self) -> int:
        """Current virtual time (ns)."""
        return self._runtime.sim.now

    @property
    def state(self) -> dict:
        """The owning instance's private state dict."""
        return self._instance.state

    def read(self, port: str, element: str) -> int:
        """Read a sender-receiver element (snapshot during a job)."""
        key = (self._instance.name, port, element)
        if key in self._ecu.queues:
            raise ConfigurationError(
                f"{self._instance.name}.{port}.{element} is queued; use "
                f"ctx.receive() instead of ctx.read()")
        if key not in self._ecu.buffers:
            raise ConfigurationError(
                f"{self._instance.name}.{port}.{element} is not a "
                f"sender-receiver element")
        if self._snapshot is not None and key in self._snapshot:
            return self._snapshot[key]
        return self._ecu.buffers[key]

    def receive(self, port: str, element: str):
        """Pop the oldest value from a *queued* element's FIFO (None
        when empty).  Consumption is live (event semantics), not
        snapshotted."""
        key = (self._instance.name, port, element)
        queue = self._ecu.queues.get(key)
        if queue is None:
            raise ConfigurationError(
                f"{self._instance.name}.{port}.{element} is not a queued "
                f"element of a required port")
        return queue.popleft() if queue else None

    def write(self, port: str, element: str, value: int) -> None:
        """Write a provided element (delivered locally and via COM)."""
        self._runtime._commit_write(self._instance, port, element, value)

    def call(self, port: str, operation: str, **args):
        """Invoke a client-server operation (sync local, async remote)."""
        return self._runtime._call(self._instance, port, operation, args)


class _EcuRuntime:
    """Runtime state of one deployed ECU."""

    def __init__(self, spec, kernel: EcuKernel):
        self.spec = spec
        self.kernel = kernel
        self.com: Optional[ComStack] = None
        self.buffers: dict[tuple[str, str, str], int] = {}
        #: FIFOs of queued elements on required ports.
        self.queues: dict[tuple[str, str, str], deque] = {}
        self.instances: dict[str, ComponentInstance] = {}
        self.contexts: dict[str, RteContext] = {}
        #: (instance, port, element) -> tasks to activate on reception.
        self.data_tasks: dict[tuple[str, str, str], list] = {}
        #: server task name -> queue of pending call kwargs.
        self.call_queues: dict[str, deque] = {}


class SystemRuntime:
    """A deployed, running system (returned by ``SystemModel.build``)."""

    def __init__(self, system, sim, trace: Trace):
        self.system = system
        self.sim = sim
        self.trace = trace
        self.ecus: dict[str, _EcuRuntime] = {}
        self.bus = None
        #: per-domain buses (multi-domain deployments).
        self.buses: dict[str, object] = {}
        #: auto-generated central gateway, if cross-domain routes exist.
        self.gateway = None
        #: (src_instance, port, element) -> same-ECU delivery targets.
        self._local_routes: dict[tuple, list[tuple]] = {}
        #: (src_instance, port, element) -> COM signal name (if remote).
        self._com_tx: dict[tuple, str] = {}
        #: client endpoint -> server endpoint for client-server connectors.
        self._cs_routes: dict[Endpoint, Endpoint] = {}
        #: client endpoint -> remote-call pdu name.
        self._cs_pdus: dict[tuple, str] = {}
        self._instance_ecu: dict[str, str] = {}
        self.queue_overflows = 0

    # ------------------------------------------------------------------
    # Public helpers
    # ------------------------------------------------------------------
    @property
    def kernels(self) -> dict[str, EcuKernel]:
        """Per-ECU kernels by ECU name."""
        return {name: ecu.kernel for name, ecu in self.ecus.items()}

    def ecu_of(self, instance_name: str) -> _EcuRuntime:
        """Runtime state of the ECU hosting an instance."""
        return self.ecus[self._instance_ecu[instance_name]]

    def value_of(self, instance: str, port: str, element: str) -> int:
        """Current buffer value of a sender-receiver element."""
        return self.ecu_of(instance).buffers[(instance, port, element)]

    def queue_depth(self, instance: str, port: str, element: str) -> int:
        """Pending entries of a queued element's FIFO."""
        return len(self.ecu_of(instance).queues[(instance, port,
                                                 element)])

    def response_times(self, task_name: str) -> list[int]:
        """Observed response times of a deployed task."""
        return [r.data["response"]
                for r in self.trace.records("task.complete", task_name)]

    def deadline_misses(self, task_name: Optional[str] = None) -> int:
        """Count of deadline-miss records (optionally for one task)."""
        return len(self.trace.records("task.deadline_miss", task_name))

    # ------------------------------------------------------------------
    # Data flow
    # ------------------------------------------------------------------
    def _commit_write(self, instance: ComponentInstance, port_name: str,
                      element: str, value: int) -> None:
        port = instance.port(port_name)
        if not (port.is_provided
                and isinstance(port.interface, SenderReceiverInterface)):
            raise ConfigurationError(
                f"{instance.name}.{port_name} is not a provided "
                f"sender-receiver port")
        dtype = port.interface.elements.get(element)
        if dtype is None:
            raise ConfigurationError(
                f"{instance.name}.{port_name} has no element {element!r}")
        dtype.validate(value)
        key = (instance.name, port_name, element)
        source_ecu = self.ecu_of(instance.name)
        if not port.interface.is_queued(element):
            source_ecu.buffers[key] = value
        self.trace.log(self.sim.now, "rte.write",
                       f"{instance.name}.{port_name}.{element}", value=value)
        for ecu_name, target_instance, target_port in \
                self._local_routes.get(key, []):
            self._deliver(self.ecus[ecu_name], target_instance, target_port,
                          element, value)
        signal_name = self._com_tx.get(key)
        if signal_name is not None:
            source_ecu.com.write_signal(signal_name, value)

    def _deliver(self, ecu: _EcuRuntime, instance: str, port: str,
                 element: str, value: int) -> None:
        key = (instance, port, element)
        queue = ecu.queues.get(key)
        if queue is not None:
            if len(queue) >= QUEUE_LENGTH:
                self.queue_overflows += 1
                self.trace.log(self.sim.now, "rte.queue_overflow",
                               f"{instance}.{port}.{element}")
            else:
                queue.append(value)
        else:
            ecu.buffers[key] = value
        for task in ecu.data_tasks.get(key, []):
            ecu.kernel.activate(task)

    def _on_com_signal(self, ecu: _EcuRuntime, targets: list[tuple],
                       element: str, value: int) -> None:
        for instance, port in targets:
            self._deliver(ecu, instance, port, element, value)

    # ------------------------------------------------------------------
    # Client-server
    # ------------------------------------------------------------------
    def _call(self, instance: ComponentInstance, port_name: str,
              operation: str, args: dict):
        port = instance.port(port_name)
        if not (port.is_required
                and isinstance(port.interface, ClientServerInterface)):
            raise ConfigurationError(
                f"{instance.name}.{port_name} is not a client port")
        op = port.interface.operations.get(operation)
        if op is None:
            raise ConfigurationError(
                f"{instance.name}.{port_name} has no operation "
                f"{operation!r}")
        if set(args) != set(op.args):
            raise ConfigurationError(
                f"call {operation}: expected args {sorted(op.args)}, got "
                f"{sorted(args)}")
        for arg_name, value in args.items():
            op.args[arg_name].validate(value)
        client = Endpoint(instance.name, port_name)
        server = self._cs_routes.get(client)
        if server is None:
            raise CompositionError(f"{client} is not connected to a server")
        client_ecu = self._instance_ecu[instance.name]
        server_ecu = self._instance_ecu[server.instance]
        if client_ecu == server_ecu:
            return self._call_local(server, operation, op, args)
        return self._call_remote(client, operation, args)

    def _call_local(self, server: Endpoint, operation: str, op, args: dict):
        ecu = self.ecus[self._instance_ecu[server.instance]]
        server_instance = ecu.instances[server.instance]
        runnable = server_instance.component.server_runnable(server.port,
                                                             operation)
        if runnable is None:
            raise CompositionError(
                f"server {server.instance} declares no runnable for "
                f"{server.port}.{operation}")
        self.trace.log(self.sim.now, "rte.call_local",
                       f"{server.instance}.{server.port}.{operation}")
        result = runnable.function(ecu.contexts[server.instance], **args)
        if op.returns is not None:
            op.returns.validate(result)
        return result

    def _call_remote(self, client: Endpoint, operation: str,
                     args: dict) -> None:
        pdu_name = self._cs_pdus[(client.instance, client.port, operation)]
        ecu = self.ecus[self._instance_ecu[client.instance]]
        for arg_name, value in args.items():
            ecu.com.write_signal(f"{pdu_name}.{arg_name}", value)
        ecu.com.write_signal(f"{pdu_name}.fire", 1)
        self.trace.log(self.sim.now, "rte.call_remote",
                       f"{client}.{operation}")
        ecu.com.send_pdu(pdu_name)

    def __repr__(self) -> str:
        return f"<SystemRuntime {self.system.name} ecus={sorted(self.ecus)}>"


class RteBuilder:
    """Generates the platform for one system model."""

    def __init__(self, system):
        self.system = system

    # ------------------------------------------------------------------
    def build(self, sim, trace: Optional[Trace] = None) -> SystemRuntime:
        """Generate kernels, COM, buses and tasks; returns the runtime."""
        trace = trace if trace is not None else Trace()
        runtime = SystemRuntime(self.system, sim, trace)
        instances, connectors = self.system.root.flatten()
        by_name = {i.name: i for i in instances}
        runtime._instance_ecu = dict(self.system.mapping)

        for name, spec in self.system.ecus.items():
            kernel = EcuKernel(sim, spec.scheduler_factory(), trace=trace,
                               name=name)
            runtime.ecus[name] = _EcuRuntime(spec, kernel)
        for instance in instances:
            ecu = runtime.ecus[self.system.mapping[instance.name]]
            ecu.instances[instance.name] = instance
            ecu.contexts[instance.name] = RteContext(runtime, ecu, instance)
            self._init_buffers(ecu, instance)

        sr_cross, cs_cross = self._route_connectors(runtime, by_name,
                                                    connectors)
        self._build_bus(sim, runtime, trace, by_name, sr_cross, cs_cross)
        self._build_tasks(runtime, instances)
        return runtime

    def _init_buffers(self, ecu: _EcuRuntime,
                      instance: ComponentInstance) -> None:
        for port_name, port in instance.ports.items():
            if isinstance(port.interface, SenderReceiverInterface):
                for element, dtype in port.interface.elements.items():
                    key = (instance.name, port_name, element)
                    if port.interface.is_queued(element):
                        if port.is_required:
                            ecu.queues[key] = deque()
                    else:
                        ecu.buffers[key] = dtype.initial

    # ------------------------------------------------------------------
    def _route_connectors(self, runtime, by_name, connectors):
        """Fill routing tables; return the cross-ECU S/R and C/S work."""
        sr_cross: dict[tuple, list] = {}
        cs_cross: list = []
        mapping = self.system.mapping
        for connector in connectors:
            src = by_name[connector.source.instance]
            port = src.port(connector.source.port)
            src_ecu = mapping[connector.source.instance]
            dst_ecu = mapping[connector.target.instance]
            if isinstance(port.interface, SenderReceiverInterface):
                for element in port.interface.elements:
                    key = (connector.source.instance, connector.source.port,
                           element)
                    if dst_ecu == src_ecu:
                        runtime._local_routes.setdefault(key, []).append(
                            (dst_ecu, connector.target.instance,
                             connector.target.port))
                    else:
                        sr_cross.setdefault(key, []).append(
                            (dst_ecu, connector.target.instance,
                             connector.target.port))
            else:
                runtime._cs_routes[connector.target] = connector.source
                if dst_ecu != src_ecu:
                    cs_cross.append((connector, port.interface))
        return sr_cross, cs_cross

    # ------------------------------------------------------------------
    def _build_bus(self, sim, runtime, trace, by_name, sr_cross, cs_cross):
        if not sr_cross and not cs_cross:
            return
        # --- group S/R elements into one PDU per source port ------------
        pdu_signals: dict[tuple, list[SignalSpec]] = {}
        signal_targets: dict[str, list] = {}
        for (instance, port, element), targets in sorted(sr_cross.items()):
            signal_name = f"{instance}.{port}.{element}"
            dtype = by_name[instance].port(port).interface.elements[element]
            spec = SignalSpec(signal_name, dtype.width_bits,
                              initial=dtype.initial, transfer=TRIGGERED)
            pdu_signals.setdefault((instance, port), []).append(spec)
            signal_targets[signal_name] = targets
            runtime._com_tx[(instance, port, element)] = signal_name
        # --- client-server request PDUs ---------------------------------
        cs_plan = []
        for connector, interface in cs_cross:
            # Connector direction is provided -> required, so for
            # client-server the source is the server, the target the client.
            server_end, client_end = connector.source, connector.target
            for op_name, op in sorted(interface.operations.items()):
                pdu_name = (f"cs.{client_end.instance}.{client_end.port}"
                            f".{op_name}")
                specs = [SignalSpec(f"{pdu_name}.{arg}", t.width_bits)
                         for arg, t in sorted(op.args.items())]
                specs.append(SignalSpec(f"{pdu_name}.fire", 1))
                cs_plan.append((pdu_name, specs, client_end, server_end,
                                op_name, op))
                runtime._cs_pdus[(client_end.instance, client_end.port,
                                  op_name)] = pdu_name

        pdus = {}
        for (instance, port), specs in sorted(pdu_signals.items()):
            name = f"{instance}.{port}"
            size = (sum(s.width_bits + 1 for s in specs) + 7) // 8
            pdus[name] = (pack_sequentially(name, size, specs,
                                            with_update_bits=True),
                          self.system.mapping[instance])
        for pdu_name, specs, client_end, __, __, __ in cs_plan:
            size = (sum(s.width_bits for s in specs) + 7) // 8
            pdus[pdu_name] = (pack_sequentially(pdu_name, size, specs),
                              self.system.mapping[client_end.instance])

        # rx registration plan: S/R targets + C/S servers (needed before
        # bus construction so cross-domain gateway routes can be derived).
        rx_needed: dict[str, set[str]] = {}
        for signal_name, targets in signal_targets.items():
            instance, port, element = signal_name.rsplit(".", 2)
            pdu_name = f"{instance}.{port}"
            for ecu_name, __, __ in targets:
                rx_needed.setdefault(ecu_name, set()).add(pdu_name)
        for pdu_name, specs, client_end, server_end, op_name, op in cs_plan:
            server_ecu = self.system.mapping[server_end.instance]
            rx_needed.setdefault(server_ecu, set()).add(pdu_name)

        adapters = self._make_bus_and_adapters(sim, runtime, trace, pdus,
                                               rx_needed)

        # --- wire COM stacks --------------------------------------------
        for ecu_name, ecu in runtime.ecus.items():
            if ecu_name in adapters:
                ecu.com = ComStack(sim, adapters[ecu_name], ecu_name,
                                   trace)
        for pdu_name, (ipdu, src_ecu) in sorted(pdus.items()):
            runtime.ecus[src_ecu].com.add_tx_pdu(ipdu, mode=DIRECT)
        for ecu_name, pdu_names in sorted(rx_needed.items()):
            for pdu_name in sorted(pdu_names):
                runtime.ecus[ecu_name].com.add_rx_pdu(pdus[pdu_name][0])
        # per-signal rx callbacks
        for signal_name, targets in sorted(signal_targets.items()):
            element = signal_name.rsplit(".", 1)[1]
            per_ecu: dict[str, list] = {}
            for ecu_name, t_instance, t_port in targets:
                per_ecu.setdefault(ecu_name, []).append((t_instance, t_port))
            for ecu_name, local_targets in per_ecu.items():
                ecu = runtime.ecus[ecu_name]
                ecu.com.on_signal(
                    signal_name,
                    lambda value, e=ecu, ts=local_targets, el=element:
                    runtime._on_com_signal(e, ts, el, value))
        # remote call dispatch
        for pdu_name, specs, client_end, server_end, op_name, op in cs_plan:
            server_ecu = runtime.ecus[self.system.mapping[
                server_end.instance]]
            task_name = self._server_task_name(runtime, server_end, op_name)
            arg_names = sorted(op.args)
            server_ecu.com.on_signal(
                f"{pdu_name}.fire",
                lambda value, e=server_ecu, tn=task_name, pn=pdu_name,
                an=arg_names:
                self._enqueue_remote_call(e, tn, pn, an))

    def _server_task_name(self, runtime, server_end, op_name) -> str:
        ecu = runtime.ecus[self.system.mapping[server_end.instance]]
        instance = ecu.instances[server_end.instance]
        runnable = instance.component.server_runnable(server_end.port,
                                                      op_name)
        if runnable is None:
            raise ConfigurationError(
                f"server {server_end.instance} declares no runnable for "
                f"{server_end.port}.{op_name}")
        return f"{server_end.instance}.{runnable.name}"

    def _enqueue_remote_call(self, ecu: _EcuRuntime, task_name: str,
                             pdu_name: str, arg_names: list[str]) -> None:
        kwargs = {arg: ecu.com.read_signal(f"{pdu_name}.{arg}")
                  for arg in arg_names}
        ecu.call_queues.setdefault(task_name, deque()).append(kwargs)
        ecu.kernel.activate(ecu.kernel.tasks[task_name])

    def _make_bus_and_adapters(self, sim, runtime, trace, pdus,
                               rx_needed):
        """Build one bus per configured domain, adapters per ECU, and —
        for PDUs whose receivers live in other (CAN) domains — a central
        gateway with the required routes."""
        domain_of = {name: spec.domain
                     for name, spec in self.system.ecus.items()}
        domains = sorted({domain_of[name] for name in runtime.ecus})
        # --- CAN ids are allocated globally (stable across domains) -----
        can_ids = pdu_can_ids(self.system)
        frame_spec_of = {
            pdu_name: CanFrameSpec(pdu_name, can_ids[pdu_name],
                                   dlc=min(8, ipdu.size_bytes))
            for pdu_name, (ipdu, __) in sorted(pdus.items())}

        adapters: dict[str, object] = {}
        can_buses: dict[str, CanBus] = {}
        for domain in domains:
            kind, params = self.system.domain_buses.get(domain,
                                                        (None, {}))
            members = [name for name in sorted(runtime.ecus)
                       if domain_of[name] == domain]
            domain_pdus = {name: value for name, value in pdus.items()
                           if domain_of[value[1]] == domain}
            if kind is None:
                if domain_pdus:
                    raise ConfigurationError(
                        f"domain {domain!r} has bus traffic but no bus")
                continue
            if kind == "can":
                bus = CanBus(sim, params.get("bitrate_bps", 500_000),
                             trace=trace, name=f"CAN:{domain}")
                can_buses[domain] = bus
                runtime.buses[domain] = bus
                for ecu_name in members:
                    specs = {pdu_name: frame_spec_of[pdu_name]
                             for pdu_name, (__, src_ecu)
                             in domain_pdus.items() if src_ecu == ecu_name}
                    adapters[ecu_name] = CanComAdapter(
                        bus.attach(ecu_name), specs)
            elif kind == "tte":
                tte_params = dict(params)
                tt_period = tte_params.pop("tt_period", us(5_000))
                switch = TtEthernetSwitch(
                    sim,
                    bitrate_bps=tte_params.pop("bitrate_bps",
                                               100_000_000),
                    switch_delay=tte_params.pop("switch_delay", us(2)),
                    trace=trace, name=f"TTE:{domain}")
                runtime.buses[domain] = switch
                for ecu_name in members:
                    switch.attach(ecu_name)
                slot = ethernet_frame_time(64, switch.bitrate_bps) * 2
                if len(domain_pdus) * slot > tt_period:
                    raise ConfigurationError(
                        f"domain {domain!r}: {len(domain_pdus)} TT "
                        f"streams do not fit a {tt_period} ns period")
                tx_of: dict[str, set] = {name: set() for name in members}
                rx_of: dict[str, set] = {name: set() for name in members}
                for index, (pdu_name, (ipdu, src_ecu)) in enumerate(
                        sorted(domain_pdus.items())):
                    receivers = sorted(
                        ecu for ecu, pdu_names in rx_needed.items()
                        if pdu_name in pdu_names and ecu != src_ecu)
                    if not receivers:
                        continue
                    switch.schedule_tt(TtFrameSpec(
                        pdu_name, src_ecu, receivers,
                        offset=index * slot, period=tt_period,
                        size_bytes=max(46, ipdu.size_bytes)))
                    tx_of[src_ecu].add(pdu_name)
                    for receiver in receivers:
                        rx_of[receiver].add(pdu_name)
                for ecu_name in members:
                    adapters[ecu_name] = TteComAdapter(
                        switch, ecu_name, tx_of[ecu_name],
                        rx_of[ecu_name])
                switch.start()
            else:  # flexray
                fr_params = dict(params)
                slot_length = fr_params.pop("slot_length", us(100))
                n_slots = fr_params.pop("n_static_slots",
                                        max(2, len(domain_pdus)))
                if n_slots < len(domain_pdus):
                    raise ConfigurationError(
                        f"domain {domain!r}: FlexRay needs >= "
                        f"{len(domain_pdus)} static slots, configured "
                        f"{n_slots}")
                config = FlexRayConfig(slot_length=slot_length,
                                       n_static_slots=n_slots,
                                       **fr_params)
                bus = FlexRayBus(sim, config, trace=trace,
                                 name=f"FR:{domain}")
                runtime.buses[domain] = bus
                controllers = {name: bus.attach(name) for name in members}
                slot_maps: dict[str, dict] = {name: {} for name in members}
                for slot, (pdu_name, (__, src_ecu)) in enumerate(
                        sorted(domain_pdus.items()), start=1):
                    bus.assign_slot(StaticSlotAssignment(slot, src_ecu,
                                                         pdu_name))
                    slot_maps[src_ecu][pdu_name] = slot
                for ecu_name in members:
                    adapters[ecu_name] = FlexRayComAdapter(
                        controllers[ecu_name], slot_maps[ecu_name])
                bus.start()

        self._build_gateway(sim, runtime, trace, pdus, rx_needed,
                            domain_of, can_buses, frame_spec_of)
        if len(runtime.buses) == 1:
            runtime.bus = next(iter(runtime.buses.values()))
        return adapters

    def _build_gateway(self, sim, runtime, trace, pdus, rx_needed,
                       domain_of, can_buses, frame_spec_of):
        """Route cross-domain PDUs through one central gateway."""
        routes: dict[str, tuple[str, set]] = {}
        for ecu_name, pdu_names in rx_needed.items():
            for pdu_name in pdu_names:
                src_domain = domain_of[pdus[pdu_name][1]]
                dst_domain = domain_of[ecu_name]
                if dst_domain == src_domain:
                    continue
                route = routes.setdefault(pdu_name, (src_domain, set()))
                route[1].add(dst_domain)
        if not routes:
            return
        from repro.bsw.gateway import MultiCanGateway
        needed_domains = set()
        for pdu_name, (src_domain, destinations) in routes.items():
            needed_domains.add(src_domain)
            needed_domains |= destinations
        missing = needed_domains - set(can_buses)
        if missing:
            raise ConfigurationError(
                f"cross-domain routing needs CAN buses in domains "
                f"{sorted(missing)}")
        gateway = MultiCanGateway(
            sim, "CGW", {d: can_buses[d] for d in sorted(needed_domains)},
            processing_delay=self.system.gateway_delay, trace=trace)
        runtime.gateway = gateway
        for pdu_name, (src_domain, destinations) in sorted(routes.items()):
            gateway.route(pdu_name, src_domain,
                          {d: frame_spec_of[pdu_name]
                           for d in sorted(destinations)})

    # ------------------------------------------------------------------
    def _build_tasks(self, runtime: SystemRuntime, instances) -> None:
        for ecu_name, ecu in runtime.ecus.items():
            plan = []
            for instance in ecu.instances.values():
                for runnable in instance.component.runnables:
                    plan.append((instance, runnable))
            priorities = self._assign_priorities(ecu, plan)
            for instance, runnable in plan:
                self._add_task(runtime, ecu, instance, runnable,
                               priorities[f"{instance.name}.{runnable.name}"])

    def _assign_priorities(self, ecu: _EcuRuntime, plan) -> dict[str, int]:
        return assign_rm_priorities(
            ecu.spec.priorities,
            [(instance.name, runnable) for instance, runnable in plan])

    def _add_task(self, runtime, ecu: _EcuRuntime, instance, runnable,
                  priority: int) -> None:
        task_name = f"{instance.name}.{runnable.name}"
        trigger = runnable.trigger
        context = ecu.contexts[instance.name]
        is_server = isinstance(trigger, OperationInvokedEvent)

        def on_start(job):
            context._snapshot = {
                key: value for key, value in ecu.buffers.items()
                if key[0] == instance.name}

        def on_complete(job):
            try:
                if is_server:
                    queue = ecu.call_queues.get(task_name)
                    kwargs = queue.popleft() if queue else {}
                    runnable.function(context, **kwargs)
                else:
                    runnable.function(context)
            finally:
                context._snapshot = None

        spec_kwargs = dict(
            wcet=runnable.wcet,
            priority=priority,
            partition=ecu.spec.partitions.get(task_name),
            budget=ecu.spec.budgets.get(task_name),
        )
        if isinstance(trigger, TimingEvent):
            spec = TaskSpec(task_name, period=trigger.period,
                            offset=trigger.offset, **spec_kwargs)
            ecu.kernel.add_task(spec, on_start=on_start,
                                on_complete=on_complete)
            return
        spec = TaskSpec(task_name, max_activations=SPORADIC_QUEUE,
                        **spec_kwargs)
        task = ecu.kernel.add_task(spec, on_start=on_start,
                                   on_complete=on_complete)
        if isinstance(trigger, DataReceivedEvent):
            key = (instance.name, trigger.port, trigger.element)
            ecu.data_tasks.setdefault(key, []).append(task)
        elif isinstance(trigger, InitEvent):
            runtime.sim.schedule(0, lambda: ecu.kernel.activate(task))
