"""RTE generation: deploying a component network onto ECUs and a bus.

:func:`rte_plan` derives, without building anything, what the generator
deploys for a :class:`~repro.core.system.SystemModel`:

* every runnable becomes an OS task on its instance's ECU (TimingEvent →
  periodic task, DataReceivedEvent / OperationInvokedEvent / InitEvent →
  sporadic task), with rate-monotonic default priorities and the ECU's
  partitions and budgets;
* sender-receiver connectors become direct buffer writes when both ends
  share an ECU, and COM signals packed into one I-PDU per source port
  (with update bits, sent in direct mode) when they cross ECUs;
* client-server connectors are synchronous inline calls within an ECU and
  argument-carrying request PDUs across ECUs (void operations only —
  checked by ``SystemModel.validate``);
* every PDU gets a CAN id: ids pinned by ``set_can_id`` are kept, the
  others are numbered from :data:`FIRST_CAN_ID` in PDU-name order.

The plan has three readers: :class:`RteBuilder` instantiates it on a
simulator, ``SystemModel.validate`` runs its frame-size and identifier
rules on it, and :func:`~repro.analysis.system_report.timing_report`
analyses its tasks and frames — so the configuration check and the
timing report see exactly what the runtime deploys.  The rules the
builder itself enforces, :func:`server_runnable_issues` and
:func:`bus_capacity_issue`, are the ones ``validate`` reports, and
:func:`bus_params_issue` refuses, when a bus is configured, a value
:class:`RteBuilder` could not run.

Runnables get the :class:`~repro.core.component.RunnableContext` of the
VFB and its port contract; what the RTE adds is the platform.  Execution
follows implicit (buffered) communication semantics: a task snapshots
its instance's inputs when it *starts* and commits its outputs when it
*completes* — so a runnable's observable I/O happens at the points
timing analysis assumes.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.com import (CanComAdapter, ComStack, DIRECT, FlexRayComAdapter,
                       SignalSpec, TRIGGERED, TteComAdapter,
                       pack_sequentially)
from repro.com.ipdu import IPdu
from repro.core.component import (ComponentInstance, RunnableContext,
                                  deliver)
from repro.core.composition import Endpoint
from repro.core.interface import SenderReceiverInterface
from repro.core.runnable import (DataReceivedEvent, InitEvent,
                                 OperationInvokedEvent, Runnable,
                                 TimingEvent)
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

FIRST_CAN_ID = 0x100
#: TTEthernet defaults of a domain that does not configure them.
TT_PERIOD = us(5_000)
TTE_BITRATE_BPS = 100_000_000
#: The fastest bitrate a bus takes: its bit time is 1 ns.
MAX_BITRATE_BPS = 1_000_000_000


def assign_rm_priorities(explicit: dict[str, int],
                         plan: list) -> dict[str, int]:
    """Priority assignment of one ECU's tasks: explicit overrides win,
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


@dataclass
class PlannedTask:
    """One deployed OS task: the runnable of ``instance`` it runs on
    ``ecu`` and the spec its kernel gets."""

    ecu: str
    instance: ComponentInstance
    runnable: Runnable
    spec: TaskSpec


@dataclass
class PlannedPdu:
    """One generated I-PDU, sent by ``ecu``.

    ``source`` is the sender-receiver port the PDU carries or, for a
    client-server request PDU, the client port calling ``operation``.
    ``targets`` holds each receiving ``(ecu, endpoint)`` in connector
    order: the required ports of a data PDU, the server port of a
    request PDU.  ``bits`` counts the layout's payload bits, update and
    fire bits included."""

    name: str
    ecu: str
    source: Endpoint
    ipdu: IPdu
    bits: int
    targets: list[tuple[str, Endpoint]]
    operation: Optional[str] = None
    #: set by :func:`rte_plan` once every PDU of the system is known.
    can_id: int = 0


@dataclass
class RtePlan:
    """What :class:`RteBuilder` deploys for one system."""

    #: flattened instances by name, in composition order.
    instances: dict[str, ComponentInstance]
    #: tasks in ECU declaration order, then instance and runnable order.
    tasks: list[PlannedTask]
    #: PDUs by name, in name order.
    pdus: dict[str, PlannedPdu]
    #: same-ECU sender-receiver connectors, in connector order.
    local_routes: list[tuple[Endpoint, Endpoint]]
    #: client endpoint -> server endpoint, for every client-server
    #: connector.
    servers: dict[Endpoint, Endpoint]


def rte_plan(system) -> RtePlan:
    """Derive the tasks, PDUs and routes the RTE deploys for ``system``.

    Pure: nothing is built or simulated.  Instances not mapped onto a
    declared ECU, and connectors touching them, are left out (that is a
    configuration issue ``SystemModel.validate`` reports)."""
    instances, connectors = system.root.flatten()
    by_name = {instance.name: instance for instance in instances}
    ecu_of = {name: system.mapping[name] for name in by_name
              if system.mapping.get(name) in system.ecus}
    local_routes, servers = [], {}
    sr_targets: dict[Endpoint, list] = {}
    requests = []
    for connector in connectors:
        source, target = connector.source, connector.target
        if source.instance not in ecu_of or target.instance not in ecu_of:
            continue
        remote = ecu_of[source.instance] != ecu_of[target.instance]
        interface = by_name[source.instance].port(source.port).interface
        if isinstance(interface, SenderReceiverInterface):
            if remote:
                sr_targets.setdefault(source, []).append(
                    (ecu_of[target.instance], target))
            else:
                local_routes.append((source, target))
        else:
            # Connector direction is provided -> required, so for
            # client-server the source is the server, the target the
            # client.
            servers[target] = source
            if remote:
                requests.append((target, source, interface))

    def pdu(name, source, specs, update_bits, targets, operation=None):
        bits = sum(spec.width_bits for spec in specs)
        bits += len(specs) if update_bits else 0
        return PlannedPdu(name, ecu_of[source.instance], source,
                          pack_sequentially(name, (bits + 7) // 8, specs,
                                            with_update_bits=update_bits),
                          bits, targets, operation)

    pdus = []
    for source, targets in sr_targets.items():
        elements = by_name[source.instance].port(source.port) \
            .interface.elements
        pdus.append(pdu(str(source), source, [
            SignalSpec(f"{source}.{element}", dtype.width_bits,
                       initial=dtype.initial, transfer=TRIGGERED)
            for element, dtype in sorted(elements.items())], True,
            targets))
    for client, server, interface in requests:
        for op_name, op in sorted(interface.operations.items()):
            name = f"cs.{client}.{op_name}"
            specs = [SignalSpec(f"{name}.{arg}", dtype.width_bits)
                     for arg, dtype in sorted(op.args.items())]
            specs.append(SignalSpec(f"{name}.fire", 1))
            pdus.append(pdu(name, client, specs, False,
                            [(ecu_of[server.instance], server)], op_name))
    pdus.sort(key=lambda planned: planned.name)
    pinned = system.can_ids
    used = set(pinned.values())
    free = (can_id for can_id in itertools.count(FIRST_CAN_ID)
            if can_id not in used)
    for planned in pdus:
        planned.can_id = pinned[planned.name] if planned.name in pinned \
            else next(free)

    on_ecu: dict[str, list] = {}
    for instance in instances:
        if instance.name in ecu_of:
            on_ecu.setdefault(ecu_of[instance.name], []).extend(
                (instance, runnable)
                for runnable in instance.component.runnables)
    tasks = []
    for ecu_name, ecu in system.ecus.items():
        runnables = on_ecu.get(ecu_name, [])
        priorities = assign_rm_priorities(
            ecu.priorities,
            [(instance.name, runnable) for instance, runnable in runnables])
        for instance, runnable in runnables:
            name = f"{instance.name}.{runnable.name}"
            fields = dict(wcet=runnable.wcet, priority=priorities[name],
                          partition=ecu.partitions.get(name),
                          budget=ecu.budgets.get(name))
            trigger = runnable.trigger
            if isinstance(trigger, TimingEvent):
                spec = TaskSpec(name, period=trigger.period,
                                offset=trigger.offset, **fields)
            else:
                spec = TaskSpec(name, max_activations=SPORADIC_QUEUE,
                                **fields)
            tasks.append(PlannedTask(ecu_name, instance, runnable, spec))
    return RtePlan(by_name, tasks, {planned.name: planned for planned in pdus},
                   local_routes, servers)


def flexray_static_slots(params: dict, n_pdus: int) -> int:
    """Static slots of a FlexRay domain sending ``n_pdus`` PDUs: as
    configured, else one per PDU (at least two)."""
    return params.get("n_static_slots", max(2, n_pdus))


def flexray_config(params: dict, n_pdus: int) -> FlexRayConfig:
    """The cluster of a FlexRay domain sending ``n_pdus`` PDUs: 100 µs
    static slots unless configured, and :func:`flexray_static_slots`."""
    return FlexRayConfig(**{
        "slot_length": us(100), **params,
        "n_static_slots": flexray_static_slots(params, n_pdus)})


def tt_stream_slot(params: dict) -> int:
    """Window each TT stream of a TTEthernet domain gets (ns): twice a
    minimum frame's transmission time."""
    return ethernet_frame_time(
        64, params.get("bitrate_bps", TTE_BITRATE_BPS)) * 2


def bus_params_issue(kind: Optional[str], params: dict) -> Optional[str]:
    """The issue when a bus of ``kind`` cannot run on ``params``, else
    None: each bitrate has a bit time of 1 ns or more, a TTEthernet
    switch delay is not negative and its period positive, and a FlexRay
    cluster is one :class:`~repro.network.FlexRayConfig` accepts."""
    bitrate = params.get("bitrate_bps", MAX_BITRATE_BPS)
    if not 1 <= bitrate <= MAX_BITRATE_BPS:
        return (f"bitrate_bps {bitrate} is outside 1..{MAX_BITRATE_BPS} "
                f"(a bit time of at least 1 ns)")
    if params.get("switch_delay", 0) < 0:
        return f"switch_delay {params['switch_delay']} is negative"
    if params.get("tt_period", 1) <= 0:
        return f"tt_period {params['tt_period']} is not positive"
    if kind == "flexray":
        try:
            flexray_config(params, 0)
        except ConfigurationError as error:
            given = ", ".join(f"{name} {value}"
                              for name, value in sorted(params.items()))
            return f"FlexRay {given}: {error}"
    return None


def bus_capacity_issue(domain: str, kind: Optional[str], params: dict,
                       n_pdus: int) -> Optional[str]:
    """The issue when a domain's bus cannot carry the ``n_pdus`` PDUs
    its ECUs send, else None: FlexRay gives each PDU a static slot,
    TTEthernet a stream window inside the TT period."""
    if kind == "flexray":
        slots = flexray_static_slots(params, n_pdus)
        if slots < n_pdus:
            return (f"domain {domain!r}: FlexRay needs >= {n_pdus} "
                    f"static slots, configured {slots}")
    elif kind == "tte":
        period = params.get("tt_period", TT_PERIOD)
        if n_pdus * tt_stream_slot(params) > period:
            return (f"domain {domain!r}: {n_pdus} TT streams do not fit "
                    f"a {period} ns period")
    return None


def server_runnable_issues(plan: RtePlan) -> list[str]:
    """One issue per operation of a connected server port that no
    runnable of the server handles, whether its clients share its ECU
    (a synchronous call) or not (a request PDU)."""
    issues = []
    for server in dict.fromkeys(plan.servers.values()):
        instance = plan.instances[server.instance]
        for operation in sorted(instance.port(server.port)
                                .interface.operations):
            if instance.component.server_runnable(server.port,
                                                  operation) is None:
                issues.append(f"server {server.instance} declares no "
                              f"runnable for {server.port}.{operation}")
    return issues


class _EcuRuntime:
    """Runtime state of one deployed ECU."""

    def __init__(self, spec, kernel: EcuKernel):
        self.spec = spec
        self.kernel = kernel
        self.com: Optional[ComStack] = None
        self.instances: dict[str, ComponentInstance] = {}
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
        #: element tables, contexts and client-server routes of the
        #: port contract (see RunnableContext).
        self.buffers: dict[tuple[str, str, str], int] = {}
        self.queues: dict[tuple[str, str, str], deque] = {}
        self.contexts: dict[str, RunnableContext] = {}
        self.servers: dict[Endpoint, Endpoint] = {}
        #: (src_instance, port) -> same-ECU delivery targets.
        self._local_routes: dict[tuple[str, str], list[Endpoint]] = {}
        #: (src_instance, port) pairs whose writes go out over COM.
        self._com_tx: set[tuple[str, str]] = set()
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
        return self.buffers[(instance, port, element)]

    def queue_depth(self, instance: str, port: str, element: str) -> int:
        """Pending entries of a queued element's FIFO."""
        return len(self.queues[(instance, port, element)])

    def response_times(self, task_name: str) -> list[int]:
        """Observed response times of a deployed task."""
        return [r.data["response"]
                for r in self.trace.records("task.complete", task_name)]

    def deadline_misses(self, task_name: Optional[str] = None) -> int:
        """Count of deadline-miss records (optionally for one task)."""
        return len(self.trace.records("task.deadline_miss", task_name))

    # ------------------------------------------------------------------
    # The platform's part of a write and of a call
    # ------------------------------------------------------------------
    def _write(self, key: tuple[str, str, str], value: int) -> None:
        """Deliver a checked write to its same-ECU receivers and hand
        it to COM when the port is sent over the bus."""
        source = key[:2]
        ecu = self.ecu_of(key[0])
        signal = ".".join(key)
        self.trace.log(self.sim.now, "rte.write", signal, value=value)
        self._deliver(ecu, self._local_routes.get(source, ()), key[2], value)
        if source in self._com_tx:
            ecu.com.write_signal(signal, value)

    def _deliver(self, ecu: _EcuRuntime, targets, element: str,
                 value: int) -> None:
        """Deliver ``element``'s value to each target port on ``ecu``,
        activating the tasks each delivery triggers."""
        for target in targets:
            key = (target.instance, target.port, element)
            if not deliver(self.buffers, self.queues, key, value):
                self.queue_overflows += 1
                self.trace.log(self.sim.now, "rte.queue_overflow",
                               f"{target}.{element}")
            for task in ecu.data_tasks.get(key, []):
                ecu.kernel.activate(task)

    def _call(self, client: Endpoint, server: Endpoint, op, args: dict):
        """Run a checked call inline when the server shares the
        client's ECU, else send its request PDU (a void operation)."""
        ecu = self.ecu_of(client.instance)
        if ecu is self.ecu_of(server.instance):
            runnable = ecu.instances[server.instance].component \
                .server_runnable(server.port, op.name)
            self.trace.log(self.sim.now, "rte.call_local",
                           f"{server}.{op.name}")
            return runnable.function(self.contexts[server.instance], **args)
        pdu_name = f"cs.{client}.{op.name}"
        for arg_name, value in args.items():
            ecu.com.write_signal(f"{pdu_name}.{arg_name}", value)
        ecu.com.write_signal(f"{pdu_name}.fire", 1)
        self.trace.log(self.sim.now, "rte.call_remote", f"{client}.{op.name}")
        ecu.com.send_pdu(pdu_name)
        return None

    def __repr__(self) -> str:
        return f"<SystemRuntime {self.system.name} ecus={sorted(self.ecus)}>"


#: Bus kind -> the parameters its builder reads (``None``: no bus).
BUS_PARAMS = {
    "can": ("bitrate_bps",),
    "tte": ("bitrate_bps", "tt_period", "switch_delay"),
    "flexray": ("slot_length", "n_static_slots", "minislot_length",
                "n_minislots", "nit_length", "bitrate_bps"),
    None: (),
}
#: Processing delay of the central gateway between CAN domains.
GATEWAY_DELAY = us(100)


class RteBuilder:
    """Instantiates the :func:`rte_plan` of one system model."""

    def __init__(self, system):
        self.system = system

    # ------------------------------------------------------------------
    def build(self, sim, trace: Optional[Trace] = None) -> SystemRuntime:
        """Generate kernels, COM, buses and tasks; returns the runtime."""
        trace = trace if trace is not None else Trace()
        plan = rte_plan(self.system)
        issues = server_runnable_issues(plan)
        if issues:
            raise ConfigurationError(issues[0])
        runtime = SystemRuntime(self.system, sim, trace)
        runtime._instance_ecu = dict(self.system.mapping)

        for name, spec in self.system.ecus.items():
            kernel = EcuKernel(sim, spec.scheduler_factory(), trace=trace,
                               name=name)
            runtime.ecus[name] = _EcuRuntime(spec, kernel)
        for instance in plan.instances.values():
            runtime.ecu_of(instance.name).instances[instance.name] = instance
            instance.add_elements(runtime.buffers, runtime.queues)
            runtime.contexts[instance.name] = RunnableContext(runtime,
                                                              instance)

        for source, target in plan.local_routes:
            runtime._local_routes.setdefault(
                (source.instance, source.port), []).append(target)
        runtime.servers = plan.servers
        if plan.pdus:
            self._build_bus(sim, runtime, trace, plan)
        for task in plan.tasks:
            self._add_task(runtime, runtime.ecus[task.ecu], task)
        return runtime

    # ------------------------------------------------------------------
    def _build_bus(self, sim, runtime, trace, plan: RtePlan) -> None:
        adapters = self._make_bus_and_adapters(sim, runtime, trace,
                                               plan.pdus)
        for ecu_name, ecu in runtime.ecus.items():
            if ecu_name in adapters:
                ecu.com = ComStack(sim, adapters[ecu_name], ecu_name,
                                   trace)
        for pdu in plan.pdus.values():
            runtime.ecus[pdu.ecu].com.add_tx_pdu(pdu.ipdu, mode=DIRECT)
            per_ecu: dict[str, list[Endpoint]] = {}
            for ecu_name, target in pdu.targets:
                per_ecu.setdefault(ecu_name, []).append(target)
            for ecu_name in sorted(per_ecu):
                runtime.ecus[ecu_name].com.add_rx_pdu(pdu.ipdu)
            if pdu.operation is not None:
                self._dispatch_remote_calls(runtime, plan, pdu)
                continue
            runtime._com_tx.add((pdu.source.instance, pdu.source.port))
            for mapping in pdu.ipdu.mappings:
                element = mapping.spec.name.rsplit(".", 1)[1]
                for ecu_name, targets in per_ecu.items():
                    ecu = runtime.ecus[ecu_name]
                    ecu.com.on_signal(
                        mapping.spec.name,
                        lambda value, e=ecu, ts=targets, el=element:
                        runtime._deliver(e, ts, el, value))

    def _dispatch_remote_calls(self, runtime, plan: RtePlan,
                               pdu: PlannedPdu) -> None:
        """Queue each request ``pdu`` brings for its server's task."""
        (ecu_name, server), = pdu.targets
        ecu = runtime.ecus[ecu_name]
        runnable = plan.instances[server.instance].component \
            .server_runnable(server.port, pdu.operation)
        task_name = f"{server.instance}.{runnable.name}"
        arg_names = [mapping.spec.name for mapping in pdu.ipdu.mappings[:-1]]

        def enqueue(value):
            kwargs = {name.rsplit(".", 1)[1]: ecu.com.read_signal(name)
                      for name in arg_names}
            ecu.call_queues.setdefault(task_name, deque()).append(kwargs)
            ecu.kernel.activate(ecu.kernel.tasks[task_name])

        ecu.com.on_signal(f"{pdu.name}.fire", enqueue)

    def _make_bus_and_adapters(self, sim, runtime, trace, pdus):
        """Build one bus per configured domain, adapters per ECU, and —
        for PDUs whose receivers live in other (CAN) domains — a central
        gateway with the required routes."""
        domain_of = {name: spec.domain
                     for name, spec in self.system.ecus.items()}
        domains = sorted({domain_of[name] for name in runtime.ecus})
        frame_spec_of = {
            pdu.name: CanFrameSpec(pdu.name, pdu.can_id,
                                   dlc=min(8, pdu.ipdu.size_bytes))
            for pdu in pdus.values()}

        adapters: dict[str, object] = {}
        can_buses: dict[str, CanBus] = {}
        for domain in domains:
            kind, params = self.system.domain_buses.get(domain,
                                                        (None, {}))
            members = [name for name in sorted(runtime.ecus)
                       if domain_of[name] == domain]
            domain_pdus = [pdu for pdu in pdus.values()
                           if domain_of[pdu.ecu] == domain]
            if kind is None:
                if domain_pdus:
                    raise ConfigurationError(
                        f"domain {domain!r} has bus traffic but no bus")
                continue
            issue = bus_capacity_issue(domain, kind, params,
                                       len(domain_pdus))
            if issue is not None:
                raise ConfigurationError(issue)
            if kind == "can":
                bus = CanBus(sim, params.get("bitrate_bps", 500_000),
                             trace=trace, name=f"CAN:{domain}")
                can_buses[domain] = bus
                runtime.buses[domain] = bus
                for ecu_name in members:
                    specs = {pdu.name: frame_spec_of[pdu.name]
                             for pdu in domain_pdus if pdu.ecu == ecu_name}
                    adapters[ecu_name] = CanComAdapter(
                        bus.attach(ecu_name), specs)
            elif kind == "tte":
                tt_period = params.get("tt_period", TT_PERIOD)
                switch = TtEthernetSwitch(
                    sim,
                    bitrate_bps=params.get("bitrate_bps", TTE_BITRATE_BPS),
                    switch_delay=params.get("switch_delay", us(2)),
                    trace=trace, name=f"TTE:{domain}")
                runtime.buses[domain] = switch
                for ecu_name in members:
                    switch.attach(ecu_name)
                slot = tt_stream_slot(params)
                tx_of: dict[str, set] = {name: set() for name in members}
                rx_of: dict[str, set] = {name: set() for name in members}
                for index, pdu in enumerate(domain_pdus):
                    receivers = sorted({ecu for ecu, __ in pdu.targets})
                    switch.schedule_tt(TtFrameSpec(
                        pdu.name, pdu.ecu, receivers,
                        offset=index * slot, period=tt_period,
                        size_bytes=max(46, pdu.ipdu.size_bytes)))
                    tx_of[pdu.ecu].add(pdu.name)
                    for receiver in receivers:
                        rx_of[receiver].add(pdu.name)
                for ecu_name in members:
                    adapters[ecu_name] = TteComAdapter(
                        switch, ecu_name, tx_of[ecu_name],
                        rx_of[ecu_name])
                switch.start()
            else:  # flexray
                bus = FlexRayBus(sim,
                                 flexray_config(params, len(domain_pdus)),
                                 trace=trace, name=f"FR:{domain}")
                runtime.buses[domain] = bus
                controllers = {name: bus.attach(name) for name in members}
                slot_maps: dict[str, dict] = {name: {} for name in members}
                for slot, pdu in enumerate(domain_pdus, start=1):
                    bus.assign_slot(StaticSlotAssignment(slot, pdu.ecu,
                                                         pdu.name))
                    slot_maps[pdu.ecu][pdu.name] = slot
                for ecu_name in members:
                    adapters[ecu_name] = FlexRayComAdapter(
                        controllers[ecu_name], slot_maps[ecu_name])
                bus.start()

        self._build_gateway(sim, runtime, trace, pdus, domain_of,
                            can_buses, frame_spec_of)
        if len(runtime.buses) == 1:
            runtime.bus = next(iter(runtime.buses.values()))
        return adapters

    def _build_gateway(self, sim, runtime, trace, pdus, domain_of,
                       can_buses, frame_spec_of):
        """Route cross-domain PDUs through one central gateway."""
        routes: dict[str, tuple[str, set]] = {}
        for pdu in pdus.values():
            src_domain = domain_of[pdu.ecu]
            destinations = {domain_of[ecu]
                            for ecu, __ in pdu.targets} - {src_domain}
            if destinations:
                routes[pdu.name] = (src_domain, destinations)
        if not routes:
            return
        from repro.bsw.gateway import CanGateway
        needed_domains = set()
        for src_domain, destinations in routes.values():
            needed_domains.add(src_domain)
            needed_domains |= destinations
        missing = needed_domains - set(can_buses)
        if missing:
            raise ConfigurationError(
                f"cross-domain routing needs CAN buses in domains "
                f"{sorted(missing)}")
        gateway = CanGateway(
            sim, "CGW", {d: can_buses[d] for d in sorted(needed_domains)},
            processing_delay=GATEWAY_DELAY, trace=trace)
        runtime.gateway = gateway
        for pdu_name, (src_domain, destinations) in routes.items():
            gateway.route(pdu_name, src_domain,
                          {d: frame_spec_of[pdu_name]
                           for d in sorted(destinations)})

    # ------------------------------------------------------------------
    def _add_task(self, runtime, ecu: _EcuRuntime,
                  task: PlannedTask) -> None:
        instance, runnable = task.instance, task.runnable
        task_name = task.spec.name
        trigger = runnable.trigger
        context = runtime.contexts[instance.name]
        is_server = isinstance(trigger, OperationInvokedEvent)
        buffers = runtime.buffers
        keys = [key for key in buffers if key[0] == instance.name]

        def on_start(job):
            context.snapshot = {key: buffers[key] for key in keys}

        def on_complete(job):
            try:
                if is_server:
                    queue = ecu.call_queues.get(task_name)
                    kwargs = queue.popleft() if queue else {}
                    runnable.function(context, **kwargs)
                else:
                    runnable.function(context)
            finally:
                context.snapshot = None

        kernel_task = ecu.kernel.add_task(task.spec, on_start=on_start,
                                          on_complete=on_complete)
        if isinstance(trigger, DataReceivedEvent):
            key = (instance.name, trigger.port, trigger.element)
            ecu.data_tasks.setdefault(key, []).append(kernel_task)
        elif isinstance(trigger, InitEvent):
            runtime.sim.schedule(0, lambda: ecu.kernel.activate(kernel_task))
