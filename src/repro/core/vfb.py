"""Virtual Functional Bus: deployment-independent execution.

"From an abstract point of view the RTE is the run-time implementation of
the Virtual Functional Bus on a specific ECU" (paper, Section 2).  The VFB
is therefore the reference semantics: components communicate instantly,
with no ECUs, buses or scheduling.  Running an application here validates
its *functional* wiring; deploying the identical component code through
:mod:`repro.core.rte` adds the platform timing.  Both runtimes hand
runnables the one :class:`~repro.core.component.RunnableContext` and
share its port contract; this module holds only what the VFB adds.

Semantics: runnable executions are atomic and instantaneous in virtual
time; a write on a provided sender-receiver port immediately updates all
connected receiver buffers and activates their ``DataReceivedEvent``
runnables; a client-server call synchronously invokes the server runnable.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import CompositionError
from repro.core.component import (ComponentInstance, RunnableContext,
                                  deliver)
from repro.core.composition import Composition, Endpoint
from repro.core.interface import SenderReceiverInterface
from repro.core.runnable import (DataReceivedEvent, InitEvent, Runnable,
                                 TimingEvent)
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace


class VfbSimulation:
    """Executes a composition directly on the event kernel."""

    def __init__(self, sim: Simulator, composition: Composition,
                 trace: Optional[Trace] = None):
        self.sim = sim
        self.trace = trace if trace is not None else Trace()
        instances, connectors = composition.flatten()
        self.instances: dict[str, ComponentInstance] = {
            i.name: i for i in instances}
        self.connectors = connectors
        #: element tables, contexts and client-server routes of the
        #: port contract (see RunnableContext).
        self.buffers: dict[tuple[str, str, str], int] = {}
        self.queues: dict[tuple[str, str, str], deque] = {}
        self.contexts: dict[str, RunnableContext] = {}
        self.servers: dict[Endpoint, Endpoint] = {}
        self.queue_overflows = 0
        self.runnable_executions = 0
        self._sr_routes: dict[Endpoint, list[Endpoint]] = {}
        self._data_triggers: dict[tuple[str, str, str], list[tuple]] = {}
        for name, instance in self.instances.items():
            instance.add_elements(self.buffers, self.queues)
            self.contexts[name] = RunnableContext(self, instance)
            for runnable in instance.component.runnables:
                trigger = runnable.trigger
                if isinstance(trigger, DataReceivedEvent):
                    key = (name, trigger.port, trigger.element)
                    self._data_triggers.setdefault(key, []).append(
                        (instance, runnable))
        for connector in self.connectors:
            sport = self.instances[connector.source.instance].port(
                connector.source.port)
            if isinstance(sport.interface, SenderReceiverInterface):
                self._sr_routes.setdefault(connector.source, []).append(
                    connector.target)
            else:
                self.servers[connector.target] = connector.source

    def start(self) -> None:
        """Schedule Init and Timing runnables; call before running the
        simulator."""
        for name, instance in self.instances.items():
            for runnable in instance.component.runnables:
                trigger = runnable.trigger
                if isinstance(trigger, InitEvent):
                    self.sim.schedule(
                        0, lambda i=instance, r=runnable: self._execute(i, r))
                elif isinstance(trigger, TimingEvent):
                    self._schedule_timing(instance, runnable, trigger)

    def _schedule_timing(self, instance, runnable, trigger) -> None:
        def fire():
            self._execute(instance, runnable)
            self.sim.schedule(trigger.period, fire)

        self.sim.schedule(trigger.offset, fire)

    # ------------------------------------------------------------------
    def _execute(self, instance: ComponentInstance,
                 runnable: Runnable) -> None:
        self.runnable_executions += 1
        self.trace.log(self.sim.now, "vfb.runnable",
                       f"{instance.name}.{runnable.name}")
        runnable.function(self.contexts[instance.name])

    def _write(self, key: tuple[str, str, str], value: int) -> None:
        """Deliver a checked write to every receiver at once and run
        their data-triggered runnables."""
        instance, port, element = key
        source = Endpoint(instance, port)
        self.trace.log(self.sim.now, "vfb.write", f"{source}.{element}",
                       value=value)
        for target in self._sr_routes.get(source, []):
            target_key = (target.instance, target.port, element)
            if not deliver(self.buffers, self.queues, target_key, value):
                self.queue_overflows += 1
                self.trace.log(self.sim.now, "vfb.queue_overflow",
                               f"{target}.{element}")
            for receiver, runnable in self._data_triggers.get(target_key,
                                                              []):
                self._execute(receiver, runnable)

    def _call(self, client: Endpoint, server: Endpoint, op, args: dict):
        """Run a checked call's server runnable synchronously."""
        instance = self.instances[server.instance]
        runnable = instance.component.server_runnable(server.port, op.name)
        if runnable is None:
            raise CompositionError(
                f"server {server.instance} declares no runnable for "
                f"{server.port}.{op.name}")
        self.runnable_executions += 1
        self.trace.log(self.sim.now, "vfb.call",
                       f"{client} -> {server}.{op.name}")
        return runnable.function(self.contexts[server.instance], **args)

    # ------------------------------------------------------------------
    def value_of(self, instance: str, port: str, element: str) -> int:
        """Inspect a port buffer (testing/monitoring)."""
        return self.buffers[(instance, port, element)]

    def queue_depth(self, instance: str, port: str, element: str) -> int:
        """Pending entries of a queued element's FIFO."""
        return len(self.queues[(instance, port, element)])

    def __repr__(self) -> str:
        return f"<VfbSimulation instances={len(self.instances)}>"
