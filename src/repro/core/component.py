"""Software component types and instances, and their port contract.

An :class:`SwComponent` is a component *type*: ports, runnables, and an
optional rich contract (attached by :mod:`repro.contracts`).  Types are
instantiated into :class:`ComponentInstance` prototypes that carry
per-instance state and live inside compositions or systems — the same
type can appear many times (e.g. one wheel-speed SWC per corner).

The port contract is defined here once for the VFB and every deployed
RTE, the two runtimes of :class:`RunnableContext`: an instance's element
tables and its write and call checks (:class:`ComponentInstance`),
delivery into a buffer or a FIFO of :data:`QUEUE_LENGTH`
(:func:`deliver`), and the ``ctx`` object runnable code is handed.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.errors import CompositionError, ConfigurationError
from repro.core.interface import (ClientServerInterface, Operation,
                                  SenderReceiverInterface)
from repro.core.port import Endpoint, PROVIDED, Port, REQUIRED
from repro.core.runnable import (DataReceivedEvent, OperationInvokedEvent,
                                 Runnable)

#: FIFO depth of queued sender-receiver elements; a value delivered to a
#: full FIFO is discarded (AUTOSAR's queued-communication overflow rule).
QUEUE_LENGTH = 16


class SwComponent:
    """An atomic software component type."""

    def __init__(self, name: str):
        self.name = name
        self.ports: dict[str, Port] = {}
        self.runnables: list[Runnable] = []
        self.contract = None  # attached by repro.contracts.rich_component

    # ------------------------------------------------------------------
    # Construction API
    # ------------------------------------------------------------------
    def provide(self, name: str, interface) -> Port:
        """Add a provided port (data sender / operation server)."""
        return self._add_port(name, interface, PROVIDED)

    def require(self, name: str, interface) -> Port:
        """Add a required port (data receiver / operation client)."""
        return self._add_port(name, interface, REQUIRED)

    def _add_port(self, name: str, interface, direction: str) -> Port:
        if name in self.ports:
            raise ConfigurationError(
                f"component {self.name}: duplicate port {name!r}")
        port = Port(name, interface, direction)
        self.ports[name] = port
        return port

    def runnable(self, name: str, trigger, function: Callable,
                 wcet: int = 1_000, writes=None) -> Runnable:
        """Add a runnable; trigger and declared write accesses are
        validated against the ports."""
        if any(r.name == name for r in self.runnables):
            raise ConfigurationError(
                f"component {self.name}: duplicate runnable {name!r}")
        self._check_trigger(name, trigger)
        runnable = Runnable(name, trigger, function, wcet, writes)
        for port_name, element in runnable.writes:
            port = self.ports.get(port_name)
            if (port is None or not port.is_provided
                    or not isinstance(port.interface,
                                      SenderReceiverInterface)
                    or element not in port.interface.elements):
                raise ConfigurationError(
                    f"runnable {name}: declared write "
                    f"{port_name}.{element} does not match a provided "
                    f"sender-receiver element")
        self.runnables.append(runnable)
        return runnable

    def writer_of(self, port_name: str, element: str):
        """The runnable declared (or inferred) to write an element.

        Inference: with a single runnable on the component, it is assumed
        to write every provided element.  Returns None when no writer can
        be established — the timing report flags that as missing
        template data.
        """
        for runnable in self.runnables:
            if (port_name, element) in runnable.writes:
                return runnable
        if len(self.runnables) == 1:
            return self.runnables[0]
        return None

    def _check_trigger(self, runnable_name: str, trigger) -> None:
        if isinstance(trigger, DataReceivedEvent):
            port = self.ports.get(trigger.port)
            if port is None or not port.is_required:
                raise ConfigurationError(
                    f"runnable {runnable_name}: DataReceivedEvent needs an "
                    f"R-port, {trigger.port!r} is not one")
            if not isinstance(port.interface, SenderReceiverInterface) \
                    or trigger.element not in port.interface.elements:
                raise ConfigurationError(
                    f"runnable {runnable_name}: port {trigger.port!r} has "
                    f"no element {trigger.element!r}")
        elif isinstance(trigger, OperationInvokedEvent):
            port = self.ports.get(trigger.port)
            if port is None or not port.is_provided:
                raise ConfigurationError(
                    f"runnable {runnable_name}: OperationInvokedEvent needs "
                    f"a P-port, {trigger.port!r} is not one")
            if not isinstance(port.interface, ClientServerInterface) \
                    or trigger.operation not in port.interface.operations:
                raise ConfigurationError(
                    f"runnable {runnable_name}: port {trigger.port!r} has "
                    f"no operation {trigger.operation!r}")

    # ------------------------------------------------------------------
    def server_runnable(self, port_name: str, operation: str
                        ) -> Optional[Runnable]:
        """The runnable handling an operation invocation, if declared."""
        for runnable in self.runnables:
            trigger = runnable.trigger
            if (isinstance(trigger, OperationInvokedEvent)
                    and trigger.port == port_name
                    and trigger.operation == operation):
                return runnable
        return None

    def instantiate(self, instance_name: str) -> "ComponentInstance":
        """Create a named instance (prototype) of this component type."""
        return ComponentInstance(instance_name, self)

    def __repr__(self) -> str:
        return (f"<SwComponent {self.name} ports={sorted(self.ports)} "
                f"runnables={len(self.runnables)}>")


class ComponentInstance:
    """One occurrence of a component type in a composition or system."""

    def __init__(self, name: str, component: SwComponent):
        self.name = name
        self.component = component
        self.state: dict = {}

    @property
    def ports(self) -> dict[str, Port]:
        """The component type's port table (shared, read-only use)."""
        return self.component.ports

    def port(self, name: str) -> Port:
        """Look up a port by name (CompositionError when absent)."""
        port = self.component.ports.get(name)
        if port is None:
            raise CompositionError(
                f"instance {self.name}: component {self.component.name} "
                f"has no port {name!r}")
        return port

    def add_elements(self, buffers: dict, queues: dict) -> None:
        """Add this instance's element tables, keyed ``(instance, port,
        element)``: a buffer holding the initial value per state
        element, an empty FIFO per queued element of a required port."""
        for port_name, port in self.ports.items():
            if not isinstance(port.interface, SenderReceiverInterface):
                continue
            for element, dtype in port.interface.elements.items():
                key = (self.name, port_name, element)
                if not port.interface.is_queued(element):
                    buffers[key] = dtype.initial
                elif port.is_required:
                    queues[key] = deque()

    def check_write(self, port_name: str, element: str, value: int) -> None:
        """Refuse a write to anything but an element of a provided
        sender-receiver port, or of a value outside its type's range."""
        port = self.port(port_name)
        if not (port.is_provided
                and isinstance(port.interface, SenderReceiverInterface)):
            raise ConfigurationError(
                f"{self.name}.{port_name} is not a provided "
                f"sender-receiver port")
        dtype = port.interface.elements.get(element)
        if dtype is None:
            raise ConfigurationError(
                f"{self.name}.{port_name} has no element {element!r}")
        dtype.validate(value)

    def check_call(self, port_name: str, operation: str,
                   args: dict) -> Operation:
        """The operation a call through a client port invokes; refuses
        an unknown operation and arguments that do not fit it."""
        port = self.port(port_name)
        if not (port.is_required
                and isinstance(port.interface, ClientServerInterface)):
            raise ConfigurationError(
                f"{self.name}.{port_name} is not a client port")
        op = port.interface.operations.get(operation)
        if op is None:
            raise ConfigurationError(
                f"{self.name}.{port_name} has no operation {operation!r}")
        if set(args) != set(op.args):
            raise ConfigurationError(
                f"call {operation}: expected args {sorted(op.args)}, got "
                f"{sorted(args)}")
        for arg_name, value in args.items():
            op.args[arg_name].validate(value)
        return op

    def __repr__(self) -> str:
        return f"<ComponentInstance {self.name}:{self.component.name}>"


def deliver(buffers: dict, queues: dict, key: tuple, value: int) -> bool:
    """Deliver ``value`` to the element ``key`` of the tables
    :meth:`ComponentInstance.add_elements` fills: append it to the
    element's FIFO, or overwrite its buffer when it has none.  False
    when the FIFO is full and the value is dropped."""
    queue = queues.get(key)
    if queue is None:
        buffers[key] = value
    elif len(queue) < QUEUE_LENGTH:
        queue.append(value)
    else:
        return False
    return True


class RunnableContext:
    """The ``ctx`` a runnable of ``instance`` is handed, on the VFB and on
    a deployed RTE alike: the same component code runs on both.

    ``runtime`` provides ``sim``, the element tables ``buffers`` and
    ``queues`` of every instance, ``servers`` (client endpoint -> server
    endpoint), and the platform's own part of a write and of a call:
    ``_write(key, value)`` delivers a checked write and ``_call(client,
    server, op, args)`` runs a checked call.
    """

    def __init__(self, runtime, instance: ComponentInstance):
        self._runtime = runtime
        self._instance = instance
        #: the instance's buffers as the running job of a deployed task
        #: found them when it started; None outside a job.
        self.snapshot: Optional[dict] = None

    @property
    def now(self) -> int:
        """Current virtual time (ns)."""
        return self._runtime.sim.now

    @property
    def state(self) -> dict:
        """The owning instance's private state dict."""
        return self._instance.state

    def read(self, port: str, element: str) -> int:
        """Current value of a state element (R-port: last received;
        P-port: last written), as of its start during a deployed job."""
        key = (self._instance.name, port, element)
        buffers = self._runtime.buffers
        if key not in buffers:
            if key in self._runtime.queues:
                raise ConfigurationError(
                    f"{self._instance.name}.{port}.{element} is queued; "
                    f"use ctx.receive() instead of ctx.read()")
            raise ConfigurationError(
                f"{self._instance.name}.{port}.{element} is not a "
                f"sender-receiver state element")
        if self.snapshot is not None:
            return self.snapshot[key]
        return buffers[key]

    def receive(self, port: str, element: str):
        """Pop the oldest value from a *queued* element's FIFO (None
        when empty).  Consumption is live, never snapshotted."""
        queue = self._runtime.queues.get((self._instance.name, port,
                                          element))
        if queue is None:
            raise ConfigurationError(
                f"{self._instance.name}.{port}.{element} is not a queued "
                f"element of a required port")
        return queue.popleft() if queue else None

    def write(self, port: str, element: str, value: int) -> None:
        """Write a provided element; the runtime delivers it."""
        self._instance.check_write(port, element, value)
        key = (self._instance.name, port, element)
        buffers = self._runtime.buffers
        if key in buffers:  # a queued element keeps no last value
            buffers[key] = value
        self._runtime._write(key, value)

    def call(self, port: str, operation: str, **args):
        """Invoke an operation through a required client-server port."""
        op = self._instance.check_call(port, operation, args)
        client = Endpoint(self._instance.name, port)
        server = self._runtime.servers.get(client)
        if server is None:
            raise CompositionError(f"{client} is not connected to a server")
        result = self._runtime._call(client, server, op, args)
        if op.returns is not None:
            op.returns.validate(result)
        return result
