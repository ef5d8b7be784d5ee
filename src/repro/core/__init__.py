"""AUTOSAR-like component model: SWCs, VFB, RTE, system configuration."""

from repro.core.component import (ComponentInstance, RunnableContext,
                                  SwComponent)
from repro.core.composition import (Composition, CompositionInstance,
                                    Connector, DelegationPort, Endpoint)
from repro.core.conformance import (ConformanceReport,
                                    check_transferability)
from repro.core.ecu import EcuSpec
from repro.core.interface import (ClientServerInterface, Operation,
                                  SenderReceiverInterface)
from repro.core.port import PROVIDED, Port, REQUIRED
from repro.core.rte import RteBuilder, SystemRuntime
from repro.core.runnable import (DataReceivedEvent, InitEvent,
                                 OperationInvokedEvent, Runnable,
                                 TimingEvent)
from repro.core.system import SystemModel
from repro.core.types import BOOL, DataType, UINT8, UINT16, UINT32
from repro.core.vfb import VfbSimulation

__all__ = [
    "ComponentInstance", "RunnableContext", "SwComponent",
    "Composition", "CompositionInstance", "Connector", "DelegationPort",
    "Endpoint",
    "ConformanceReport", "check_transferability",
    "EcuSpec",
    "ClientServerInterface", "Operation", "SenderReceiverInterface",
    "PROVIDED", "Port", "REQUIRED",
    "RteBuilder", "SystemRuntime",
    "DataReceivedEvent", "InitEvent", "OperationInvokedEvent", "Runnable",
    "TimingEvent",
    "SystemModel",
    "BOOL", "DataType", "UINT8", "UINT16", "UINT32",
    "VfbSimulation",
]
