"""Basic software services: modes, error handling, NVRAM, watchdog,
network management, diagnostics, gateway (the Figure 1 boxes)."""

from repro.bsw.diag import (CLEAR_DTC, DiagnosticServer, NEGATIVE_RESPONSE,
                            READ_DATA, READ_DTC)
from repro.bsw.errors import (ErrorEvent, ErrorManager, FAILED, PASSED,
                              SEVERITY_HIGH, SEVERITY_LOW, SEVERITY_MEDIUM)
from repro.bsw.gateway import CanGateway, FlexRayCanGateway
from repro.bsw.modes import ModeMachine
from repro.bsw.recovery import (LEVEL_DEGRADE, LEVEL_NONE, LEVEL_RESTART,
                                LEVEL_SUBSTITUTE, RecoveryOrchestrator,
                                RecoveryPolicy)
from repro.bsw.netmgmt import (AWAKE, BUS_SLEEP, NmCluster, NmNode,
                               READY_TO_SLEEP)
from repro.bsw.nvram import NvBlock, NvramManager
from repro.bsw.watchdog import SupervisedEntity, WatchdogManager

__all__ = [
    "CLEAR_DTC", "DiagnosticServer", "NEGATIVE_RESPONSE", "READ_DATA",
    "READ_DTC",
    "ErrorEvent", "ErrorManager", "FAILED", "PASSED", "SEVERITY_HIGH",
    "SEVERITY_LOW", "SEVERITY_MEDIUM",
    "CanGateway", "FlexRayCanGateway", "ModeMachine",
    "LEVEL_DEGRADE", "LEVEL_NONE", "LEVEL_RESTART", "LEVEL_SUBSTITUTE",
    "RecoveryOrchestrator", "RecoveryPolicy",
    "AWAKE", "BUS_SLEEP", "NmCluster", "NmNode", "READY_TO_SLEEP",
    "NvBlock", "NvramManager", "SupervisedEntity", "WatchdogManager",
]
