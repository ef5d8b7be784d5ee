"""Fault injection and containment monitoring (paper Section 4)."""

from repro.faults.campaign import (CampaignCell, CampaignReport,
                                   CellResult, ReferenceWorld,
                                   reference_cells, run_campaign, run_cell)
from repro.faults.injector import (CanNodeAdapter, ComSignalAdapter,
                                   FaultAdapter, FaultInjector,
                                   IpCoreAdapter, TaskAdapter,
                                   TtpNodeAdapter)
from repro.faults.model import (BABBLING, CORRUPTION, CRASH, FAULT_KINDS,
                                Fault, OMISSION, TIMING_OVERRUN)
from repro.faults.monitor import (DAMAGE_CATEGORIES, DETECTION_CATEGORIES,
                                  containment_violations, judge)

__all__ = [
    "CampaignCell", "CampaignReport", "CellResult", "ReferenceWorld",
    "reference_cells", "run_campaign", "run_cell",
    "CanNodeAdapter", "ComSignalAdapter", "FaultAdapter", "FaultInjector",
    "IpCoreAdapter", "TaskAdapter", "TtpNodeAdapter",
    "BABBLING", "CORRUPTION", "CRASH", "FAULT_KINDS", "Fault", "OMISSION",
    "TIMING_OVERRUN",
    "DAMAGE_CATEGORIES", "DETECTION_CATEGORIES", "containment_violations",
    "judge",
]
