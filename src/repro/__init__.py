"""repro — reproduction of "Software Components for Reliable Automotive
Systems" (Heinecke et al., DATE 2008).

The library provides, at simulation fidelity:

* an AUTOSAR-like component model (SWCs, VFB, RTE) — :mod:`repro.core`;
* rich contract-based interfaces with vertical assumptions —
  :mod:`repro.contracts`;
* an OSEK-like OS with fixed-priority, TDMA and reservation scheduling —
  :mod:`repro.osek`;
* CAN / FlexRay / TTP / TT-Ethernet communication — :mod:`repro.network`;
* signal/frame COM services — :mod:`repro.com`;
* distributed schedulability and end-to-end latency analysis —
  :mod:`repro.analysis`;
* MPSoC/NoC execution platforms — :mod:`repro.noc`;
* fault injection and containment monitors — :mod:`repro.faults`;
* basic software services (modes, error handling, NVRAM, watchdog,
  network management, diagnostics) — :mod:`repro.bsw`;
* design-space exploration (allocation, priorities, frame packing,
  federated-to-integrated consolidation) — :mod:`repro.dse`;
* a legacy CAN overlay on time-triggered platforms — :mod:`repro.legacy`.
"""

from repro import units
from repro.errors import (AnalysisError, CompositionError, ConfigurationError,
                          ContractError, ProtocolError, ReproError,
                          SchedulingError, SimulationError)

__version__ = "1.0.0"

__all__ = [
    "units", "ReproError", "ConfigurationError", "SimulationError",
    "SchedulingError", "AnalysisError", "ContractError", "CompositionError",
    "ProtocolError",
]
