"""Automotive communication substrates.

Event-triggered: :mod:`repro.network.can`.
Time-triggered: :mod:`repro.network.flexray`, :mod:`repro.network.ttp`,
:mod:`repro.network.tte`; guardians in :mod:`repro.network.guardian`.

The package-level names resolve on first access (:mod:`repro._lazy`),
so a deployment loads only the buses it names: a CAN-only system never
imports the TTP, TTEthernet or guardian modules.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "can": ("CanBus", "CanController", "CanFrameSpec", "ERROR_FRAME_BITS",
            "frame_bits", "frame_time"),
    "flexray": ("CYCLE_COUNT_MAX", "DynamicFrameSpec", "FlexRayBus",
                "FlexRayConfig", "FlexRayController",
                "StaticSlotAssignment"),
    "guardian": ("SlotGuardian",),
    "message": ("Message",),
    "ttp": ("TtpCluster", "TtpNode"),
    "tte": ("TtEthernetSwitch", "TtFrameSpec", "TtWindow",
            "ethernet_frame_time"),
})
