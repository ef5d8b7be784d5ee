"""Timing analysis: task/message schedulability, isolation bounds,
end-to-end latency, sensitivity, and TT schedule synthesis.

The package-level names resolve on first access (:mod:`repro._lazy`):
``import repro.analysis`` loads no submodule, and naming
:func:`timing_report` is what imports :mod:`.system_report` and, with
it, the RTE plan of :mod:`repro.core`.  A verification run that only
solves RTA, bus and chain bounds never loads the report stack.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "can_rta": (), "flexray_rta": (),
    "rta": ("rta", "RtaResult", "analyze", "blocking_time",
            "liu_layland_bound", "response_time", "utilization"),
    "e2e": ("Chain", "EVENT", "SAMPLED", "Stage"),
    "probes": ("ChainProbe",),
    "holistic": ("HolisticModel", "HolisticResult"),
    "system_report": ("TimingReport", "timing_report"),
    "robustness": ("format_robustness", "robustness_report"),
    "sensitivity": ("admissible_new_frame", "admissible_new_task",
                    "critical_bitrate", "critical_scaling_factor",
                    "replace_spec", "task_slack"),
    "tdma_bound": ("periodic_server_supply", "response_bound",
                   "server_response_bound", "tdma_supply",
                   "tdma_response_bound"),
    "ttschedule": ("TtEntry", "TtPlacement", "TtSchedule",
                   "build_schedule", "conflict_free"),
})
