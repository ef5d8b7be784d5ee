"""Campaign-scale measurement: DAQ over the parallel exec engine.

``measure_models`` fans systems out over :mod:`repro.exec` exactly
like :func:`repro.model.build.verify_models` does: each worker builds
the live simulation, attaches a :class:`MeasurementService`, runs the
default DAQ list to the horizon, and returns its plain sample rows.
Results merge in plan order, so the aggregate
:meth:`MeasurementReport.digest` is byte-identical for ``jobs=1``,
``jobs=N`` and ``--resume`` — the determinism contract every other
report of this library already honours.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.meas.service import (DEFAULT_DAQ_PERIOD, MeasurementService,
                                default_daq, samples_digest)
from repro.verify.oracle import build_system, default_horizon


@dataclass
class MeasurementReport:
    """Aggregate DAQ result over a batch of systems."""

    period: int
    horizon: Optional[int]
    #: per-system ``(name, rows)`` in plan order.
    results: list = field(default_factory=list)

    @property
    def sample_count(self) -> int:
        return sum(len(rows) for __, rows in self.results)

    def digest(self) -> str:
        """Canonical digest over per-system rows, sorted by system
        name — stable under any executor and completion order."""
        ordered = sorted(self.results, key=lambda pair: pair[0])
        return samples_digest([[name, rows] for name, rows in ordered])

    def format(self) -> str:
        lines = [f"daq measurement: systems={len(self.results)} "
                 f"period={self.period} horizon={self.horizon}"]
        width = max((len(name) for name, __ in self.results), default=4)
        for name, rows in sorted(self.results, key=lambda p: p[0]):
            ticks = len({row[0] for row in rows})
            lines.append(f"  {name:<{width}}  samples={len(rows):>7} "
                         f"ticks={ticks}")
        lines.append(f"measurement digest: sha256:{self.digest()}")
        return "\n".join(lines)


def _daq_worker(horizon: Optional[int], period: int, system) -> tuple:
    """Plan worker (module-level, picklable): build, attach, sample."""
    built = build_system(system)
    try:
        service = MeasurementService.attach(built, system)
        service.connect()
        service.start_daq(default_daq(service.registry, period))
        built.sim.run_until(horizon if horizon is not None
                            else default_horizon(system))
        service.detach()
        return system.name, service.sample_rows()
    finally:
        built.trace.clear()


def measure_models(models: Sequence, period: int = DEFAULT_DAQ_PERIOD,
                   horizon: Optional[int] = None, jobs: int = 1,
                   checkpoint=None, resume: bool = False,
                   progress=None) -> MeasurementReport:
    """Run the default DAQ list against every model (or system).

    Accepts :class:`~repro.model.build.Model` objects or raw
    :class:`~repro.verify.generator.GeneratedSystem` specs."""
    from repro.exec import Plan, execute

    systems = tuple(model.build() if hasattr(model, "to_json")
                    else model for model in models)
    plan = Plan(f"meas-daq:n={len(systems)}:period={period}"
                f":horizon={horizon}",
                functools.partial(_daq_worker, horizon, period),
                systems)
    results = execute(plan, jobs=jobs, checkpoint=checkpoint,
                      resume=resume, progress=progress)
    return MeasurementReport(period, horizon, results)
