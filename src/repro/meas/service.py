"""XCP-like in-process measurement & calibration service.

A :class:`MeasurementService` attaches to one *running* simulation the
way an XCP master attaches to a real ECU: clients ``connect()``, then
read/poll named measurements, write named characteristics, and run
cyclic **DAQ lists** — sampling lists synchronized to simulated time.

Write access is gated by configuration class exactly as the paper's
Section 2 prescribes: pre-compile and link-time characteristics are
frozen in the linked stage and the write is *refused*
(:class:`~repro.errors.ConfigurationError` from the underlying
:class:`~repro.core.config.ConfigurationSet`); post-build
characteristics are validated, applied to the live object graph, and
**freeze-frame logged** through a DEM
:class:`~repro.bsw.errors.ErrorManager` event (``meas.calibration``)
plus a DLT record — every calibration of a running ECU leaves an
auditable trail.

DAQ samples are plain ``[time, list, entry, value]`` rows; they are
picklable (so campaign workers can return them through the exec
engine's plan-order merge) and canonically JSON-serializable (so
:meth:`MeasurementService.samples_digest` is byte-identical across
``--jobs 1``/``--jobs N`` and ``--resume``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro import obs
from repro.bsw.errors import FAILED, SEVERITY_LOW, ErrorEvent, ErrorManager
from repro.core.config import ConfigurationSet
from repro.digest import canonical_digest
from repro.errors import ConfigurationError, MeasurementError
from repro.meas.registry import (CALIB_PREFIX, CHARACTERISTIC, MEASUREMENT,
                                 MeasurementRegistry, build_registry,
                                 calibration_set)
from repro.sim.trace import Trace
from repro.units import ms

#: The DEM event every applied calibration write reports against.
CALIBRATION_EVENT = "meas.calibration"
CALIBRATION_DTC = 0xCA11

#: Sampler events run *after* ordinary activity of the same instant.
DAQ_PRIORITY = 1000

#: Default DAQ period when a CLI flag asks for sampling without one.
DEFAULT_DAQ_PERIOD = ms(1)


@dataclass(frozen=True)
class DaqList:
    """One cyclic sampling list: named entries sampled every
    ``period`` ns of simulated time, starting at ``offset``."""

    name: str
    entries: tuple
    period: int
    offset: int = 0

    def __post_init__(self):
        if self.period <= 0:
            raise ConfigurationError(
                f"daq list {self.name}: period must be > 0")
        if self.offset < 0:
            raise ConfigurationError(
                f"daq list {self.name}: negative offset")
        if not self.entries:
            raise ConfigurationError(
                f"daq list {self.name}: no entries")


def default_daq(registry: MeasurementRegistry, period: int) -> DaqList:
    """The DAQ list ``daq0`` over every measurement of ``registry``."""
    return DaqList("daq0", tuple(registry.names(MEASUREMENT)), period)


class MeasurementService:
    """The in-process XCP stand-in for one simulation."""

    def __init__(self, sim, registry: MeasurementRegistry,
                 accessors: dict[str, Callable[[], object]],
                 config: Optional[ConfigurationSet] = None,
                 appliers: Optional[dict[str, Callable]] = None,
                 node: str = "MEAS"):
        self.sim = sim
        self.registry = registry
        self.config = config
        self.node = node
        self._accessors = dict(accessors)
        self._appliers = dict(appliers or {})
        self.trace = Trace()
        self.dem = ErrorManager(node, trace=self.trace,
                                now=lambda: sim.now)
        self.dem.register(ErrorEvent(
            CALIBRATION_EVENT, dtc=CALIBRATION_DTC,
            severity=SEVERITY_LOW, threshold=1))
        self._connected = False
        self._daq: dict[str, dict] = {}
        #: plain rows [time, list, entry, value], in sampling order.
        self.samples: list[list] = []
        self.reads = 0
        self.writes_applied = 0
        self.writes_refused = 0

    # -- attachment ----------------------------------------------------
    @classmethod
    def attach(cls, built, system) -> "MeasurementService":
        """Attach to a live :class:`~repro.verify.oracle.BuiltSystem`.

        Builds the system's calibration set and registry, binds every
        measurement to its live accessor, and wires the post-build
        appliers that poke the running object graph."""
        config = calibration_set(system)
        return cls(built.sim, build_registry(system, config),
                   bind_accessors(built, system), config,
                   bind_appliers(built, system),
                   node=f"MEAS:{system.name}")

    # -- connection gate -----------------------------------------------
    def connect(self) -> None:
        self._connected = True

    def disconnect(self) -> None:
        self._connected = False

    @property
    def connected(self) -> bool:
        return self._connected

    def _require_connected(self) -> None:
        if not self._connected:
            raise MeasurementError(
                f"{self.node}: not connected (call connect() first)")

    # -- read / poll ---------------------------------------------------
    def read(self, name: str):
        """Current value of one named entry (measurement or
        characteristic)."""
        self._require_connected()
        entry = self.registry.entry(name)
        self.reads += 1
        if entry.kind == CHARACTERISTIC:
            return self._characteristic(name)()
        accessor = self._accessors.get(name)
        if accessor is None:
            raise MeasurementError(
                f"{self.node}: measurement {name!r} has no live "
                f"accessor (registry built without a simulation?)")
        return accessor()

    def poll(self, names: Optional[list[str]] = None) -> dict:
        """One-shot sample of ``names`` (default: every measurement)."""
        names = names if names is not None \
            else self.registry.names(MEASUREMENT)
        return {name: self.read(name) for name in names}

    def _characteristic(self, name: str) -> Callable[[], object]:
        """Reader of one characteristic's current value in the
        configuration set, so a post-build write shows in later reads."""
        if self.config is None:
            raise MeasurementError(
                f"{self.node}: no configuration set attached")
        parameter = name[len(CALIB_PREFIX):]
        return lambda: self.config.get(parameter)

    # -- calibration write ---------------------------------------------
    def write(self, name: str, value) -> None:
        """Write one characteristic, enforcing its configuration class.

        Pre-compile/link-time characteristics are frozen in the linked
        stage — the underlying set refuses the write and the prior
        value stays.  Post-build writes are validated, applied (to the
        configuration *and* the live object graph), and freeze-frame
        logged through the DEM ``meas.calibration`` event + DLT.
        """
        self._require_connected()
        entry = self.registry.entry(name)
        if entry.kind != CHARACTERISTIC:
            raise MeasurementError(
                f"{self.node}: {name!r} is a measurement (read-only)")
        if self.config is None:
            raise MeasurementError(
                f"{self.node}: no configuration set attached")
        parameter = name[len(CALIB_PREFIX):]
        old = self.config.get(parameter)
        try:
            self.config.set(parameter, value)
        except ConfigurationError:
            self.writes_refused += 1
            raise
        applier = self._appliers.get(parameter)
        if applier is not None:
            applier(value)
        self.writes_applied += 1
        now = self.sim.now
        self.dem.report(CALIBRATION_EVENT, FAILED, context={
            "parameter": parameter, "old": old, "new": value,
            "address": entry.address})
        self.trace.log(now, "meas.write", parameter, old=old, new=value)
        if obs.enabled():
            obs.count("meas.writes")
            obs.dlt(now, obs.INFO, self.node, "MEAS", parameter,
                    "meas.write", old=old, new=value,
                    address=entry.address)

    # -- DAQ -----------------------------------------------------------
    def start_daq(self, daq: DaqList) -> None:
        """Start a cyclic sampling list; its rows land in
        :attr:`samples`.

        A measurement is sampled through its live accessor, a
        characteristic from the configuration set (the value
        :meth:`read` returns)."""
        self._require_connected()
        if daq.name in self._daq:
            raise MeasurementError(
                f"{self.node}: daq list {daq.name!r} already running")
        samplers = []
        for name in daq.entries:
            entry = self.registry.entry(name)  # raises on unknown names
            samplers.append(self._characteristic(name)
                            if entry.kind == CHARACTERISTIC
                            else self._accessors.get(name))
        run = {"daq": daq, "samplers": samplers, "active": True,
               "ticks": 0}
        self._daq[daq.name] = run
        self.sim.schedule_at(self.sim.now + daq.offset,
                             lambda: self._tick(run),
                             priority=DAQ_PRIORITY)

    def _tick(self, run: dict) -> None:
        if not run["active"]:
            return
        daq = run["daq"]
        now = self.sim.now
        for entry, sample in zip(daq.entries, run["samplers"]):
            value = sample() if sample is not None else None
            self.samples.append([now, daq.name, entry, value])
        run["ticks"] += 1
        if obs.enabled():
            obs.count("meas.daq.samples", len(daq.entries))
        self.sim.schedule(daq.period, lambda: self._tick(run),
                          priority=DAQ_PRIORITY)

    def stop_daq(self, name: str) -> None:
        """Stop one sampling list."""
        run = self._daq.pop(name, None)
        if run is None:
            raise MeasurementError(
                f"{self.node}: no running daq list {name!r}")
        run["active"] = False

    def detach(self) -> None:
        """Stop every DAQ list and disconnect."""
        for name in list(self._daq):
            self.stop_daq(name)
        self.disconnect()

    # -- determinism ---------------------------------------------------
    def sample_rows(self) -> list[list]:
        """The retained DAQ rows (picklable, JSON-native)."""
        return list(self.samples)

    def samples_digest(self) -> str:
        """SHA-256 over the canonical JSON of the sample rows."""
        return samples_digest(self.samples)

    def __repr__(self) -> str:
        return (f"<MeasurementService {self.node} "
                f"entries={len(self.registry)} "
                f"daq={sorted(self._daq)} samples={len(self.samples)}>")


def samples_digest(rows: list) -> str:
    """Canonical digest of DAQ rows (shared by service and reports)."""
    return canonical_digest(rows, default=str)


# ----------------------------------------------------------------------
# Live-graph binding
# ----------------------------------------------------------------------
def bind_accessors(built, system) -> dict[str, Callable[[], object]]:
    """Accessor per measurement of :func:`build_registry`, bound to the
    live handles of one :class:`~repro.verify.oracle.BuiltSystem`."""
    sim = built.sim
    accessors: dict[str, Callable[[], object]] = {
        "sim.now": lambda: sim.now,
        "sim.executed": lambda: sim.executed,
    }
    for ecu, kernel in built.kernels.items():
        accessors[f"ecu.{ecu}.busy_ns"] = \
            (lambda k: lambda: k.busy_ns)(kernel)
        for name, task in kernel.tasks.items():
            accessors[f"task.{name}.completions"] = \
                (lambda t: lambda: t.jobs_completed)(task)
    chain = system.chain
    if chain is not None and built.rx_stack is not None:
        rx = built.rx_stack
        accessors[f"signal.{chain.signal_name}"] = \
            lambda: rx.read_signal(chain.signal_name)
        accessors[f"signal.{chain.signal_name}.age"] = \
            lambda: rx.signal_age(chain.signal_name)
    if chain is not None and built.receiver is not None:
        accessors[f"e2e.{chain.pdu_name}.errors"] = \
            lambda: built.receiver.error_count
    if chain is not None and built.probe is not None:
        accessors[f"chain.{chain.pdu_name}.deliveries"] = \
            lambda: len(built.probe.latencies)
    return accessors


def bind_appliers(built, system) -> dict[str, Callable]:
    """Post-build appliers: poke the live object graph so an applied
    calibration write takes effect mid-run (the E2E profile object is
    shared by protector and receiver, so both ends see the change)."""
    appliers: dict[str, Callable] = {}
    receiver = built.receiver
    if receiver is not None:
        def set_timeout(value, profile=receiver.profile):
            profile.timeout = value

        def set_max_delta(value, profile=receiver.profile):
            profile.max_delta_counter = value

        appliers["chain.timeout"] = set_timeout
        appliers["chain.max_delta_counter"] = set_max_delta
    return appliers


# ----------------------------------------------------------------------
# Generic attachment (campaign worlds and other duck-typed sims)
# ----------------------------------------------------------------------
def attach_world(world, node: str = "MEAS:world") -> MeasurementService:
    """Attach to any object exposing ``sim`` (and optionally ``trace``,
    ``receiver``) — the fault-campaign ``ReferenceWorld`` shape.  Only
    generic measurements are registered; there is no calibration set.
    ``trace.records`` is the length of the world's trace, which keeps
    every record of the run."""
    accessors: dict[str, Callable[[], object]] = {
        "sim.now": lambda: world.sim.now,
        "sim.executed": lambda: world.sim.executed,
    }
    trace = getattr(world, "trace", None)
    if trace is not None:
        accessors["trace.records"] = lambda: len(trace)
    receiver = getattr(world, "receiver", None)
    if receiver is not None:
        accessors["e2e.errors"] = lambda: receiver.error_count
    registry = MeasurementRegistry(node)
    for name in accessors:
        registry.add(name, MEASUREMENT,
                     unit="ns" if name == "sim.now" else "count")
    registry.finalize()
    return MeasurementService(world.sim, registry, accessors, node=node)
