"""A2L-like measurement & calibration registry.

Real automotive tooling describes an ECU's measurable signals and
calibratable characteristics in an A2L file: every entry has a name, a
memory address, a datatype, a unit and — for characteristics — the
configuration class that says when the value may still change.  This
module mirrors that for *simulated* ECUs: a
:class:`MeasurementRegistry` is generated from a
:class:`~repro.verify.generator.GeneratedSystem` (or a
:class:`~repro.model.build.Model`) plus, optionally, the live
calibration :class:`~repro.core.config.ConfigurationSet`, and carries

* **measurements** — read-only live quantities (signal values, kernel
  busy time, E2E verdict counters, chain latencies, sim clock);
* **characteristics** — the post-build/link-time/pre-compile
  :class:`~repro.core.config.ConfigParameter` catalog, of which only
  the post-build class is writable at runtime (paper Section 2).

Addresses are synthetic but **stable**: entries of each kind are
numbered in sorted-name order from a per-kind base with a fixed
stride, so the same system always produces the same address map and
:meth:`MeasurementRegistry.digest` is deterministic — the property the
CI ``meas-smoke`` job pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import (LINK_TIME, POST_BUILD, PRE_COMPILE,
                               ConfigurationSet)
from repro.digest import canonical_digest
from repro.errors import ConfigurationError

#: Entry kinds.
MEASUREMENT = "measurement"
CHARACTERISTIC = "characteristic"

#: Synthetic address spaces (disjoint per kind), A2L-style hex map.
CHARACTERISTIC_BASE = 0x1000_0000
MEASUREMENT_BASE = 0x2000_0000
ADDRESS_STRIDE = 0x10

#: Characteristic entry names are the parameter name under this prefix.
CALIB_PREFIX = "calib."


@dataclass(frozen=True)
class RegistryEntry:
    """One named, addressable entry of the registry."""

    name: str
    kind: str
    address: int
    datatype: str = "sint64"
    unit: str = ""
    description: str = ""
    #: configuration class for characteristics, "" for measurements.
    config_class: str = ""

    @property
    def writable(self) -> bool:
        """Only post-build characteristics may change at runtime."""
        return self.kind == CHARACTERISTIC \
            and self.config_class == POST_BUILD

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "address": self.address, "datatype": self.datatype,
                "unit": self.unit, "description": self.description,
                "config_class": self.config_class}


class MeasurementRegistry:
    """The catalog: name -> :class:`RegistryEntry`, with stable
    addresses and a deterministic digest."""

    def __init__(self, system_name: str = ""):
        self.system_name = system_name
        self._entries: dict[str, RegistryEntry] = {}

    # -- construction --------------------------------------------------
    def add(self, name: str, kind: str, datatype: str = "sint64",
            unit: str = "", description: str = "",
            config_class: str = "") -> None:
        """Stage one entry.  Addresses are (re)assigned on
        :meth:`finalize`, so insertion order never leaks into them."""
        if kind not in (MEASUREMENT, CHARACTERISTIC):
            raise ConfigurationError(
                f"registry entry {name!r}: unknown kind {kind!r}")
        if name in self._entries:
            raise ConfigurationError(
                f"registry: duplicate entry {name!r}")
        self._entries[name] = RegistryEntry(
            name, kind, 0, datatype, unit, description, config_class)

    def finalize(self) -> "MeasurementRegistry":
        """Assign addresses: per kind, sorted-name order from the
        kind's base with :data:`ADDRESS_STRIDE`; returns self."""
        for kind, base in ((CHARACTERISTIC, CHARACTERISTIC_BASE),
                           (MEASUREMENT, MEASUREMENT_BASE)):
            names = sorted(n for n, e in self._entries.items()
                           if e.kind == kind)
            for index, name in enumerate(names):
                entry = self._entries[name]
                self._entries[name] = RegistryEntry(
                    entry.name, entry.kind, base + index * ADDRESS_STRIDE,
                    entry.datatype, entry.unit, entry.description,
                    entry.config_class)
        return self

    # -- lookup --------------------------------------------------------
    def entry(self, name: str) -> RegistryEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise ConfigurationError(
                f"registry: unknown entry {name!r}")
        return entry

    def names(self, kind: Optional[str] = None) -> list[str]:
        """Sorted entry names, optionally filtered by kind."""
        return sorted(n for n, e in self._entries.items()
                      if kind is None or e.kind == kind)

    def measurements(self) -> list[RegistryEntry]:
        return [self._entries[n] for n in self.names(MEASUREMENT)]

    def characteristics(self) -> list[RegistryEntry]:
        return [self._entries[n] for n in self.names(CHARACTERISTIC)]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    # -- export --------------------------------------------------------
    def to_dicts(self) -> list[dict]:
        """Canonical rows: sorted by name."""
        return [self._entries[n].to_dict() for n in self.names()]

    def digest(self) -> str:
        """SHA-256 over the canonical JSON of all entries — identical
        for identical systems, regardless of construction order."""
        return canonical_digest({"system": self.system_name,
                                 "entries": self.to_dicts()})

    def format_table(self) -> str:
        """Human-readable A2L-style listing."""
        lines = [f"registry: {self.system_name or '(unnamed)'} "
                 f"({len(self)} entries)"]
        width = max((len(n) for n in self.names()), default=4)
        for entry in (*self.characteristics(), *self.measurements()):
            klass = entry.config_class or "-"
            lines.append(
                f"  {entry.address:#010x}  {entry.name:<{width}}  "
                f"{entry.kind:<14} {entry.datatype:<7} "
                f"{entry.unit or '-':<6} {klass}")
        lines.append(f"registry digest: sha256:{self.digest()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<MeasurementRegistry {self.system_name} "
                f"entries={len(self)}>")


# ----------------------------------------------------------------------
# Generation from a system description
# ----------------------------------------------------------------------
def _as_system(source):
    """Accept a GeneratedSystem or a Model (anything with .build())."""
    build = getattr(source, "build", None)
    if callable(build) and not hasattr(source, "tasksets"):
        return build()
    return source


def calibration_set(source) -> ConfigurationSet:
    """The calibration :class:`ConfigurationSet` of one system.

    Declares every tunable the generated system carries with its
    paper-faithful configuration class, then runs ``compile()`` and
    ``link()`` so the set reaches the *linked* stage a live ECU is in:
    pre-compile and link-time parameters are frozen, post-build
    characteristics stay writable (with validators, so a bad
    calibration write is rejected and the prior value survives).
    """
    system = _as_system(source)
    config = ConfigurationSet(f"calib:{system.name}")
    for ecu in system.fp_ecus:
        for spec in system.tasksets[ecu]:
            config.declare(f"task.{spec.name}.period", spec.period,
                           PRE_COMPILE,
                           description=f"activation period of {spec.name}")
            config.declare(f"task.{spec.name}.wcet", spec.wcet,
                           PRE_COMPILE,
                           description=f"budgeted WCET of {spec.name}")
    if system.can is not None:
        config.declare("can.bitrate_bps", system.can.bitrate_bps,
                       LINK_TIME, description="CAN bus bitrate")
    if system.tdma is not None:
        config.declare("tdma.major_frame", system.tdma.major_frame,
                       PRE_COMPILE, description="TDMA major frame length")
    chain = system.chain
    if chain is not None:
        config.declare("chain.data_id", chain.data_id, PRE_COMPILE,
                       description="E2E CRC salt of the chain PDU")
        config.declare("chain.counter_bits", chain.counter_bits,
                       PRE_COMPILE,
                       description="alive counter width in bits")
        modulo = 1 << chain.counter_bits
        config.declare(
            "chain.max_delta_counter", chain.max_delta_counter,
            POST_BUILD,
            validator=lambda v: isinstance(v, int) and 1 <= v < modulo - 1,
            description="largest tolerated alive-counter jump")
        config.declare(
            "chain.timeout", chain.timeout, POST_BUILD,
            validator=lambda v: isinstance(v, int) and v > 0,
            description="reception supervision window [ns]")
    config.declare(
        "dem.debounce_threshold", 1, POST_BUILD,
        validator=lambda v: isinstance(v, int) and 1 <= v <= 10,
        description="DEM debounce confirmation threshold")
    config.compile()
    config.link()
    return config


def build_registry(source,
                   config: Optional[ConfigurationSet] = None
                   ) -> MeasurementRegistry:
    """Generate the registry of one system (a
    :class:`~repro.verify.generator.GeneratedSystem` or a
    :class:`~repro.model.build.Model`).

    Measurements cover the quantities the live object graph exposes
    (see :func:`repro.meas.service.bind_accessors`); characteristics
    mirror ``config`` (built via :func:`calibration_set` when not
    given).  Identical systems yield byte-identical registries.
    """
    system = _as_system(source)
    if config is None:
        config = calibration_set(system)
    registry = MeasurementRegistry(system.name)

    # -- characteristics from the configuration set --------------------
    for param in config.parameters():
        datatype = "float64" if isinstance(param.value, float) else "sint64"
        unit = "ns" if param.name.endswith(
            ("period", "timeout", "major_frame")) else \
            ("bps" if param.name.endswith("bitrate_bps") else "")
        registry.add(CALIB_PREFIX + param.name, CHARACTERISTIC,
                     datatype=datatype, unit=unit,
                     description=param.description,
                     config_class=param.config_class)

    # -- measurements from the system description ----------------------
    registry.add("sim.now", MEASUREMENT, unit="ns",
                 description="simulated clock")
    registry.add("sim.executed", MEASUREMENT, unit="count",
                 description="dispatched simulation events")
    ecus = list(system.fp_ecus)
    if system.tdma is not None:
        ecus.append(system.tdma.ecu)
    for ecu in ecus:
        registry.add(f"ecu.{ecu}.busy_ns", MEASUREMENT, unit="ns",
                     description=f"accumulated CPU busy time of {ecu}")
    for spec in system.all_task_specs():
        registry.add(f"task.{spec.name}.completions", MEASUREMENT,
                     unit="count",
                     description=f"jobs completed by {spec.name}")
    chain = system.chain
    if chain is not None and system.can is not None:
        registry.add(f"signal.{chain.signal_name}", MEASUREMENT,
                     description="last received chain signal value")
        registry.add(f"signal.{chain.signal_name}.age", MEASUREMENT,
                     unit="ns",
                     description="time since last chain signal update")
        registry.add(f"e2e.{chain.pdu_name}.errors", MEASUREMENT,
                     unit="count",
                     description="E2E verdicts other than OK")
        registry.add(f"chain.{chain.pdu_name}.deliveries", MEASUREMENT,
                     unit="count",
                     description="end-to-end chain deliveries observed")
    return registry.finalize()
