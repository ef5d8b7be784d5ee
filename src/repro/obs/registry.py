"""Process-local metrics registry: counters, gauges, histograms.

The registry is the quantitative half of :mod:`repro.obs`.  Three
instrument kinds cover the paper's observation needs (resource
consumption measurements backing vertical assumptions, error counts
feeding diagnostics):

* :class:`Counter` — monotonically increasing totals (events executed,
  frames delivered, faults detected);
* :class:`Gauge` — last-written value (current sim time, queue depth);
* :class:`Histogram` — fixed-bucket distributions with percentile
  estimation (latencies, tightness ratios).

Two properties drive the design:

* **Determinism** — snapshots merge associatively (counters sum,
  histogram buckets add, gauges take the last write in merge order), so
  telemetry merged in plan order is invariant under the worker count,
  exactly like execution results.  Instruments that record wall-clock
  quantities are created with ``deterministic=False`` and excluded from
  :meth:`MetricsRegistry.digest`, which therefore stays byte-identical
  across ``--jobs`` levels.
* **Near-zero overhead when disabled** — callers go through the
  module-level helpers of :mod:`repro.obs`, which bail on a single flag
  check before any registry object is touched.

Mutation is guarded by one registry-wide lock, so instruments may be
updated from multiple threads; the usual producers (simulation worker
processes) are single-threaded and pay the uncontended-lock cost only
while telemetry is enabled.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from repro.digest import canonical_digest
from repro.errors import ConfigurationError

#: Default histogram buckets: log-spaced nanosecond durations from 1 µs
#: to 10 s (upper bounds; an implicit +Inf bucket catches the rest).
DEFAULT_NS_BUCKETS = (
    1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000,
    1_000_000_000, 10_000_000_000,
)

#: Buckets for dimensionless ratios (e.g. analytic tightness).
RATIO_BUCKETS = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0)


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """Last-written value.  Merge semantics: the later write (in merge
    order, which the execution engine fixes to plan order) wins."""

    __slots__ = ("name", "value", "deterministic", "_lock")

    def __init__(self, name: str, lock: threading.Lock,
                 deterministic: bool = True):
        self.name = name
        self.value: Optional[float] = None
        self.deterministic = deterministic
        self._lock = lock

    def set(self, value) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    ``buckets`` are ascending upper bounds; observations above the last
    bound land in an implicit overflow bucket.  Percentiles interpolate
    linearly within the winning bucket (the overflow bucket reports the
    observed maximum), which is the usual fixed-bucket trade-off:
    cheap, mergeable, and accurate to a bucket width.
    """

    __slots__ = ("name", "bounds", "counts", "sum", "count", "min", "max",
                 "deterministic", "_lock")

    def __init__(self, name: str, lock: threading.Lock,
                 buckets: Sequence = DEFAULT_NS_BUCKETS,
                 deterministic: bool = True):
        bounds = tuple(buckets)
        if not bounds or any(b <= a for b, a in zip(bounds[1:], bounds)):
            raise ConfigurationError(
                f"histogram {name}: buckets must be ascending and "
                f"non-empty, got {bounds}")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # + overflow
        self.sum = 0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.deterministic = deterministic
        self._lock = lock

    def observe(self, value) -> None:
        with self._lock:
            index = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            self.counts[index] += 1
            self.sum += value
            self.count += 1
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def percentile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (``q`` in [0, 1]) from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        estimate = self.max
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                if i == len(self.bounds):
                    return self.max  # overflow bucket: no upper bound
                lower = self.bounds[i - 1] if i > 0 else (
                    self.min if self.min is not None else 0)
                lower = min(lower, self.bounds[i])
                fraction = (target - cumulative) / bucket_count
                estimate = lower + fraction * (self.bounds[i] - lower)
                break
            cumulative += bucket_count
        # The true value cannot lie outside the observed extremes.
        if estimate is not None:
            if self.min is not None:
                estimate = max(estimate, self.min)
            if self.max is not None:
                estimate = min(estimate, self.max)
        return estimate


class MetricsRegistry:
    """One process-local family of named instruments.

    Instrument names are dotted strings (``"can.frames_delivered"``).
    The first creation of a name fixes its kind and, for histograms,
    its buckets; later lookups must agree (mismatches raise, because a
    silent bucket mismatch would corrupt every merge downstream).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument factories ------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_fresh(name, self._counters)
            instrument = self._counters[name] = Counter(name, self._lock)
        return instrument

    def gauge(self, name: str, deterministic: bool = True) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_fresh(name, self._gauges)
            instrument = self._gauges[name] = Gauge(name, self._lock,
                                                    deterministic)
        return instrument

    def histogram(self, name: str,
                  buckets: Sequence = DEFAULT_NS_BUCKETS,
                  deterministic: bool = True) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_fresh(name, self._histograms)
            instrument = self._histograms[name] = Histogram(
                name, self._lock, buckets, deterministic)
        elif instrument.bounds != tuple(buckets):
            raise ConfigurationError(
                f"histogram {name}: bucket mismatch "
                f"({instrument.bounds} vs {tuple(buckets)})")
        return instrument

    def _check_fresh(self, name: str, own: dict) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ConfigurationError(
                    f"instrument {name!r} already exists with a "
                    f"different kind")

    # -- snapshot / merge / digest -------------------------------------
    def snapshot(self) -> dict:
        """All instruments as one JSON-able dict (sorted names)."""
        with self._lock:
            return {
                "counters": {name: c.value
                             for name, c in sorted(self._counters.items())},
                "gauges": {name: {"value": g.value,
                                  "deterministic": g.deterministic}
                           for name, g in sorted(self._gauges.items())},
                "histograms": {
                    name: {
                        "buckets": list(h.bounds),
                        "counts": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                        "min": h.min,
                        "max": h.max,
                        "deterministic": h.deterministic,
                    }
                    for name, h in sorted(self._histograms.items())
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Callers are responsible for merge *order* (the execution engine
        merges in plan order); the operations themselves are the
        associative ones described in the module docstring.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, payload in snapshot.get("gauges", {}).items():
            if payload["value"] is not None:
                self.gauge(name, payload["deterministic"]).set(
                    payload["value"])
        for name, payload in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, payload["buckets"],
                                       payload["deterministic"])
            with self._lock:
                for i, n in enumerate(payload["counts"]):
                    histogram.counts[i] += n
                histogram.sum += payload["sum"]
                histogram.count += payload["count"]
                for attr, pick in (("min", min), ("max", max)):
                    incoming = payload[attr]
                    if incoming is None:
                        continue
                    current = getattr(histogram, attr)
                    setattr(histogram, attr,
                            incoming if current is None
                            else pick(current, incoming))

    def deterministic_view(self) -> dict:
        """The digest-relevant subset of :meth:`snapshot`: counters are
        always deterministic; gauges and histograms only when flagged so
        (wall-clock instruments are excluded here, which is what keeps
        the digest invariant across runs and ``--jobs`` levels)."""
        snap = self.snapshot()
        return {
            "counters": snap["counters"],
            "gauges": {name: payload["value"]
                       for name, payload in snap["gauges"].items()
                       if payload["deterministic"]},
            "histograms": {
                name: {key: payload[key]
                       for key in ("buckets", "counts", "sum", "count",
                                   "min", "max")}
                for name, payload in snap["histograms"].items()
                if payload["deterministic"]
            },
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON deterministic view."""
        return canonical_digest(self.deterministic_view())

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

    def __repr__(self) -> str:
        return (f"<MetricsRegistry counters={len(self._counters)} "
                f"gauges={len(self._gauges)} "
                f"histograms={len(self._histograms)}>")
