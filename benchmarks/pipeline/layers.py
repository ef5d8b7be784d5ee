"""Outside-in layer attribution for the pipeline benchmark.

Every layer is timed by wrapping its *public* function from here, by
patching module and class attributes for the length of a ``with
Patches()`` block; nothing under ``src/`` is edited.  Two traps shape
the target table:

* ``repro.verify.fuzz`` and ``repro.verify.resilience`` are shadowed by
  same-named functions re-exported from ``repro.verify``, so modules are
  resolved with :func:`importlib.import_module`, never by attribute;
* names bound at import (``fuzz.verify_system``, ``fuzz.mutate``,
  ``oracle.generate_many`` ...) are patched in the module that calls
  them, not only where they are defined.

:class:`Probe` is the only instrumentation of an untraced run: one clock
pair per item call and one counter read per ``Simulator.run_until``
call.  :class:`Tracer` adds a span per stage call and attributes every
simulation event to the module that defined its callback, aggregated per
(item, owner) so that ~10^6 events cost no span each.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

clock = time.perf_counter

#: (layer, module, attribute) of every wrapped stage function.  One
#: layer may own several bindings of the same function.
STAGES = (
    ("generate", "repro.verify.generator", "generate_many"),
    ("generate", "repro.verify.oracle", "generate_many"),
    ("generate", "repro.verify.fuzz", "generate_many"),
    ("exec", "repro.exec", "execute"),
    ("verify", "repro.verify.oracle", "verify_system"),
    ("verify", "repro.verify.fuzz", "verify_system"),
    ("analysis", "repro.verify.oracle", "analyze_bounds"),
    ("build", "repro.verify.oracle", "build_system"),
    ("build", "repro.faults.campaign", "ReferenceWorld.__init__"),
    ("build", "repro.verify.resilience", "ResilienceWorld.__init__"),
    ("invariants", "repro.verify.invariants", "InvariantChecker.run"),
    ("resilience", "repro.verify.resilience", "verify_resilience"),
    ("campaign", "repro.faults.campaign", "run_cell"),
    ("mutate", "repro.verify.fuzz", "mutate"),
    ("fuzz.signature", "repro.verify.fuzz", "signature_tokens"),
    ("shrink", "repro.verify.fuzz", "shrink"),
    ("obs.harvest", "repro.obs", "harvest_trace"),
)

#: Module prefix of a callback's definition -> simulation owner layer.
OWNERS = (
    ("repro.osek", "sim.osek"),
    ("repro.network.can", "sim.can"),
    ("repro.network.flexray", "sim.flexray"),
    ("repro.com", "sim.com"),
    ("repro.bsw", "sim.bsw"),
    ("repro.faults", "sim.faults"),
    ("repro.verify", "sim.stimulus"),
)
#: Owner of callbacks defined anywhere else, so owner events always
#: sum to the kernel's executed count.
OTHER_OWNER = "sim.other"
OWNER_LAYERS = tuple(owner for _, owner in OWNERS) + (OTHER_OWNER,)

#: Stage layers in report order; ``pipeline`` is the workload's own
#: entry-point call, opened by the benchmark rather than patched.
STAGE_LAYERS = ("pipeline", "generate", "exec", "verify", "analysis",
                "build", "trace.query", "invariants", "resilience",
                "campaign", "mutate", "fuzz.signature", "shrink",
                "obs.harvest")


def resolve(module: str, attribute: str):
    """(owner object, attribute name) for a dotted ``Class.attr`` path."""
    owner = importlib.import_module(module)
    *classes, name = attribute.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


class Patches:
    """Attribute assignments undone when the ``with`` block exits."""

    def __init__(self):
        self._undo = []

    def wrap(self, module: str, attribute: str, make_wrapper) -> None:
        """Replace ``module.attribute`` by ``make_wrapper(original)``.

        The wrapper carries ``functools.wraps`` metadata: callers such
        as ``repro.faults.campaign`` inspect the signature of what they
        are given (``__wrapped__`` keeps it intact)."""
        owner, name = resolve(module, attribute)
        original = vars(owner)[name]
        wrapper = functools.wraps(original)(make_wrapper(original))
        self._undo.append((owner, name, original))
        setattr(owner, name, wrapper)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class Probe:
    """Per-item wall times, item failures and simulated event counts.

    With a ``calibration`` clock (:class:`calibration.Clock`), every
    item's time is fed to it after the item returns, so calibration
    interleaves with the work at item granularity."""

    def __init__(self, item: tuple[str, str], calibration=None):
        self.item = item
        self.calibration = calibration
        self.times: list[float] = []
        self.failed = 0
        self.events = 0

    def install(self, patches: Patches) -> None:
        def item_wrapper(original):
            def timed(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                except Exception:
                    self.failed += 1
                    raise
                finally:
                    elapsed = clock() - start
                    self.times.append(elapsed)
                    if self.calibration is not None:
                        self.calibration.work(elapsed, item=True)
            return timed

        def run_until_wrapper(original):
            def counted(sim, horizon):
                before = sim.executed
                try:
                    return original(sim, horizon)
                finally:
                    self.events += sim.executed - before
            return counted

        patches.wrap(*self.item, item_wrapper)
        patches.wrap("repro.sim.kernel", "Simulator.run_until",
                     run_until_wrapper)


def owner_of(callback) -> str:
    """Owner layer of a scheduled callback: the module defining it."""
    function = getattr(callback, "__func__", callback)
    function = getattr(function, "func", function)   # functools.partial
    module = getattr(function, "__module__", None) \
        or type(callback).__module__
    for prefix, owner in OWNERS:
        if module == prefix or module.startswith(prefix + "."):
            return owner
    return OTHER_OWNER


class Tracer(Probe):
    """Spans at every stage boundary plus per-owner event attribution.

    A frame is ``[span index or None, parent span, start, child time]``;
    a layer's self time is its duration minus the time of the frames
    nested inside it, so self times never sum past the wall time.
    """

    def __init__(self, item: tuple[str, str]):
        super().__init__(item)
        [self.item_layer] = [layer for layer, *binding in STAGES
                             if tuple(binding) == item]
        self.origin = clock()
        #: layer -> [calls, self seconds]
        self.layers: dict[str, list] = defaultdict(lambda: [0, 0.0])
        #: (item id, owner layer) -> [events, self seconds]
        self.owners: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        #: [name, start, end, parent span, item id]
        self.spans: list[list] = []
        self.item_spans: dict[int, int] = {}
        self.scanned = 0
        self.returned = 0
        self.logged = 0
        self._stack: list[list] = []
        self._item = 0

    # -- frames ---------------------------------------------------------
    def _enter(self, name):
        stack = self._stack
        parent = stack[-1][1] if stack else None
        index = None
        if name is not None:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self._item])
        frame = [index, parent if index is None else index, clock(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame) -> float:
        """Close ``frame``; returns its self time."""
        end = clock()
        stack = self._stack
        stack.pop()
        elapsed = end - frame[2]
        if stack:
            stack[-1][3] += elapsed
        if frame[0] is not None:
            span = self.spans[frame[0]]
            span[1] = frame[2]
            span[2] = end
        return elapsed - frame[3]

    def stage(self, layer: str, function):
        """``function`` wrapped as one stage call of ``layer``."""
        def staged(*args, **kwargs):
            frame = self._enter(layer)
            try:
                return function(*args, **kwargs)
            finally:
                stats = self.layers[layer]
                stats[0] += 1
                stats[1] += self._exit(frame)
        return staged

    # -- installation ---------------------------------------------------
    def install(self, patches: Patches) -> None:
        for layer, module, attribute in STAGES:
            if (module, attribute) == self.item:
                continue
            patches.wrap(module, attribute,
                         functools.partial(self.stage, layer))
        patches.wrap(*self.item, self._item_wrapper)
        patches.wrap("repro.sim.kernel", "Simulator.run_until",
                     self._run_until_wrapper)
        patches.wrap("repro.sim.kernel", "Simulator.schedule_at",
                     self._schedule_at_wrapper)
        patches.wrap("repro.sim.trace", "Trace.records",
                     self._records_wrapper)
        patches.wrap("repro.sim.trace", "Trace.log", self._log_wrapper)

    def _item_wrapper(self, original):
        staged = self.stage(self.item_layer, original)

        def item(*args, **kwargs):
            previous = self._item
            self._item = len(self.item_spans) + 1
            self.item_spans[self._item] = len(self.spans)
            start = clock()
            try:
                return staged(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise
            finally:
                self.times.append(clock() - start)
                self._item = previous
        return item

    def _run_until_wrapper(self, original):
        staged = self.stage("sim.kernel", original)

        def run_until(sim, horizon):
            before = sim.executed
            try:
                return staged(sim, horizon)
            finally:
                self.events += sim.executed - before
        return run_until

    def _schedule_at_wrapper(self, original):
        def schedule_at(sim, time, callback, priority=0):
            owner = owner_of(callback)

            def event():
                frame = self._enter(None)
                try:
                    callback()
                finally:
                    stats = self.owners[(self._item, owner)]
                    stats[0] += 1
                    stats[1] += self._exit(frame)
            return original(sim, time, event, priority)
        return schedule_at

    def _records_wrapper(self, original):
        staged = self.stage("trace.query", original)

        def records(trace, *args, **kwargs):
            out = staged(trace, *args, **kwargs)
            self.scanned += len(trace)
            self.returned += len(out)
            return out
        return records

    def _log_wrapper(self, original):
        def log(trace, *args, **kwargs):
            self.logged += 1
            return original(trace, *args, **kwargs)
        return log

    # -- results --------------------------------------------------------
    def owner_totals(self) -> dict[str, list]:
        totals = {owner: [0, 0.0] for owner in OWNER_LAYERS}
        for (_, owner), (events, self_s) in self.owners.items():
            totals[owner][0] += events
            totals[owner][1] += self_s
        return totals

    def metrics(self, wall: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``; ``wall``
        is the traced wall time the ``share`` values divide by."""
        out: dict[str, tuple[float, str]] = {}
        for layer in STAGE_LAYERS:
            calls, self_s = self.layers.get(layer, (0, 0.0))
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.self_s"] = (self_s, "s")
            out[f"{layer}.share"] = (self_s / wall, "ratio")
        _, kernel_s = self.layers.get("sim.kernel", (0, 0.0))
        out["sim.kernel.events"] = (self.events, "count")
        out["sim.kernel.self_s"] = (kernel_s, "s")
        out["sim.kernel.share"] = (kernel_s / wall, "ratio")
        out["sim.kernel.ns_per_event"] = (
            kernel_s * 1e9 / self.events if self.events else 0.0, "ns")
        for owner, (events, self_s) in self.owner_totals().items():
            out[f"{owner}.events"] = (events, "count")
            out[f"{owner}.self_s"] = (self_s, "s")
            out[f"{owner}.share"] = (self_s / wall, "ratio")
        out["trace.query.records_scanned"] = (self.scanned, "count")
        out["trace.query.hit_ratio"] = (
            self.returned / self.scanned if self.scanned else 0.0, "ratio")
        out["trace.log.records"] = (self.logged, "count")
        return out

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON: one complete event per stage span;
        per-(item, owner) event aggregates ride in the item span's
        ``args`` instead of one span per simulated event."""
        owners_by_item: dict[int, dict] = defaultdict(dict)
        for (item, owner), (events, self_s) in self.owners.items():
            owners_by_item[item][owner] = {"events": events,
                                           "self_us": self_s * 1e6}
        events = []
        for index, (name, start, end, parent, item) in enumerate(
                self.spans):
            args = {"span": index, "parent": parent, "item": item}
            if self.item_spans.get(item) == index:
                args["owners"] = owners_by_item.get(item, {})
            events.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                           "ts": (start - self.origin) * 1e6,
                           "dur": (end - start) * 1e6, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"owners_outside_items":
                              owners_by_item.get(0, {})}}
