"""Content-addressed keys for per-layer analyses.

Every analysis layer of the differential oracle is a pure function of
a small slice of the generated system — the RTA of one ECU reads that
ECU's task set and its critical sections (with resolved ceilings) and
nothing else; the CAN bus analysis reads the frame table and bitrate;
the TDMA busy-window reads the partition plan.  This module makes that
slice explicit: :func:`layer_inputs` extracts exactly the sub-model
each layer reads, and :func:`layer_keys` digests each slice to a
SHA-256 key.

A key changes exactly when its layer's inputs do: a fuzz mutant that
only perturbs the CAN frame table produces byte-identical ``rta:*`` /
``tdma`` / ``flexray_*`` keys and a different ``can`` key.  The
``e2e`` key is a composite (the chain bound is derived from producer /
consumer task WCRTs and the chain frame's bus latency), so it changes
whenever any of its upstream layers change.

A slice may *over*-include fields the analysis ignores (e.g. FlexRay
writer offsets, which shape the simulation but not the static bound);
it must never under-include.
"""

from __future__ import annotations

import hashlib
import pickle

from repro.model.convert import (can_to_dict as _can_to_dict,
                                 chain_to_dict as _chain_to_dict,
                                 flexray_to_dict as _flexray_to_dict,
                                 task_to_dict as _task_to_dict,
                                 tdma_to_dict as _tdma_to_dict)
from repro.verify.generator import GeneratedSystem

#: Bumped whenever a slice's shape (or the digest encoding) changes, so
#: keys from older builds can never collide with current ones.
KEY_FORMAT = 2


def _digest(layer: str, payload) -> str:
    # Pickle, not JSON: the payloads are JSON-native dicts built by
    # deterministic code paths (fixed insertion order), and the C
    # pickler serializes them ~3x faster.  Different content can never
    # collide.
    body = pickle.dumps((KEY_FORMAT, layer, payload), protocol=4)
    return hashlib.sha256(body).hexdigest()


def layer_inputs(system: GeneratedSystem) -> dict:
    """The exact sub-model each analysis layer reads, JSON-native.

    One entry per *independent* layer present in the system:
    ``rta:<ecu>`` per fixed-priority ECU, ``can``, ``flexray_static``,
    ``flexray_dynamic``, ``tdma``, and the ``faults`` pseudo-layer
    (resilience scenarios).  The derived ``e2e`` layer has no slice of
    its own — see :func:`layer_keys` for its composite key.
    """
    inputs: dict = {}
    for ecu in system.fp_ecus:
        specs = system.tasksets[ecu]
        names = {t.name for t in specs}
        inputs[f"rta:{ecu}"] = {
            "tasks": [_task_to_dict(t) for t in specs],
            # Blocking terms: what rta.analyze actually consumes is
            # (ceiling, duration) per owning task — ceilings resolved
            # here so a ceiling change (e.g. after a priority swap)
            # invalidates every ECU whose blocking it feeds.
            "blocking": [
                {"task": s.task,
                 "ceiling": system.resources[s.resource],
                 "duration": s.duration}
                for s in system.critical_sections if s.task in names],
        }
    if system.can is not None:
        inputs["can"] = _can_to_dict(system.can)
    if system.flexray is not None:
        flexray = _flexray_to_dict(system.flexray)
        inputs["flexray_static"] = {"config": flexray["config"],
                                    "writers": flexray["static_writers"]}
        inputs["flexray_dynamic"] = {"config": flexray["config"],
                                     "writers": flexray["dynamic_writers"]}
    if system.tdma is not None:
        inputs["tdma"] = _tdma_to_dict(system.tdma)
    if system.faults:
        inputs["faults"] = [{"kind": f.kind, "start": f.start,
                             "duration": f.duration, "target": f.target}
                            for f in system.faults]
    return inputs


def layer_keys(system: GeneratedSystem) -> dict[str, str]:
    """Canonical SHA-256 key per layer, including the composite ``e2e``.

    The ``e2e`` key exists exactly when the oracle computes the chain
    bound (chain *and* CAN present) and hashes the chain plan together
    with the producer-ECU, consumer-ECU and CAN layer keys — the three
    analyses its inputs are derived from.
    """
    keys = {layer: _digest(layer, payload)
            for layer, payload in layer_inputs(system).items()}
    chain = system.chain
    if chain is not None and system.can is not None:
        keys["e2e"] = _digest("e2e", {
            "chain": _chain_to_dict(chain),
            "deps": {
                "producer_rta": keys.get(f"rta:{chain.producer_ecu}"),
                "consumer_rta": keys.get(f"rta:{chain.consumer_ecu}"),
                "can": keys.get("can"),
            },
        })
    return keys

