"""Per-subsystem dict converters behind every serialized view.

One converter pair per building block — task specs, signals, I-PDUs,
CAN frame specs, CAN/FlexRay/TDMA plans, E2E chains, fault scenarios —
each mapping between the live dataclasses and plain JSON-native dicts
with every field spelled out (no pickling, readable by a human).

The **model document** (:mod:`repro.model.build`, the versioned
exchange format behind ``repro model``, the scenario library and the
fuzz corpus under ``tests/corpus/``) is assembled from these
primitives, and it is the only form a system is read back from.  Two
write-only views hash them as well: the fuzzer's flat system view
(:mod:`repro.verify.fuzz`, inside every fuzz digest and corpus file
name) and the per-layer keys of :mod:`repro.perf.keys` — so a field
added here is automatically part of every layer's content key.
"""

from __future__ import annotations

from repro.com.ipdu import IPdu, SignalMapping
from repro.com.packing import PackedFrame
from repro.com.signal import SignalSpec
from repro.network.can import CanFrameSpec
from repro.network.flexray import (DynamicFrameSpec, FlexRayConfig,
                                   StaticSlotAssignment)
from repro.osek.task import TaskSpec
from repro.verify.generator import (CanPlan, ChainPlan, DynamicWriter,
                                    FaultScenario, FlexRayPlan,
                                    StaticWriter, TdmaPlan)


# ----------------------------------------------------------------------
# to dict
# ----------------------------------------------------------------------
def task_to_dict(task: TaskSpec) -> dict:
    return {"name": task.name, "wcet": task.wcet, "period": task.period,
            "offset": task.offset, "deadline": task.deadline,
            "priority": task.priority, "partition": task.partition,
            "max_activations": task.max_activations, "budget": task.budget,
            "jitter": task.jitter, "bcet": task.bcet,
            "criticality": task.criticality}


def signal_to_dict(spec: SignalSpec) -> dict:
    return {"name": spec.name, "width_bits": spec.width_bits,
            "initial": spec.initial, "transfer": spec.transfer,
            "timeout": spec.timeout}


def ipdu_to_dict(ipdu: IPdu) -> dict:
    return {"name": ipdu.name, "size_bytes": ipdu.size_bytes,
            "mappings": [{"signal": signal_to_dict(m.spec),
                          "start_bit": m.start_bit,
                          "update_bit": m.update_bit}
                         for m in ipdu.mappings]}


def frame_spec_to_dict(spec: CanFrameSpec) -> dict:
    return {"name": spec.name, "can_id": spec.can_id, "dlc": spec.dlc,
            "period": spec.period, "deadline": spec.deadline,
            "extended": spec.extended, "jitter": spec.jitter}


def can_to_dict(can: CanPlan) -> dict:
    return {"bitrate_bps": can.bitrate_bps,
            "frames": [{"ipdu": ipdu_to_dict(f.ipdu), "period": f.period,
                        "sender": f.sender} for f in can.frames],
            "frame_specs": [frame_spec_to_dict(s)
                            for s in can.frame_specs]}


def flexray_to_dict(plan: FlexRayPlan) -> dict:
    config = plan.config
    return {
        "config": {"slot_length": config.slot_length,
                   "n_static_slots": config.n_static_slots,
                   "minislot_length": config.minislot_length,
                   "n_minislots": config.n_minislots,
                   "nit_length": config.nit_length,
                   "bitrate_bps": config.bitrate_bps},
        "nodes": list(plan.nodes),
        "static_writers": [
            {"slot": w.assignment.slot, "node": w.assignment.node,
             "frame_name": w.assignment.frame_name,
             "base_cycle": w.assignment.base_cycle,
             "repetition": w.assignment.repetition,
             "period": w.period, "offset": w.offset}
            for w in plan.static_writers],
        "dynamic_writers": [
            {"name": w.spec.name, "frame_id": w.spec.frame_id,
             "size_bytes": w.spec.size_bytes, "node": w.node,
             "period": w.period, "offset": w.offset}
            for w in plan.dynamic_writers],
    }


def chain_to_dict(chain: ChainPlan) -> dict:
    return {"producer": chain.producer, "producer_ecu": chain.producer_ecu,
            "consumer": chain.consumer, "consumer_ecu": chain.consumer_ecu,
            "signal_name": chain.signal_name,
            "signal_bits": chain.signal_bits, "pdu_name": chain.pdu_name,
            "period": chain.period, "data_id": chain.data_id,
            "counter_bits": chain.counter_bits,
            "max_delta_counter": chain.max_delta_counter,
            "timeout": chain.timeout}


def tdma_to_dict(plan: TdmaPlan) -> dict:
    return {"ecu": plan.ecu, "partitions": list(plan.partitions),
            "major_frame": plan.major_frame,
            "tasks": [task_to_dict(t) for t in plan.tasks]}


def fault_to_dict(fault: FaultScenario) -> dict:
    return {"kind": fault.kind, "start": fault.start,
            "duration": fault.duration, "target": fault.target}


# ----------------------------------------------------------------------
# from dict
# ----------------------------------------------------------------------
def task_from_dict(data: dict) -> TaskSpec:
    return TaskSpec(data["name"], data["wcet"], period=data["period"],
                    offset=data["offset"], deadline=data["deadline"],
                    priority=data["priority"], partition=data["partition"],
                    max_activations=data["max_activations"],
                    budget=data["budget"], jitter=data["jitter"],
                    bcet=data["bcet"], criticality=data["criticality"])


def signal_from_dict(data: dict) -> SignalSpec:
    return SignalSpec(data["name"], data["width_bits"],
                      initial=data["initial"], transfer=data["transfer"],
                      timeout=data["timeout"])


def ipdu_from_dict(data: dict) -> IPdu:
    return IPdu(data["name"], data["size_bytes"],
                [SignalMapping(signal_from_dict(m["signal"]),
                               m["start_bit"], m["update_bit"])
                 for m in data["mappings"]])


def frame_spec_from_dict(data: dict) -> CanFrameSpec:
    return CanFrameSpec(data["name"], data["can_id"], dlc=data["dlc"],
                        period=data["period"], deadline=data["deadline"],
                        extended=data["extended"], jitter=data["jitter"])


def can_from_dict(data: dict) -> CanPlan:
    return CanPlan(
        data["bitrate_bps"],
        tuple(PackedFrame(ipdu_from_dict(f["ipdu"]), f["period"],
                          f["sender"]) for f in data["frames"]),
        tuple(frame_spec_from_dict(s) for s in data["frame_specs"]))


def flexray_from_dict(data: dict) -> FlexRayPlan:
    cfg = data["config"]
    config = FlexRayConfig(cfg["slot_length"], cfg["n_static_slots"],
                           minislot_length=cfg["minislot_length"],
                           n_minislots=cfg["n_minislots"],
                           nit_length=cfg["nit_length"],
                           bitrate_bps=cfg["bitrate_bps"])
    static = tuple(
        StaticWriter(StaticSlotAssignment(w["slot"], w["node"],
                                          w["frame_name"], w["base_cycle"],
                                          w["repetition"]),
                     w["period"], w["offset"])
        for w in data["static_writers"])
    dynamic = tuple(
        DynamicWriter(DynamicFrameSpec(w["name"], frame_id=w["frame_id"],
                                       size_bytes=w["size_bytes"]),
                      w["node"], w["period"], w["offset"])
        for w in data["dynamic_writers"])
    return FlexRayPlan(config, tuple(data["nodes"]), static, dynamic)


def chain_from_dict(data: dict) -> ChainPlan:
    return ChainPlan(**data)


def tdma_from_dict(data: dict) -> TdmaPlan:
    return TdmaPlan(data["ecu"], tuple(data["partitions"]),
                    data["major_frame"],
                    tuple(task_from_dict(t) for t in data["tasks"]))


def fault_from_dict(data: dict) -> FaultScenario:
    return FaultScenario(data["kind"], data["start"], data["duration"],
                         data.get("target", ""))
