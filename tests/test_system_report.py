"""Tests for the prior-to-implementation timing report, cross-checked
against the deployed system it predicts."""

import pytest

from repro.analysis import ChainProbe, timing_report
from repro.analysis.holistic import HolisticModel
from repro.core import (ClientServerInterface, Composition,
                        DataReceivedEvent, Operation,
                        OperationInvokedEvent, SenderReceiverInterface,
                        SwComponent, SystemModel, TimingEvent, UINT8, UINT16)
from repro.sim import Simulator
from repro.units import ms, us

DATA_IF = SenderReceiverInterface("d", {"v": UINT16})


def build_system(probe=None, declare_writes=True):
    sensor = SwComponent("Sensor")
    sensor.provide("out", DATA_IF)

    def sample(ctx):
        ctx.state["n"] = ctx.state.get("n", 0) + 1
        seq = ctx.state["n"] % 65536
        if probe is not None:
            probe.stamp(seq, ctx.now)
        ctx.write("out", "v", seq)

    sensor.runnable("sample", TimingEvent(ms(10)), sample, wcet=us(500),
                    writes=[("out", "v")] if declare_writes else None)
    # A second runnable so writer inference cannot kick in.
    sensor.runnable("housekeeping", TimingEvent(ms(100)),
                    lambda ctx: None, wcet=us(100))

    consumer = SwComponent("Consumer")
    consumer.require("in", DATA_IF)

    def consume(ctx):
        if probe is not None:
            probe.observe(ctx.read("in", "v"), ctx.now)

    consumer.runnable("consume", DataReceivedEvent("in", "v"), consume,
                      wcet=us(800))
    hog = SwComponent("Hog")
    hog.provide("out", DATA_IF)
    hog.runnable("burn", TimingEvent(ms(5)), lambda ctx: None,
                 wcet=ms(1))

    app = Composition("App")
    app.add(sensor.instantiate("sensor"))
    app.add(consumer.instantiate("consumer"))
    app.add(hog.instantiate("hog"))
    app.connect("sensor", "out", "consumer", "in")
    system = SystemModel("report")
    system.add_ecu("E1")
    system.add_ecu("E2")
    system.set_root(app)
    system.map("sensor", "E1")
    system.map("hog", "E1")
    system.map("consumer", "E2")
    system.configure_bus("can", bitrate_bps=500_000)
    return system


def test_report_analyses_unbuilt_system():
    report = timing_report(build_system())
    assert report.analysable and report.schedulable
    assert "sensor.sample" in report.task_wcrt
    assert "sensor.out" in report.frame_wcrt
    chain_name = "sensor.sample -> sensor.out -> consumer.consume"
    assert chain_name in report.chain_latency
    # The chain bound dominates its stages.
    assert report.chain_latency[chain_name] > \
        report.task_wcrt["sensor.sample"]


def test_report_bound_covers_deployed_reality():
    """The report is made before building; the built system must stay
    within its predictions."""
    probe = ChainProbe("check")
    system = build_system(probe)
    report = timing_report(system)
    chain_bound = report.chain_latency[
        "sensor.sample -> sensor.out -> consumer.consume"]
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(1000))
    # Per-task WCRTs hold...
    for task_name in ("sensor.sample", "hog.burn"):
        observed = max(runtime.response_times(task_name))
        assert observed <= report.task_wcrt[task_name]
    # ...and the end-to-end chain bound holds.
    assert probe.latencies
    assert probe.worst <= chain_bound


def test_report_flags_missing_writer_declaration():
    report = timing_report(build_system(declare_writes=False))
    assert report.analysable
    assert any("writes=" in issue for issue in report.issues)
    assert report.chain_latency == {}  # chain not analysable
    assert report.task_wcrt  # tasks still analysed


def test_report_rejects_invalid_configuration():
    system = build_system()
    del system.mapping["consumer"]
    report = timing_report(system)
    assert not report.analysable
    assert any("configuration" in issue for issue in report.issues)


def test_report_rejects_multi_domain():
    system = build_system()
    system.ecus["E2"].domain = "body"
    system.configure_domain_bus("body", "can")
    report = timing_report(system)
    assert not report.analysable
    assert any("single-domain" in issue for issue in report.issues)


def test_report_bound_covers_a_named_domain():
    """The one domain of a single-domain CAN system need not be named
    ``default``: its bitrate is the one analysed, so at 125 kbit/s the
    frame and chain bounds cover what the deployed system does."""
    probe = ChainProbe("named")
    sensor = SwComponent("Sensor")
    sensor.provide("out", DATA_IF)

    def sample(ctx):
        ctx.state["n"] = ctx.state.get("n", 0) + 1
        probe.stamp(ctx.state["n"], ctx.now)
        ctx.write("out", "v", ctx.state["n"])

    sensor.runnable("sample", TimingEvent(ms(10)), sample, wcet=us(100))
    sink = SwComponent("Sink")
    sink.require("in", DATA_IF)
    sink.runnable("consume", DataReceivedEvent("in", "v"),
                  lambda ctx: probe.observe(ctx.read("in", "v"), ctx.now),
                  wcet=us(100))
    app = Composition("App")
    app.add(sensor.instantiate("s"))
    app.add(sink.instantiate("k"))
    app.connect("s", "out", "k", "in")
    system = SystemModel("named-domain")
    system.add_ecu("E1", domain="body")
    system.add_ecu("E2", domain="body")
    system.set_root(app)
    system.map("s", "E1")
    system.map("k", "E2")
    system.configure_domain_bus("body", "can", bitrate_bps=125_000)
    report = timing_report(system)
    assert report.analysable and report.issues == []
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(200))
    frames = runtime.trace.records("can.rx", "s.out")
    assert frames and probe.latencies
    assert max(r.data["latency"] for r in frames) <= \
        report.frame_wcrt["s.out"]
    assert probe.worst <= report.chain_latency["s.sample -> s.out -> "
                                               "k.consume"]


def test_report_detects_unschedulable_design():
    # A saturated ECU: sensor (4/10) + hog (4/5) overload E1.
    sensor = SwComponent("Sensor")
    sensor.provide("out", DATA_IF)
    sensor.runnable("sample", TimingEvent(ms(10)), lambda ctx: None,
                    wcet=ms(4), writes=[("out", "v")])
    hog = SwComponent("Hog")
    hog.provide("out", DATA_IF)
    hog.runnable("burn", TimingEvent(ms(5)), lambda ctx: None,
                 wcet=ms(4))
    app = Composition("App")
    app.add(sensor.instantiate("sensor"))
    app.add(hog.instantiate("hog"))
    system = SystemModel("overload")
    system.add_ecu("E1")
    system.set_root(app)
    system.map_all("E1")
    report = timing_report(system)
    assert report.analysable
    assert not report.schedulable
    assert any("sensor.sample" in issue for issue in report.issues)


def test_report_anchors_local_data_triggered_consumers():
    """Same-ECU data-triggered tasks are linked task -> task (no bus
    hop), so mixed local/remote chains are fully analysed."""
    producer = SwComponent("P")
    producer.provide("out", DATA_IF)
    producer.runnable("tick", TimingEvent(ms(10)), lambda ctx: None,
                      wcet=us(200), writes=[("out", "v")])
    local = SwComponent("L")
    local.require("in", DATA_IF)
    local.provide("out", DATA_IF)
    local.runnable("hop", DataReceivedEvent("in", "v"),
                   lambda ctx: None, wcet=us(300),
                   writes=[("out", "v")])
    remote = SwComponent("R")
    remote.require("in", DATA_IF)
    remote.runnable("sink", DataReceivedEvent("in", "v"),
                    lambda ctx: None, wcet=us(400))
    app = Composition("App")
    app.add(producer.instantiate("p"))
    app.add(local.instantiate("l"))
    app.add(remote.instantiate("r"))
    app.connect("p", "out", "l", "in")   # local on E1
    app.connect("l", "out", "r", "in")   # cross to E2
    system = SystemModel("mixed")
    system.add_ecu("E1")
    system.add_ecu("E2")
    system.set_root(app)
    system.map("p", "E1")
    system.map("l", "E1")
    system.map("r", "E2")
    system.configure_bus("can")
    report = timing_report(system)
    assert report.analysable and report.schedulable
    assert "p.tick -> l.hop" in report.chain_latency
    full = report.chain_latency["l.hop -> l.out -> r.sink"]
    # The end of the chain dominates every upstream stage.
    assert full > report.chain_latency["p.tick -> l.hop"]
    assert full > report.frame_wcrt["l.out"]
    assert not any("excluded" in issue for issue in report.issues)


def test_report_frame_ids_match_deployed_bus():
    """The report's deterministic id allocation must mirror the RTE's."""
    system = build_system()
    report = timing_report(system)
    assert "sensor.out" in report.frame_wcrt
    sim = Simulator()
    runtime = system.build(sim)
    sim.run_until(ms(30))
    starts = runtime.trace.records("can.tx_start", "sensor.out")
    assert starts and starts[0].data["can_id"] == 0x100  # FIRST_CAN_ID


def senders_system(senders, client_server=False):
    """Each of ``senders`` (on E1) sends one frame to its own sink on
    E2; with ``client_server``, client ``c`` on E1 also calls server
    ``srv`` on E2 over one client-server request PDU."""
    sender = SwComponent("Tx")
    sender.provide("x", DATA_IF)
    sender.runnable("tick", TimingEvent(ms(10)), lambda ctx: None,
                    wcet=us(100), writes=[("x", "v")])
    sink = SwComponent("Rx")
    sink.require("in", DATA_IF)
    sink.runnable("sink", DataReceivedEvent("in", "v"), lambda ctx: None,
                  wcet=us(100))
    app = Composition("App")
    system = SystemModel("ids")
    system.add_ecu("E1")
    system.add_ecu("E2")
    for name in senders:
        app.add(sender.instantiate(name))
        app.add(sink.instantiate(f"{name}-sink"))
        app.connect(name, "x", f"{name}-sink", "in")
        system.map(name, "E1")
        system.map(f"{name}-sink", "E2")
    if client_server:
        act_if = ClientServerInterface(
            "act", {"set": Operation("set", {"level": UINT8})})
        server = SwComponent("Server")
        server.provide("srv", act_if)
        server.runnable("apply", OperationInvokedEvent("srv", "set"),
                        lambda ctx, level: None, wcet=us(50))
        client = SwComponent("Client")
        client.require("act", act_if)
        client.runnable("tick", TimingEvent(ms(20)),
                        lambda ctx: ctx.call("act", "set", level=1),
                        wcet=us(100))
        app.add(server.instantiate("srv"))
        app.add(client.instantiate("c"))
        app.connect("srv", "srv", "c", "act")
        system.map("srv", "E2")
        system.map("c", "E1")
    system.set_root(app)
    system.configure_bus("can")
    return system


def report_and_bus_ids(system, monkeypatch):
    """(CAN id of each frame the report hands its holistic model, CAN
    id of each frame the built runtime sends)."""
    analysed = {}
    add_frame = HolisticModel.add_frame

    def capture(model, spec):
        analysed[spec.name] = spec.can_id
        add_frame(model, spec)

    monkeypatch.setattr(HolisticModel, "add_frame", capture)
    report = timing_report(system)
    assert report.analysable
    runtime = system.build(Simulator())
    sent = {name: spec.can_id for ecu in runtime.ecus.values()
            for name, spec in ecu.com.adapter.frame_specs.items()}
    return analysed, sent


def test_report_frame_ids_follow_pdu_name_order(monkeypatch):
    # Tuple order puts ("a", "x") first; PDU-name order puts "a-b.x".
    analysed, sent = report_and_bus_ids(senders_system(["a", "a-b"]),
                                        monkeypatch)
    assert set(analysed) == {"a.x", "a-b.x"}
    assert analysed == {name: sent[name] for name in analysed}


def test_report_frame_ids_count_client_server_pdus(monkeypatch):
    # The request PDU "cs.c.act.set" takes an id before "d.x", which
    # then skips the pinned 0x102: the runtime ranks "d.x" below "q.x".
    system = senders_system(["a", "d", "q"], client_server=True)
    system.set_can_id("q.x", 0x102)
    analysed, sent = report_and_bus_ids(system, monkeypatch)
    assert set(analysed) == {"a.x", "d.x", "q.x"}
    assert analysed == {name: sent[name] for name in analysed}


def test_report_rejects_two_frames_sharing_a_can_id():
    system = senders_system(["a", "d"])
    system.set_can_id("a.x", 0x200)
    system.set_can_id("d.x", 0x200)
    assert system.validate() == ["PDUs a.x, d.x share CAN id 0x200"]
    report = timing_report(system)
    assert not report.analysable and not report.schedulable
    assert report.issues == [
        "configuration: PDUs a.x, d.x share CAN id 0x200"]


def test_report_names_each_unanalysed_request_frame():
    report = timing_report(senders_system(["a"], client_server=True))
    assert report.analysable and report.schedulable
    assert set(report.frame_wcrt) == {"a.x"}
    assert "cs.c.act.set: client-server request frame; excluded — " \
           "remaining WCRTs do not account for its interference" \
        in report.issues


def test_report_analyses_the_deployed_task_specs(monkeypatch):
    """Partitions and budgets the RTE deploys reach the analysis."""
    analysed = {}
    add_task = HolisticModel.add_task

    def capture(model, ecu, spec):
        analysed[spec.name] = spec
        add_task(model, ecu, spec)

    monkeypatch.setattr(HolisticModel, "add_task", capture)
    system = build_system()
    system.ecus["E1"].set_budget("sensor.sample", us(600))
    system.ecus["E2"].set_partition("consumer.consume", "P")
    report = timing_report(system)
    assert report.analysable and report.schedulable
    runtime = system.build(Simulator())
    for name, spec in analysed.items():
        assert spec == runtime.ecu_of(name.split(".")[0]).kernel \
            .tasks[name].spec
    assert analysed["sensor.sample"].budget == us(600)
    assert analysed["consumer.consume"].partition == "P"
