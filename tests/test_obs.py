"""Unit tests for the repro.obs telemetry layer: registry semantics,
span nesting, DLT channel ordering, and exporter round-trips."""

import json

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.dlt import DltChannel, severity_for_category
from repro.obs.exporters import (events_from_jsonl, events_to_jsonl,
                                 parse_prometheus_text, to_chrome_trace,
                                 to_prometheus_text, validate_chrome_trace)
from repro.obs.registry import (DEFAULT_NS_BUCKETS, MetricsRegistry,
                                RATIO_BUCKETS)
from repro.obs.spans import SpanRecorder


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test runs against a fresh, disabled ambient scope."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.counter("c").inc(4)
    reg.gauge("g").set(2.5)
    h = reg.histogram("h")
    h.observe(500)          # first bucket (<= 1000)
    h.observe(5_000_000)    # mid bucket
    snap = reg.snapshot()
    assert snap["counters"]["c"] == 5
    assert snap["gauges"]["g"]["value"] == 2.5
    assert snap["histograms"]["h"]["count"] == 2
    assert snap["histograms"]["h"]["min"] == 500
    assert snap["histograms"]["h"]["max"] == 5_000_000


def test_instrument_kind_collision_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ConfigurationError):
        reg.gauge("x")


def test_histogram_bucket_mismatch_raises():
    reg = MetricsRegistry()
    reg.histogram("h", buckets=(1, 2, 3))
    with pytest.raises(ConfigurationError):
        reg.histogram("h", buckets=(1, 2))


def test_histogram_buckets_must_ascend():
    reg = MetricsRegistry()
    with pytest.raises(ConfigurationError):
        reg.histogram("bad", buckets=(10, 5))
    # The stock bucket sets are valid by construction.
    reg.histogram("ns", buckets=DEFAULT_NS_BUCKETS)
    reg.histogram("ratio", buckets=RATIO_BUCKETS)


def test_percentiles_clamped_to_observed_range():
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=(100, 1000, 10_000))
    for value in (150, 200, 900, 5000):
        h.observe(value)
    assert h.percentile(0.0) >= 150
    assert h.percentile(1.0) <= 5000
    p50 = h.percentile(0.5)
    assert 150 <= p50 <= 1000
    with pytest.raises(ConfigurationError):
        h.percentile(1.5)


def test_percentile_single_sample_is_exact():
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=(1000,))
    h.observe(700)
    assert h.percentile(0.5) == 700  # clamped to [min, max], not mid-bucket


def test_overflow_bucket_reports_observed_max():
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=(10,))
    h.observe(99)
    assert h.counts[-1] == 1
    assert h.percentile(0.99) == 99


def test_merge_is_associative_and_order_fixes_gauges():
    a, b, merged = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    a.counter("n").inc(2)
    b.counter("n").inc(3)
    a.gauge("last").set(1)
    b.gauge("last").set(2)
    a.histogram("h").observe(100)
    b.histogram("h").observe(2000)
    merged.merge(a.snapshot())
    merged.merge(b.snapshot())
    snap = merged.snapshot()
    assert snap["counters"]["n"] == 5
    assert snap["gauges"]["last"]["value"] == 2  # later merge wins
    assert snap["histograms"]["h"]["count"] == 2
    assert snap["histograms"]["h"]["min"] == 100
    assert snap["histograms"]["h"]["max"] == 2000


def test_digest_excludes_nondeterministic_instruments():
    a, b = MetricsRegistry(), MetricsRegistry()
    for reg, wall in ((a, 123), (b, 456_000)):
        reg.counter("n").inc()
        reg.histogram("wall_ns", deterministic=False).observe(wall)
        reg.gauge("pid", deterministic=False).set(id(reg))
    assert a.digest() == b.digest()
    b.counter("n").inc()  # deterministic difference must show
    assert a.digest() != b.digest()


# ---------------------------------------------------------------------------
# enable/disable and helpers
# ---------------------------------------------------------------------------
def test_helpers_are_noops_while_disabled():
    obs.count("x")
    obs.observe("y", 5)
    obs.gauge_set("z", 1)
    obs.dlt(0, obs.ERROR, "E", "APP", "CTX", "nope")
    with obs.span("s"):
        pass
    assert len(obs.registry()) == 0
    assert len(obs.spans().records) == 0
    assert len(obs.dlt_channel()) == 0


def test_disabled_span_is_shared_singleton():
    assert obs.span("a") is obs.span("b") is obs.NULL_SPAN


def test_span_nesting_depth_and_counters():
    obs.enable()
    with obs.span("outer"):
        with obs.span("inner"):
            pass
        with obs.span("inner"):
            pass
    records = obs.spans().records
    assert [r.name for r in records] == ["inner", "inner", "outer"]
    depths = {r.name: r.depth for r in records}
    assert depths == {"inner": 1, "outer": 0}
    assert [r.seq for r in records] == [1, 2, 3]
    counters = obs.registry().snapshot()["counters"]
    assert counters["span.outer"] == 1
    assert counters["span.inner"] == 2


def test_traced_decorator():
    obs.enable()

    @obs.traced("work")
    def work(x):
        return x + 1

    assert work(1) == 2
    assert [r.name for r in obs.spans().records] == ["work"]


# ---------------------------------------------------------------------------
# DLT
# ---------------------------------------------------------------------------
def test_dlt_channel_monotonic_seq_and_queries():
    channel = DltChannel()
    channel.log(10, obs.ERROR, "EcuA", "DEM", "ev1", "confirmed")
    channel.log(10, obs.INFO, "EcuA", "DEM", "ev1", "healed")
    channel.log(20, obs.FATAL, "EcuB", "WDG", "t1", "violation")
    assert [r.seq for r in channel.records] == [1, 2, 3]
    assert channel.severity_counts() == {"fatal": 1, "error": 1, "info": 1}
    assert len(channel.by_severity(obs.FATAL)) == 1


def test_dlt_merge_resequences():
    a, b, merged = DltChannel(), DltChannel(), DltChannel()
    a.log(1, obs.ERROR, "E", "DEM", "x", "m1")
    b.log(2, obs.WARN, "E", "RECOVERY", "x", "m2")
    merged.merge(a.snapshot())
    merged.merge(b.snapshot())
    assert [r.seq for r in merged.records] == [1, 2]
    assert [r.message for r in merged.records] == ["m1", "m2"]


def test_severity_for_category_table():
    assert severity_for_category("wdg.violation") == obs.FATAL
    assert severity_for_category("dem.confirmed") == obs.ERROR
    assert severity_for_category("dem.healed") == obs.INFO
    assert severity_for_category("recovery.escalate") == obs.WARN
    assert severity_for_category("unknown.thing") == obs.WARN


def test_harvest_trace_filters_and_counts():
    from repro.sim.trace import Trace

    trace = Trace()
    trace.log(5, "dem.confirmed", "ev", dtc=1)
    trace.log(6, "task.activate", "t")       # not BSW-relevant
    trace.log(7, "task.budget_overrun", "t")
    trace.log(8, "com.timeout", "sig")
    trace.log(9, "can.rx", "frame")          # not BSW-relevant
    obs.enable()
    added = obs.harvest_trace(trace, node="EcuX")
    assert added == 3
    counters = obs.registry().snapshot()["counters"]
    assert counters["dlt.error"] == 3
    assert all(r.ecu == "EcuX" for r in obs.dlt_channel().records)
    assert [r.message for r in obs.dlt_channel().records] == [
        "dem.confirmed", "task.budget_overrun", "com.timeout"]


def test_harvest_trace_skips_prefixes_logged_live():
    from repro.sim.trace import Trace

    trace = Trace()
    trace.log(5, "dem.confirmed", "ev", dtc=1)
    trace.log(6, "wdg.violation", "t")
    trace.log(7, "mode.switch", "m")
    obs.enable()
    assert obs.harvest_trace(trace, skip=("dem",)) == 2
    assert [r.message for r in obs.dlt_channel().records] == [
        "wdg.violation", "mode.switch"]


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------
def _sample_snapshot():
    reg = MetricsRegistry()
    reg.counter("can.frames").inc(7)
    reg.gauge("depth").set(3)
    h = reg.histogram("lat_ns", buckets=(100, 1000))
    for value in (50, 150, 5000):
        h.observe(value)
    return reg.snapshot()


def test_prometheus_round_trip():
    snap = _sample_snapshot()
    text = to_prometheus_text(snap)
    parsed = parse_prometheus_text(text)
    assert parsed["counters"]["repro_can_frames"] == 7
    assert parsed["gauges"]["repro_depth"]["value"] == 3
    hist = parsed["histograms"]["repro_lat_ns"]
    assert hist["buckets"] == [100, 1000]
    assert hist["counts"] == snap["histograms"]["lat_ns"]["counts"]
    assert hist["sum"] == 5200 and hist["count"] == 3


def test_prometheus_quantile_lines_round_trip():
    from repro.obs.registry import Histogram

    snap = _sample_snapshot()
    text = to_prometheus_text(snap)
    # Exposition text carries p50/p90/p99 summary-style quantile lines.
    assert 'repro_lat_ns{quantile="0.5"}' in text
    assert 'repro_lat_ns{quantile="0.99"}' in text
    parsed = parse_prometheus_text(text)
    quantiles = parsed["histograms"]["repro_lat_ns"]["quantiles"]
    # Parsed quantiles equal the interpolation over the same snapshot.
    scratch = MetricsRegistry()
    reference: Histogram = scratch.histogram(
        "ref", snap["histograms"]["lat_ns"]["buckets"])
    reference.counts = list(snap["histograms"]["lat_ns"]["counts"])
    reference.count = snap["histograms"]["lat_ns"]["count"]
    reference.sum = snap["histograms"]["lat_ns"]["sum"]
    reference.min = snap["histograms"]["lat_ns"]["min"]
    reference.max = snap["histograms"]["lat_ns"]["max"]
    for token in ("0.5", "0.9", "0.99"):
        assert quantiles[token] == reference.percentile(float(token))


def test_prometheus_empty_histogram_emits_no_quantiles():
    reg = MetricsRegistry()
    reg.histogram("empty_ns", buckets=(100, 1000))
    text = to_prometheus_text(reg.snapshot())
    assert "quantile=" not in text
    parsed = parse_prometheus_text(text)
    assert "quantiles" not in parsed["histograms"]["repro_empty_ns"]


def test_prometheus_rejects_unknown_lines():
    with pytest.raises(ConfigurationError):
        parse_prometheus_text("weird_metric 42\n")
    with pytest.raises(ConfigurationError):
        # A labeled line that is neither a bucket nor a known-histogram
        # quantile must still raise, not silently vanish.
        parse_prometheus_text('mystery{quantile="0.5"} 1\n')


def test_chrome_trace_valid_and_rebased():
    obs.enable()
    with obs.span("outer"):
        with obs.span("inner"):
            pass
    obs.dlt(123, obs.ERROR, "E", "DEM", "ev", "confirmed")
    trace = to_chrome_trace(obs.spans().snapshot(),
                            obs.dlt_channel().snapshot())
    assert validate_chrome_trace(trace) == []
    xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert min(e["ts"] for e in xs) == 0.0
    instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
    assert instants[0]["args"]["sim_time_ns"] == 123
    # Must survive a JSON round trip (what --trace-out writes).
    assert validate_chrome_trace(json.loads(json.dumps(trace))) == []


def test_validate_chrome_trace_reports_problems():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []


def test_events_jsonl_round_trip():
    obs.enable()
    obs.count("c", 2)
    with obs.span("s"):
        pass
    obs.dlt(5, obs.WARN, "E", "APP", "ctx", "msg", extra=1)
    text = events_to_jsonl(obs.registry().snapshot(),
                           obs.spans().snapshot(),
                           obs.dlt_channel().snapshot())
    events = events_from_jsonl(text)
    kinds = {e["type"] for e in events}
    assert {"counter", "span", "dlt", "histogram"} <= kinds
    dlt_rows = [e for e in events if e["type"] == "dlt"]
    assert dlt_rows[0]["payload"] == {"extra": 1}


def test_stats_summarize_all_formats(tmp_path):
    from repro.obs.stats import summarize_paths

    obs.enable()
    obs.count("n", 3)
    obs.observe("lat_ns", 500)
    with obs.span("phase"):
        pass
    obs.dlt(1, obs.ERROR, "E", "DEM", "ev", "confirmed")
    prom = obs.write_prometheus(tmp_path / "m.prom")
    chrome = obs.write_chrome_trace(tmp_path / "t.json")
    events = obs.write_events_jsonl(tmp_path / "e.jsonl")
    text = summarize_paths([prom, chrome, events], top=5)
    assert "repro_n" in text
    assert "phase" in text
    assert "DEM" in text


def test_stats_summarizes_a_one_line_event_log(tmp_path):
    from repro.obs.stats import summarize_paths

    obs.enable()
    obs.count("n")
    path = tmp_path / "one.jsonl"
    path.write_text(events_to_jsonl(obs.registry().snapshot(),
                                    obs.spans().snapshot(),
                                    obs.dlt_channel().snapshot()))
    assert len(path.read_text().splitlines()) == 1
    text = summarize_paths([str(path)])
    assert "top 10 spans by cumulative time:" in text
    assert "DLT events:" in text


def test_stats_lists_the_counters_of_an_event_log(tmp_path):
    from repro.obs.stats import summarize_paths

    def counter_rows(path):
        lines = [line.rstrip()
                 for line in summarize_paths([path]).splitlines()]
        start = lines.index("counters:") + 2  # past the column header
        return lines[start:lines.index("", start)]

    obs.enable()
    obs.count("verify.systems", 3)
    obs.count("n")
    events = obs.write_events_jsonl(tmp_path / "e.jsonl")
    prom = obs.write_prometheus(tmp_path / "m.prom")
    assert counter_rows(events) == ["  n               1",
                                    "  verify.systems  3"]
    assert len(counter_rows(prom)) == 2


HISTOGRAM = {"type": "histogram", "name": "h", "count": 1, "sum": 5,
             "buckets": [10], "counts": [1, 0]}


@pytest.mark.parametrize("event, problem", [
    ("x", "not an event object"),
    ({"name": "n"}, "event has no string 'type'"),
    ({"type": "span", "name": "s", "duration_ns": "5"},
     "span event's 'duration_ns' must be a JSON number"),
    (dict(HISTOGRAM, counts=[1]),
     "histogram event's 'counts' do not fit its 'buckets'"),
    (dict(HISTOGRAM, buckets=["10"]),
     "histogram event's 'counts' do not fit its 'buckets'"),
    ({"type": "dlt", "severity": "error", "seq": "1"},
     "dlt event's 'seq' must be a JSON integer"),
    ({"type": "counter", "name": "n"}, "counter event lacks 'value'"),
    ({"type": "counter", "name": 5, "value": 1},
     "counter event's 'name' must be a JSON string"),
])
def test_stats_names_the_line_of_an_unreadable_event(tmp_path, event,
                                                      problem):
    from repro.obs.stats import summarize_paths

    path = tmp_path / "e.jsonl"
    path.write_text(f"{json.dumps(HISTOGRAM)}\n\n{json.dumps(HISTOGRAM)}\n"
                    f"{json.dumps(event)}\n")
    with pytest.raises(ConfigurationError, match=f"line 4: {problem}"):
        summarize_paths([str(path)])


def test_events_from_jsonl_names_the_line_of_an_unreadable_event():
    # The exporters' reader is the one `repro stats` loads logs with.
    good = json.dumps(HISTOGRAM)
    assert events_from_jsonl(f"{good}\n\n{good}\n") == [HISTOGRAM] * 2
    with pytest.raises(ConfigurationError,
                       match="line 3: counter event lacks 'value'"):
        events_from_jsonl(
            f"{good}\n\n{json.dumps({'type': 'counter', 'name': 'n'})}\n")
    with pytest.raises(ValueError, match="^line 3, column 2: Expecting"):
        events_from_jsonl(f"{good}\n\n{{oops\n")
