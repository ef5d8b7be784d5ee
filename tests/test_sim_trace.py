"""Unit tests for trace recording and derived metrics."""

import pytest
from hypothesis import given, settings, strategies as st

from trace_reference import reference_records

from repro.sim import Record, Trace, summarize
from repro.sim.clock import DriftingClock, precision


def test_prefix_matching_is_token_based():
    tr = Trace()
    tr.log(1, "taskish.thing", "X")
    assert tr.records("task") == []


def test_filter_by_subject_and_predicate():
    tr = Trace()
    tr.log(1, "task.complete", "A", response=10)
    tr.log(2, "task.complete", "B", response=99)
    assert [r.subject for r in tr.records("task.complete", "B")] == ["B"]
    heavy = tr.records("task.complete",
                       predicate=lambda r: r.data.get("response", 0) > 50)
    assert [r.subject for r in heavy] == ["B"]


def test_spans_pairs_starts_with_following_ends():
    tr = Trace()
    tr.log(0, "s", "x")
    tr.log(5, "e", "x")
    tr.log(10, "s", "x")
    tr.log(18, "e", "x")
    tr.log(20, "s", "x")  # unmatched trailing start
    assert tr.spans("s", "e", "x") == [(0, 5), (10, 18)]


def test_response_times_from_spans():
    tr = Trace()
    tr.log(0, "task.activate", "T")
    tr.log(7, "task.complete", "T")
    tr.log(10, "task.activate", "T")
    tr.log(13, "task.complete", "T")
    assert tr.response_times("T") == [7, 3]


def test_jitter_peak_to_peak():
    tr = Trace()
    for t in (0, 10, 25, 35):  # intervals 10, 15, 10
        tr.log(t, "task.start", "T")
    assert tr.jitter("task.start", "T") == 5


def test_jitter_needs_three_records():
    tr = Trace()
    tr.log(0, "x", "T")
    tr.log(10, "x", "T")
    assert tr.jitter("x", "T") == 0


def test_summarize_empty_and_nonempty():
    assert summarize([]) == {"count": 0, "min": None, "avg": None, "max": None}
    s = summarize([2, 4, 6])
    assert (s["count"], s["min"], s["avg"], s["max"]) == (3, 2, 4.0, 6)


def test_clear():
    tr = Trace()
    tr.log(0, "a", "b")
    tr.clear()
    assert len(tr) == 0


def test_drifting_clock_fast_and_slow():
    fast = DriftingClock(drift_ppm=100)
    slow = DriftingClock(drift_ppm=-100)
    t = 1_000_000_000  # 1 s
    assert fast.local_time(t) == t + 100_000
    assert slow.local_time(t) == t - 100_000
    assert fast.error_at(t) == 100_000


def test_clock_resynchronize_cancels_offset():
    clock = DriftingClock(drift_ppm=200, offset_ns=5_000)
    t = 500_000_000
    clock.resynchronize(t)
    assert clock.error_at(t) == 0
    # error grows again after resync
    assert clock.error_at(t + 1_000_000_000) > 0


def test_precision_bound_covers_pairwise_drift():
    clocks = [DriftingClock(drift_ppm=d) for d in (50, -80, 20)]
    interval = 10_000_000  # 10 ms resync
    p = precision(clocks, interval)
    worst_pair = (clocks[0].drift_ppm - clocks[1].drift_ppm) / 1e6 * interval
    assert p >= worst_pair


def test_precision_empty_is_zero():
    assert precision([], 1000) == 0


def test_record_get_tolerates_missing_data_keys():
    tr = Trace()
    tr.log(1, "task.complete", "T", response=7)
    tr.log(2, "task.complete", "T")  # partially instrumented record
    full, bare = tr.records("task.complete")
    assert full.get("response") == 7
    assert bare.get("response") is None
    assert bare.get("response", -1) == -1


def test_record_is_immutable():
    record = Record(1, "a", "b", {})
    with pytest.raises(AttributeError):
        record.time = 2
    assert record.time == 1


def test_record_repr_names_every_field():
    assert repr(Record(1, "a", "b", {})) == \
        "Record(time=1, category='a', subject='b', data={})"


def test_record_get_returns_the_default_for_a_missing_key():
    record = Record(1, "a", "b", {"x": 3})
    assert record.get("x") == 3
    assert record.get("y") is None
    assert record.get("y", 7) == 7


def test_records_with_equal_fields_compare_equal():
    assert Record(1, "a", "b", {"x": 1}) == Record(1, "a", "b", {"x": 1})
    assert Record(1, "a", "b", {"x": 1}) != Record(1, "a", "b", {"x": 2})
    assert Record(1, "a", "b", {}) == (1, "a", "b", {})


def test_logged_record_carries_the_keyword_payload_as_data():
    tr = Trace()
    tr.log(5, "task.complete", "T1", response=10, core=0)
    record, = tr
    assert record == Record(5, "task.complete", "T1",
                            {"response": 10, "core": 0})
    assert record.data == {"response": 10, "core": 0}


def test_data_values_skips_records_without_the_key():
    tr = Trace()
    tr.log(1, "task.complete", "T", response=7)
    tr.log(2, "task.complete", "T")
    tr.log(3, "task.complete", "T", response=9)
    tr.log(4, "task.complete", "U", response=99)
    assert tr.data_values("task.complete", "response", "T") == [7, 9]
    assert tr.data_values("task.complete", "response") == [7, 9, 99]
    assert tr.data_values("task.complete", "missing") == []


# ----------------------------------------------------------------------
# Index parity: every read path against the reference scan
# ----------------------------------------------------------------------
#: Categories sharing dotted prefixes, so an exact query sits beside
#: neighbours a prefix match would wrongly take in.
CATEGORIES = ("task", "task.activate", "task.activate.x", "taskish")
SUBJECTS = ("A", "B", "C")
#: Every query form: each logged category plus one never logged, times
#: subject, times predicate.
QUERIES = [(category, subject, predicate)
           for category in CATEGORIES + ("bus",)
           for subject in (None,) + SUBJECTS
           for predicate in (None, lambda r: r.data["n"] % 2 == 0,
                             lambda r: r.time >= 5)]
#: Category sets for ``select``: empty, one, several, one never logged.
SELECTIONS = [frozenset(), frozenset({"task"}),
              frozenset({"task", "taskish"}),
              frozenset({"task.activate", "task.activate.x", "bus"}),
              frozenset(CATEGORIES)]

#: A step logs one record, runs every query, or resets the trace.
_step = st.one_of(
    st.tuples(st.sampled_from(CATEGORIES), st.sampled_from(SUBJECTS),
              st.integers(0, 9)),
    st.sampled_from(("query", "query", "query", "query", "clear")))


def assert_fresh(answer, ask):
    """``answer`` is a list the trace does not keep: emptying it leaves
    the next ``ask()`` unchanged."""
    expected = list(answer)
    answer.append(None)
    answer.clear()
    assert ask() == expected


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(_step, max_size=60))
def test_indexed_records_match_the_reference_scan(steps):
    trace = Trace()
    logged = []
    for seq, step in enumerate(steps):
        if step == "query":
            assert list(trace) == logged
            assert len(trace) == len(logged)
            for query in QUERIES:
                got = trace.records(*query)
                expected = reference_records(logged, *query)
                assert got == expected
                assert all(type(r) is Record for r in got)
                assert_fresh(got, lambda: trace.records(*query))
                category, subject, predicate = query
                if predicate is None:
                    assert trace.times(category, subject) == \
                        [r.time for r in expected]
                    assert trace.data_values(category, "n", subject) == \
                        [r.data["n"] for r in expected]
                    assert trace.data_values(category, "missing",
                                             subject) == []
            for categories in SELECTIONS:
                got = trace.select(categories)
                assert got == [r for r in logged if r.category in categories]
                assert_fresh(got, lambda: trace.select(categories))
        elif step == "clear":
            trace.clear()
            logged.clear()
        else:
            category, subject, n = step
            trace.log(seq, category, subject, n=n)
            logged.append(Record(seq, category, subject, {"n": n}))
