"""The bench-trajectory aggregator and its committed aggregate.

``benchmarks/trajectory.py`` normalises every ``BENCH_*.json`` at the
repo root into one flat, plottable ``BENCH_trajectory.json``.  Pinned
here: the flattener's numeric-leaf semantics, the schema validator's
readable problem rows, byte-determinism, the committed aggregate being
in sync with its sources (the same regenerate-on-change contract the
generated test suite lives under), and readable errors for malformed
inputs.
"""

import importlib.util
import json
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_trajectory",
    os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "benchmarks", "trajectory.py"))
trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory)


def write_bench(root, name, doc):
    path = os.path.join(root, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


@pytest.fixture
def bench_root(tmp_path):
    write_bench(tmp_path, "alpha", {
        "bench": "alpha", "quick": False,
        "gates": {"enforced": True, "floor": 2.0, "ok": True},
        "timing": {"events_per_s": 1000.5, "events": 90,
                   "label": "warm", "nested": {"deep": 3}},
    })
    write_bench(tmp_path, "beta", {
        "bench": "beta", "quick": True,
        "speedup": 4.5,
    })
    return str(tmp_path)


# ----------------------------------------------------------------------
# flattening + building
# ----------------------------------------------------------------------
def test_flatten_keeps_numeric_leaves_only():
    flat = trajectory.flatten_numeric({
        "a": {"b": 1, "c": 2.5, "ok": True, "name": "x"},
        "d": 3, "e": {"f": {"g": 4}}})
    assert flat == {"a.b": 1, "a.c": 2.5, "d": 3, "e.f.g": 4}


def test_build_trajectory_shape(bench_root):
    doc = trajectory.build_trajectory(bench_root)
    assert doc["format"] == trajectory.TRAJECTORY_FORMAT
    assert doc["benchmarks"] == 2
    alpha, beta = doc["entries"]
    assert [alpha["bench"], beta["bench"]] == ["alpha", "beta"]
    assert alpha["gates"] == {"enforced": True, "floor": 2.0,
                              "ok": True}
    assert alpha["metrics"] == {"timing.events_per_s": 1000.5,
                                "timing.events": 90,
                                "timing.nested.deep": 3}
    assert beta["quick"] is True and beta["gates"] == {}
    assert len(alpha["sha256"]) == 64
    assert trajectory.validate_trajectory(doc) == []


def test_build_is_byte_deterministic(bench_root):
    first = trajectory.trajectory_json(
        trajectory.build_trajectory(bench_root))
    second = trajectory.trajectory_json(
        trajectory.build_trajectory(bench_root))
    assert first == second


def test_malformed_source_is_a_readable_error(bench_root):
    bad = os.path.join(bench_root, "BENCH_broken.json")
    with open(bad, "w", encoding="utf-8") as handle:
        handle.write("{not json")
    with pytest.raises(ValueError) as excinfo:
        trajectory.build_trajectory(bench_root)
    assert "not valid JSON" in str(excinfo.value)


def test_source_without_bench_name_is_rejected(bench_root):
    write_bench(bench_root, "anon", {"speedup": 2.0})
    with pytest.raises(ValueError) as excinfo:
        trajectory.build_trajectory(bench_root)
    assert "missing its 'bench' name" in str(excinfo.value)


def test_duplicate_bench_names_are_rejected(bench_root):
    write_bench(bench_root, "alpha2", {"bench": "alpha", "x": 1})
    with pytest.raises(ValueError) as excinfo:
        trajectory.build_trajectory(bench_root)
    assert "duplicate bench names" in str(excinfo.value)


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
def test_validator_reports_each_problem(bench_root):
    doc = trajectory.build_trajectory(bench_root)
    doc["format_version"] = 99
    doc["benchmarks"] = 7
    doc["entries"][0]["sha256"] = "short"
    doc["entries"][1]["metrics"]["speedup"] = "fast"
    problems = trajectory.validate_trajectory(doc)
    assert any("format_version" in p for p in problems)
    assert any("benchmarks: says 7" in p for p in problems)
    assert any("sha256 must be 64 hex chars" in p for p in problems)
    assert any("metric 'speedup' is not numeric" in p
               for p in problems)


def test_validator_rejects_unsorted_entries(bench_root):
    doc = trajectory.build_trajectory(bench_root)
    doc["entries"].reverse()
    assert any("not sorted" in p
               for p in trajectory.validate_trajectory(doc))


# ----------------------------------------------------------------------
# the committed aggregate
# ----------------------------------------------------------------------
def test_committed_trajectory_is_in_sync():
    """BENCH_trajectory.json must match a rebuild from the committed
    BENCH_*.json files — the tier-1 mirror of `--check`."""
    rebuilt = trajectory.trajectory_json(
        trajectory.build_trajectory(trajectory.REPO_ROOT))
    path = os.path.join(trajectory.REPO_ROOT, trajectory.OUTPUT_NAME)
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == rebuilt
    doc = json.loads(rebuilt)
    assert trajectory.validate_trajectory(doc) == []
    assert {e["bench"] for e in doc["entries"]} >= {"e17_perf",
                                                    "e19_meas"}


def test_write_bench_routes_quick_runs_out_of_discovery(tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(trajectory, "REPO_ROOT", str(tmp_path))
    monkeypatch.setattr(trajectory, "QUICK_DIR",
                        str(tmp_path / ".bench_build"))
    quick = trajectory.write_bench({"bench": "alpha", "quick": True})
    assert quick == str(tmp_path / ".bench_build" / "BENCH_alpha.json")
    assert trajectory.discover(str(tmp_path)) == []
    full = trajectory.write_bench({"bench": "alpha", "quick": False})
    assert trajectory.discover(str(tmp_path)) == [full]


def test_quick_bench_run_leaves_the_committed_file_alone(tmp_path,
                                                         monkeypatch):
    """A ``--quick`` E17 run writes under the quick directory; the
    committed full-mode ``BENCH_e17_perf.json`` keeps its bytes."""
    monkeypatch.syspath_prepend(os.path.dirname(_SPEC.origin))
    import bench_e17_perf
    import trajectory as bench_trajectory

    monkeypatch.setattr(bench_trajectory, "QUICK_DIR", str(tmp_path))
    committed = os.path.join(trajectory.REPO_ROOT, "BENCH_e17_perf.json")
    with open(committed, "rb") as handle:
        before = handle.read()
    rows = bench_e17_perf.run(quick=True)
    bench_e17_perf.check(rows)
    with open(committed, "rb") as handle:
        assert handle.read() == before
    with open(tmp_path / "BENCH_e17_perf.json", encoding="utf-8") as handle:
        assert json.load(handle)["quick"] is True


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_write_then_check_round_trip(bench_root, capsys):
    assert trajectory.main(["--root", bench_root]) == 0
    assert "wrote" in capsys.readouterr().out
    assert trajectory.main(["--root", bench_root, "--check"]) == 0
    assert "IN SYNC" in capsys.readouterr().out


def test_cli_check_fails_on_drift(bench_root, capsys):
    assert trajectory.main(["--root", bench_root]) == 0
    capsys.readouterr()
    write_bench(bench_root, "alpha", {"bench": "alpha",
                                      "speedup": 9.9})
    assert trajectory.main(["--root", bench_root, "--check"]) == 1
    assert "DRIFT" in capsys.readouterr().out


def test_cli_check_missing_aggregate_fails(bench_root, capsys):
    assert trajectory.main(["--root", bench_root, "--check"]) == 1
    assert "missing" in capsys.readouterr().err


def test_cli_malformed_source_exits_2(bench_root, capsys):
    with open(os.path.join(bench_root, "BENCH_bad.json"), "w",
              encoding="utf-8") as handle:
        handle.write("[1, 2")
    assert trajectory.main(["--root", bench_root]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# ----------------------------------------------------------------------
# --pipeline: BENCH_pipeline.json from two run.py --out files
# ----------------------------------------------------------------------
E2E = ("items_per_s", "item_ms_p50", "item_ms_p90", "events_per_s",
       "setup_s", "peak_rss_mb")


def pipeline_results(path, runs):
    """A ``run.py --out`` document holding ``runs``, each given as
    ``(workload, traced, scale)``: every end-to-end metric reads
    ``scale`` times its position in :data:`E2E` plus one."""
    doc = {"format": 1, "host": {"nproc": 2}, "runs": [
        {"workload": workload, "seed": 11, "trace": traced,
         "seconds": 20, "correct": True,
         "metrics": {name: {"value": scale * (i + 1), "unit": "x"}
                     for i, name in enumerate(E2E)}}
        for workload, traced, scale in runs]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return str(path)


@pytest.fixture
def pipeline_pair(tmp_path):
    parent = pipeline_results(tmp_path / "parent.json", [
        ("verify-large", False, 1), ("verify-large", False, 3),
        ("verify-large", False, 2), ("verify-large", True, 100),
        ("campaign", False, 5)])
    change = pipeline_results(tmp_path / "change.json", [
        ("verify-large", False, 4), ("verify-large", False, 6),
        ("fuzz", False, 7)])
    return parent, change


def test_pipeline_bench_takes_untraced_medians_per_side(pipeline_pair):
    doc = trajectory.pipeline_bench(*pipeline_pair)
    assert doc["bench"] == "pipeline" and doc["quick"] is False
    # only workloads both sides ran; the traced run is left out
    assert list(doc["workloads"]) == ["verify-large"]
    sides = doc["workloads"]["verify-large"]
    assert sides["parent"] == dict(
        {name: 2 * (i + 1) for i, name in enumerate(E2E)}, runs=3)
    assert sides["change"] == dict(
        {name: 5 * (i + 1) for i, name in enumerate(E2E)}, runs=2)


def test_cli_pipeline_writes_an_aggregatable_bench(pipeline_pair,
                                                   tmp_path,
                                                   monkeypatch, capsys):
    root = tmp_path / "root"
    root.mkdir()
    with open(os.path.join(trajectory.REPO_ROOT, "BENCHMARK.json"),
              encoding="utf-8") as spec:
        (root / "BENCHMARK.json").write_text(spec.read())
    monkeypatch.setattr(trajectory, "REPO_ROOT", str(root))
    assert trajectory.main(["--pipeline", *pipeline_pair]) == 0
    assert "BENCH_pipeline.json" in capsys.readouterr().out
    entry, = trajectory.build_trajectory(str(root))["entries"]
    assert entry["bench"] == "pipeline"
    assert entry["metrics"]["workloads.verify-large.change.items_per_s"] \
        == 5
    assert entry["metrics"]["workloads.verify-large.parent.runs"] == 3


def test_cli_pipeline_rejects_a_non_results_file(pipeline_pair, tmp_path,
                                                 capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"runs": [{"workload": "fuzz"}]}')
    assert trajectory.main(["--pipeline", pipeline_pair[0],
                            str(bogus)]) == 2
    assert "not a pipeline results file" in capsys.readouterr().err
