"""Harness tests for the pipeline benchmark: ``pytest benchmarks/pipeline``.

Round 0 of every workload at the pinned seed runs once untraced and once
traced (about half a minute); the tests below share those runs.  The
full-size seed-7 calls are marked ``slow`` (about 70 s).
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

PINS = json.loads((HERE / "pins.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def rounds():
    """workload -> (untraced round, traced round, tracer)."""
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        first = workload.inputs(workloads.round_seed(PINS["seed"], 0))
        probe = layers.Probe(workload.item)
        with layers.Patches() as patches:
            probe.install(patches)
            [plain] = child.run_rounds(workload, PINS["seed"], probe, first,
                                       count=1)
        tracer = layers.Tracer(workload.item)
        with layers.Patches() as patches:
            tracer.install(patches)
            [traced] = child.run_rounds(workload, PINS["seed"], tracer,
                                        first, count=1, stage=tracer.stage)
        out[name] = (plain, traced, tracer)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_round0_is_correct_and_matches_pins(rounds, name):
    plain, _, _ = rounds[name]
    assert plain["problems"] == []
    assert {key: plain[key] for key in PINS["rounds"][name]} \
        == PINS["rounds"][name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracer_is_transparent(rounds, name):
    plain, traced, _ = rounds[name]
    assert traced["problems"] == []
    for key in ("digest", "items", "events"):
        assert traced[key] == plain[key]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_owner_events_and_self_times_add_up(rounds, name):
    _, traced, tracer = rounds[name]
    owners = tracer.owner_totals()
    assert sum(events for events, _ in owners.values()) == tracer.events
    assert tracer.events == traced["events"] > 0
    self_s = sum(s for _, s in tracer.layers.values()) \
        + sum(s for _, s in owners.values())
    assert self_s <= traced["wall"]
    assert len(tracer.times) == traced["items"]


def test_every_declared_layer_is_exercised(rounds):
    called = set()
    for _, _, tracer in rounds.values():
        called |= {layer for layer, (calls, _) in tracer.layers.items()
                   if calls}
        called |= {owner for owner, (events, _)
                   in tracer.owner_totals().items() if events}
    # shrink runs only on a fuzz finding, and sim.other only catches
    # callbacks outside the mapped modules; neither occurs here.
    expected = set(layers.STAGE_LAYERS) | set(layers.OWNER_LAYERS) \
        | {"sim.kernel"}
    assert expected - called == {"shrink", layers.OTHER_OWNER}
    assert rounds["campaign"][2].owner_totals()["sim.flexray"][0] == 0


def test_wrappers_sit_on_the_bindings_callers_use():
    tracer = layers.Tracer(("repro.verify.oracle", "verify_system"))
    fuzz = importlib.import_module("repro.verify.fuzz")
    oracle = importlib.import_module("repro.verify.oracle")
    originals = (fuzz.shrink, fuzz.mutate, fuzz.verify_system,
                 oracle.generate_many)
    with layers.Patches() as patches:
        tracer.install(patches)
        for _, module, attribute in layers.STAGES:
            owner, name = layers.resolve(module, attribute)
            assert hasattr(vars(owner)[name], "__wrapped__"), attribute
        assert fuzz.shrink.__wrapped__ is originals[0]
        assert fuzz.mutate.__wrapped__ is originals[1]
    assert (fuzz.shrink, fuzz.mutate, fuzz.verify_system,
            oracle.generate_many) == originals
    # the shadowing trap: repro.verify.fuzz the attribute is a function
    assert layers.resolve("repro.verify.fuzz", "fuzz")[0] is fuzz


def test_percentile_needs_ten_samples_beyond():
    # p90 of 91 samples interpolates at index 81.0: only 9 lie beyond
    assert metrics.percentile(list(range(91)), 0.9) is None
    assert metrics.percentile(list(range(92)), 0.9) == pytest.approx(81.9)
    assert metrics.percentile(list(range(19)), 0.5) is None
    assert metrics.percentile(list(range(20)), 0.5) == pytest.approx(9.5)
    assert metrics.percentile([], 0.5) is None


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert metrics.verdict(parent, parent, "higher", 0.1)[0] == "ok"
    assert metrics.verdict(parent, [v * 0.8 for v in parent], "higher",
                           0.1)[0] == "regressed"
    assert metrics.verdict(parent, [v * 0.8 for v in parent], "lower",
                           0.1)[0] == "improved"
    noisy = [60.0, 140.0, 100.0, 80.0, 120.0]
    assert metrics.verdict(parent, noisy, "higher", 0.1)[0] == "unresolved"
    assert metrics.verdict(noisy, [200.0, 300.0], "higher",
                           0.1)[0] == "improved"


def test_compare_refuses_incorrect_or_failing_runs():
    def run(correct=True, failed=0):
        return {"correct": correct, "failed": failed, "attempted": 100}

    good = [run(), run(), run()]
    assert metrics.invalid(good, good) is None
    assert "incorrect change" in metrics.invalid(good, [run(), run(False)])
    assert "incorrect parent" in metrics.invalid([run(False)], good)
    assert "failed item calls" in metrics.invalid(good, [run(failed=2)])
    assert metrics.invalid([run(failed=2)], [run(failed=1)]) is None


def test_compare_marks_skipped_work_invalid(tmp_path):
    def results(path, correct, seconds=20):
        runs = [{"workload": "campaign", "trace": False, "seconds": seconds,
                 "correct": correct, "failed": 0, "attempted": 10,
                 "metrics": {entry["name"]: {"value": 1.0}
                             for entry in SPEC["end_to_end"]}}] * 3
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    parent = results(tmp_path / "parent.json", True)
    command = [sys.executable, str(HERE / "run.py"), "compare", parent]
    ok = subprocess.run(command + [parent], capture_output=True, text=True)
    assert ok.returncode == 0 and "invalid" not in ok.stdout
    wrong = subprocess.run(
        command + [results(tmp_path / "wrong.json", False)],
        capture_output=True, text=True)
    assert wrong.returncode == 1 and "invalid" in wrong.stdout
    longer = subprocess.run(
        command + [results(tmp_path / "longer.json", True, seconds=30)],
        capture_output=True, text=True)
    assert longer.returncode == 2


def test_benchmark_json_matches_the_harness():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] \
        == [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    baseline = json.loads((HERE / "results" / "baseline-seed7.json")
                          .read_text())
    for run in baseline["runs"]:
        declared = SPEC["per_layer" if run["trace"] else "end_to_end"]
        assert list(run["metrics"]) == [m["name"] for m in declared]
    tracer = layers.Tracer(("repro.verify.oracle", "verify_system"))
    names = list(tracer.metrics(1.0)) + ["fuzz.admit_ratio",
                                          "tracing_overhead"]
    assert [m["name"] for m in SPEC["per_layer"]] == names
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    # without the inherited PYTHONPATH, which may name the real src/
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload",
         "campaign", "--seconds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


#: The full-size seed-7 calls the rounds are scaled from.
CANONICAL = {
    "verify-small": lambda: workloads._verify_many(7, 150, "small"),
    "verify-large": lambda: workloads._verify_many(7, 100, "large"),
    "fuzz": lambda: workloads._fuzz(7, 200),
    "resilience": lambda: workloads._run_resilience(7, 20, "small"),
    "campaign": lambda: workloads._run_campaign(**workloads.campaign_inputs(
        workloads.ONSETS_MS)),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_canonical_seed7_digests_and_events(name):
    probe = layers.Probe(workloads.WORKLOADS[name].item)
    with layers.Patches() as patches:
        probe.install(patches)
        report = CANONICAL[name]()
    pin = PINS["canonical"][name]
    assert report.digest().startswith(pin["digest"])
    assert probe.events == pin["events"]
