"""E14 — Instrumentation overhead of the repro.obs telemetry layer.

Claim (engineering gate for the observability layer, ROADMAP): the
metrics/span/DLT hooks threaded through the hot paths — sim kernel,
CAN arbitration, RTA fixpoints, verify oracle — must be free when
telemetry is off and cheap when it is on, and must never perturb the
computation itself: the verify report digest is byte-identical with
telemetry off, on, or stripped out entirely.

Setup: the E12 differential-verification workload (seeded random
systems run through analysis + simulation) in three modes.
``stripped`` monkeypatches every obs helper into a bare no-op — the
closest approximation of un-instrumented code without maintaining a
second copy of the sources.  ``disabled`` is the stock build with
telemetry off (the production default: every hook is one module-flag
check).  ``enabled`` collects everything.  The workload runs once
untimed as a warm-up; then each of ``ROUNDS`` rounds times all three
modes, in reversed order on alternate rounds, so no mode always runs
first.  Per mode we report the best wall time over the rounds and the
overhead relative to ``stripped``.

Expected shape: ``disabled`` within 5% of ``stripped`` (the hooks are
coarse on purpose — the kernel counts executed-event *deltas* per
``run_until``, not per event), ``enabled`` low double-digit percent at
worst, and one verify-report digest across all three rows.
"""

import contextlib
import time

from _tables import print_table

from repro import obs
from repro.verify import verify_many

SEED = 7
SYSTEMS = 10
SIZE = "small"
ROUNDS = 3
#: The disabled-mode gate: hooks with telemetry off may cost at most
#: this fraction over fully stripped-out instrumentation.
DISABLED_BUDGET = 0.05

#: The modes in forward order; alternate rounds run them reversed.
MODES = ("stripped", "disabled", "enabled")

#: The obs helpers invoked from instrumented hot paths.  ``stripped``
#: mode replaces each with the cheapest possible stand-in.
_HELPERS = ("count", "observe", "gauge_set", "dlt", "harvest_trace")


@contextlib.contextmanager
def stripped_obs():
    """Monkeypatch the obs helpers into bare no-ops for the duration."""
    saved = {name: getattr(obs, name) for name in _HELPERS}
    saved["span"] = obs.span
    saved["enabled"] = obs.enabled
    try:
        for name in _HELPERS:
            setattr(obs, name, lambda *args, **kwargs: None)
        obs.span = lambda *args, **kwargs: obs.NULL_SPAN
        obs.enabled = lambda: False
        yield
    finally:
        for name, fn in saved.items():
            setattr(obs, name, fn)


def _workload():
    return verify_many(SEED, SYSTEMS, SIZE)


def run() -> list[dict]:
    obs.disable()
    obs.reset()

    def stripped():
        with stripped_obs():
            return _workload()

    def enabled():
        obs.reset()
        obs.enable()
        try:
            return _workload()
        finally:
            obs.disable()

    runners = {"stripped": stripped, "disabled": _workload,
               "enabled": enabled}
    _workload()  # untimed warm-up, so no timed mode pays first-run costs
    best, digests = {}, {}
    for round_ in range(ROUNDS):
        for mode in MODES if round_ % 2 == 0 else MODES[::-1]:
            started = time.perf_counter()
            report = runners[mode]()
            wall = time.perf_counter() - started
            best[mode] = min(wall, best.get(mode, wall))
            digests[mode] = report.digest()
            if mode == "enabled":
                telemetry = obs.digest()
    rows = [{
        "mode": mode,
        "wall_s": round(best[mode], 3),
        "overhead_pct": round((best[mode] / best["stripped"] - 1.0) * 100,
                              1),
        "report_digest": digests[mode][:12],
    } for mode in MODES]
    rows[-1]["telemetry_digest"] = telemetry[:12]
    return rows


def check(rows: list[dict]) -> None:
    by_mode = {row["mode"]: row for row in rows}
    # Instrumentation must never perturb the computation.
    assert len({row["report_digest"] for row in rows}) == 1
    # The free-when-off gate: disabled hooks within budget of stripped.
    assert (by_mode["disabled"]["wall_s"]
            <= by_mode["stripped"]["wall_s"] * (1.0 + DISABLED_BUDGET))
    # Enabled mode actually collected something.
    assert by_mode["enabled"]["telemetry_digest"]


TITLE = (f"E14: obs overhead on the E12 verify workload "
         f"({SYSTEMS} systems, seed {SEED}, best of {ROUNDS} interleaved "
         f"rounds)")


def bench_e14_obs_overhead(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    check(rows)
    print_table(TITLE, rows)


if __name__ == "__main__":
    rows = run()
    check(rows)
    print_table(TITLE, rows)
