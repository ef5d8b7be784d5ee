"""Shrinker guarantee tests.

Three promises back the regression corpus (see
:mod:`repro.verify.shrink`): the minimized system fails the *same*
check as the input, it is never larger, and shrinking is idempotent —
re-shrinking a minimal system returns it unchanged.

The fixture failure is the *historic* TDMA soundness defect (the
single-demand supply bound under partition overload with queued
activations).  The analysis has since been fixed with a
multi-activation busy window, so the defect no longer reproduces
against the shipped bound — :func:`legacy_tdma_bound` re-installs the
pre-fix optimistic bound for the duration of these tests, turning the
fixed defect into a controlled, realistic failure source for the
shrinking machinery.
"""

import contextlib
from dataclasses import replace

import pytest

from repro.errors import AnalysisError
from repro.model import model_from_system
from repro.units import ms
from repro.verify.generator import generate
from repro.verify.mutate import _retask, validate_system
from repro.verify.oracle import default_horizon, verify_system
from repro.verify.shrink import (failure_keys, shrink, system_size,
                                 _candidates)


@contextlib.contextmanager
def legacy_tdma_bound():
    """Re-install the pre-fix single-demand TDMA supply bound.

    The historic soundness defect the ``soundness-tdma-*`` corpus
    seeds pin is only reproducible under it; with the busy-window fix
    in place it is the controlled failure source for the shrinker and
    corpus-persistence tests."""
    from repro.analysis import tdma_bound as module

    real = module.tdma_response_bound

    def optimistic(scheduler, partition, demand, period=None,
                   max_activations=1):
        return real(scheduler, partition, demand)

    module.tdma_response_bound = optimistic
    try:
        yield
    finally:
        module.tdma_response_bound = real


@pytest.fixture(scope="module", autouse=True)
def _legacy_bound():
    with legacy_tdma_bound():
        yield


def overloaded_tdma_system():
    """A full generated system whose TDMA partition P0 is overloaded:
    the highest-priority task demands 11 ms per 20 ms period against
    5 ms of window supply per 10 ms major frame, with enough queued
    activations for the backlog to accumulate across major frames."""
    system = generate(3, "small")
    hp = system.tdma.hp_task("P0")
    tasks = tuple(
        _retask(t, wcet=ms(11), period=ms(20), max_activations=4)
        if t.name == hp.name else t
        for t in system.tdma.tasks)
    system.tdma = replace(system.tdma, tasks=tasks)
    assert validate_system(system) == []
    return system, ("soundness", "tdma", hp.name)


@pytest.fixture(scope="module")
def shrunk():
    system, key = overloaded_tdma_system()
    assert key in failure_keys(verify_system(system))
    return system, key, shrink(system, key)


def test_shrunk_system_fails_the_same_check(shrunk):
    system, key, result = shrunk
    assert result.key == key
    verdict = verify_system(result.system, result.horizon)
    assert key in failure_keys(verdict)


def test_shrunk_system_is_never_larger(shrunk):
    system, _key, result = shrunk
    assert system_size(result.system) <= system_size(system)
    # and for this defect the reduction is drastic:
    assert system_size(result.system) < system_size(system) // 4


def test_shrinking_is_idempotent(shrunk):
    _system, key, result = shrunk
    again = shrink(result.system, key, horizon=result.horizon)
    assert again.accepted == 0
    assert model_from_system(again.system) \
        == model_from_system(result.system)


def test_shrink_result_is_complete_and_minimal(shrunk):
    _system, _key, result = shrunk
    assert result.complete
    assert result.minimal
    assert result.accepted > 0
    assert result.probes >= result.accepted


def test_shrunk_tdma_counterexample_shape(shrunk):
    """The minimal TDMA-overload counterexample keeps exactly what the
    defect needs: the overloaded task, and a second partition (dropping
    it would widen P0's window and dissolve the overload)."""
    _system, _key, result = shrunk
    minimal = result.system
    assert minimal.chain is None
    assert minimal.can is None
    assert minimal.flexray is None
    assert minimal.tasksets == {}
    assert minimal.tdma is not None
    assert len(minimal.tdma.partitions) == 2
    assert len(minimal.tdma.tasks) == 2


def test_shrink_rejects_non_failing_input():
    system = generate(5, "small")
    assert failure_keys(verify_system(system)) == frozenset()
    with pytest.raises(AnalysisError):
        shrink(system, ("soundness", "tdma", "nope"))


def test_shrink_probe_budget_marks_incomplete():
    system, key = overloaded_tdma_system()
    result = shrink(system, key, max_probes=3)
    assert not result.complete
    assert not result.minimal
    assert result.probes <= 3
    # even the truncated result still reproduces the failure
    assert key in failure_keys(verify_system(result.system,
                                             result.horizon))


def test_candidates_are_strictly_smaller_and_well_formed():
    """Every reduction candidate drops exactly one thing (strictly
    smaller) and either stays well-formed or is rejected by the
    validator before any verification is spent on it."""
    system = generate(2, "small")
    count = 0
    for candidate in _candidates(system):
        count += 1
        assert system_size(candidate) < system_size(system)
    assert count > 10  # a full system offers many reductions


def test_frozen_horizon_is_persisted(shrunk):
    """The shrink horizon equals the *original* system's horizon, not
    the minimal system's — reproducing the failure from a corpus file
    must not depend on re-deriving a (smaller) horizon."""
    system, _key, result = shrunk
    assert result.horizon == default_horizon(system)
    assert result.horizon != default_horizon(result.system)
