"""Regression replay of the fuzzer's minimized counterexample corpus.

Every ``tests/corpus/*.json`` file is a minimal system the fuzzer
found and the shrinker reduced (see ``repro fuzz --corpus-dir``).
Each carries a ``status``:

* ``"open"`` — a live defect.  The persisted failure must still
  reproduce at the persisted horizon, must be covered by a documented
  entry in ``tests/corpus/known_issues.json``, and the system must be
  shrink-minimal (re-running the shrinker is a no-op).  An open
  failure that silently stopped reproducing fails the suite — that
  means the defect was fixed: flip the file to ``"fixed"`` and delete
  its known-issue entry.
* ``"fixed"`` — a defect that has since been repaired.  The persisted
  failure must **not** reproduce any more; the corpus file stays
  forever as the regression that pins the fix.  (The three
  ``soundness-tdma-*`` seeds are the multi-activation TDMA busy-window
  fix's regressions.)

Regardless of status, every file's ``system`` entry must be a valid
:mod:`repro.model` document whose round-trip is faithful —
re-describing the loaded system reproduces the document
byte-for-byte.
"""

import json
import os

import pytest

from repro.model import Model, model_from_system, validate_document
from repro.verify.oracle import verify_system
from repro.verify.mutate import validate_system
from repro.verify.shrink import failure_keys, shrink

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
KNOWN_ISSUES_PATH = os.path.join(CORPUS_DIR, "known_issues.json")


def corpus_files():
    return sorted(name for name in os.listdir(CORPUS_DIR)
                  if name.endswith(".json") and name != "known_issues.json")


def load(name):
    with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as handle:
        return json.load(handle)


def known_issues():
    with open(KNOWN_ISSUES_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def matching_issue(key):
    kind, detail, _subject = key
    for issue in known_issues():
        if issue["kind"] == kind and issue["detail"] == detail:
            return issue
    return None


def failure_key(payload):
    failure = payload["failure"]
    return (failure["kind"], failure["detail"], failure["subject"])


def load_system(payload):
    return Model.from_document(payload["system"]).build()


def test_corpus_is_seeded():
    """The corpus ships with at least the counterexamples found while
    developing the fuzzer (now pinned as fixed-defect regressions)."""
    assert len(corpus_files()) >= 2


@pytest.mark.parametrize("name", corpus_files())
def test_entry_declares_a_status(name):
    assert load(name).get("status") in ("open", "fixed")


@pytest.mark.parametrize("name", corpus_files())
def test_counterexample_is_well_formed(name):
    payload = load(name)
    assert validate_document(payload["system"]) == []
    assert validate_system(load_system(payload)) == []


@pytest.mark.parametrize("name", corpus_files())
def test_counterexample_roundtrips_byte_exactly(name):
    payload = load(name)
    assert model_from_system(load_system(payload)) == payload["system"]


@pytest.mark.parametrize("name", corpus_files())
def test_failure_status_matches_reality(name):
    """Open failures must reproduce and be documented; fixed failures
    must stay fixed."""
    payload = load(name)
    system = load_system(payload)
    key = failure_key(payload)
    keys = failure_keys(verify_system(system, payload["horizon"]))
    if payload["status"] == "open":
        if key not in keys:
            issue = matching_issue(key)
            pytest.fail(
                f"{name}: open failure {key} no longer reproduces — "
                f"the underlying defect appears fixed; flip this file "
                f"to status 'fixed' and delete its known-issues entry"
                + ("" if issue is None else f" ({issue['reason']})"))
        assert matching_issue(key) is not None, (
            f"{name}: failure {key} reproduces but has no entry in "
            f"known_issues.json — either fix the defect or document it")
    else:
        assert key not in keys, (
            f"{name}: fixed failure {key} reproduces again — the "
            f"defect this corpus entry pins has REGRESSED")


@pytest.mark.parametrize(
    "name", [n for n in corpus_files() if load(n)["status"] == "open"])
def test_open_counterexample_is_shrink_minimal(name):
    """Re-running the shrinker on a persisted open counterexample is a
    no-op (the acceptance bar for everything the fuzzer persists).
    Fixed entries are exempt: their failure no longer reproduces, so
    the shrinker has nothing to preserve."""
    payload = load(name)
    result = shrink(load_system(payload), failure_key(payload),
                    horizon=payload["horizon"])
    assert result.accepted == 0, (
        f"{name}: shrinker removed {result.accepted} more component(s) "
        f"— re-minimize and re-persist this counterexample")
    assert model_from_system(result.system) == payload["system"]


def test_every_known_issue_is_exercised():
    """No stale documentation: each known-issue entry matches at least
    one *open* corpus file."""
    used = set()
    for name in corpus_files():
        payload = load(name)
        if payload["status"] != "open":
            continue
        failure = payload["failure"]
        for index, issue in enumerate(known_issues()):
            if issue["kind"] == failure["kind"] \
                    and issue["detail"] == failure["detail"]:
                used.add(index)
    assert used == set(range(len(known_issues())))
