"""Round-trip fidelity between the legacy corpus format and the
versioned model exchange format.

The exchange format restructures the flat corpus dict (COM/network
split, TDMA as an ECU entry) but must lose nothing: replaying every
persisted corpus seed through ``legacy -> model -> legacy`` has to
reproduce the original system dict byte-for-byte, and
``model -> system -> model`` has to reproduce the identical model
digest.  These are the properties that let the fuzzer's corpus, the
per-layer analysis keys (``KEY_FORMAT`` payloads) and the scenario
library all speak through one converter layer without drift.
"""

import glob
import json
import os

import pytest

from repro.model import Model, model_digest, model_from_system
from repro.verify.generator import generate, generate_many
from repro.verify.serialize import system_from_dict, system_to_dict

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(
    path for path in glob.glob(os.path.join(CORPUS_DIR, "*.json"))
    if os.path.basename(path) != "known_issues.json")


@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[os.path.basename(p) for p in CORPUS_FILES])
def test_corpus_seed_survives_model_roundtrip(path):
    """legacy dict -> Model -> system -> legacy dict is the identity."""
    with open(path, encoding="utf-8") as handle:
        original = json.load(handle)["system"]
    model = Model.from_data(original)
    assert system_to_dict(model.build()) == original
    # and the model view itself is digest-stable through its own trip
    assert model.digest() == model.roundtrip().digest()


@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[os.path.basename(p) for p in CORPUS_FILES])
def test_corpus_seed_digest_unchanged_via_model(path):
    """Loading a corpus seed directly vs. through the model format
    produces the same model digest — the format is one canonical view,
    however the system arrived."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    direct = model_from_system(system_from_dict(payload["system"]))
    via_model = Model.from_data(payload).document
    assert model_digest(direct) == model_digest(via_model)


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_generated_system_roundtrips(seed):
    system = generate(seed, "small")
    model = Model.from_system(system, "generated")
    rebuilt = model.build()
    assert system_to_dict(rebuilt) == system_to_dict(system)
    assert model.roundtrip().digest() == model.digest()


def test_all_size_classes_roundtrip():
    for size in ("small", "medium", "large"):
        for system in generate_many(3, 2, size):
            model = Model.from_system(system)
            assert system_to_dict(model.build()) == system_to_dict(system)
            assert model.roundtrip().digest() == model.digest()


def test_counterexample_payload_autodetected():
    """Model.from_data accepts a whole corpus counterexample payload
    (unwrapping its ``system`` entry)."""
    if not CORPUS_FILES:
        pytest.skip("no corpus files")
    with open(CORPUS_FILES[0], encoding="utf-8") as handle:
        payload = json.load(handle)
    model = Model.from_data(payload)
    assert system_to_dict(model.build()) == payload["system"]


def test_legacy_loader_reads_model_documents():
    """system_from_dict autodetects a model document, so every legacy
    consumer reads the new format for free."""
    system = generate(11, "small")
    doc = model_from_system(system)
    rebuilt = system_from_dict(doc)
    assert system_to_dict(rebuilt) == system_to_dict(system)
