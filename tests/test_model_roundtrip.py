"""Round-trip fidelity of the model exchange format.

The model document is the only system description the library reads
back, so ``model -> system -> model`` must lose nothing: it has to
reproduce the identical model digest, and the rebuilt system has to
keep the fuzzer's flat system view (``repro.verify.fuzz._system_view``,
hashed into every fuzz digest and corpus file name) byte-for-byte.
Both are pinned for every generator size class and for every persisted
corpus seed, whose ``system`` entry is itself a model document.
"""

import glob
import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.model import (Model, model_digest, model_from_system,
                         system_from_model)
from repro.verify.fuzz import _system_view
from repro.verify.generator import generate, generate_many

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(
    path for path in glob.glob(os.path.join(CORPUS_DIR, "*.json"))
    if os.path.basename(path) != "known_issues.json")


def assert_roundtrip(model: Model) -> None:
    """model -> system -> model keeps the digest and the fuzz view."""
    again = model.roundtrip()
    assert again.digest() == model.digest()
    assert _system_view(again.build()) == _system_view(model.build())


@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[os.path.basename(p) for p in CORPUS_FILES])
def test_corpus_seed_survives_model_roundtrip(path):
    """document -> system -> document is the identity."""
    with open(path, encoding="utf-8") as handle:
        original = json.load(handle)["system"]
    model = Model.from_document(original)
    assert model_from_system(model.build()) == original
    assert_roundtrip(model)


@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[os.path.basename(p) for p in CORPUS_FILES])
def test_corpus_seed_digest_unchanged_via_model(path):
    """Loading a corpus seed directly vs. through the payload loader
    produces the same model digest — the format is one canonical view,
    however the system arrived."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    direct = model_from_system(system_from_model(payload["system"]))
    via_model = Model.from_data(payload).document
    assert model_digest(direct) == model_digest(via_model)


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_generated_system_roundtrips(seed):
    system = generate(seed, "small")
    model = Model.from_system(system, "generated")
    assert _system_view(model.build()) == _system_view(system)
    assert_roundtrip(model)


def test_all_size_classes_roundtrip():
    for size in ("small", "medium", "large"):
        for system in generate_many(3, 2, size):
            model = Model.from_system(system)
            assert _system_view(model.build()) == _system_view(system)
            assert_roundtrip(model)


def test_counterexample_payload_autodetected():
    """Model.from_data accepts a whole corpus counterexample payload
    (unwrapping its ``system`` entry)."""
    if not CORPUS_FILES:
        pytest.skip("no corpus files")
    with open(CORPUS_FILES[0], encoding="utf-8") as handle:
        payload = json.load(handle)
    model = Model.from_data(payload)
    assert model_from_system(model.build()) == payload["system"]


def test_pre_model_system_dicts_are_refused():
    """The flat pre-model corpus layout is no longer read, bare or
    wrapped in a counterexample payload."""
    legacy = _system_view(generate(11, "small"))
    for data in (legacy, {"format": 2, "system": legacy}):
        with pytest.raises(ConfigurationError,
                           match="unrecognized document"):
            Model.from_data(data)
