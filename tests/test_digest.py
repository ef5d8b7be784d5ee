"""The builtin SHA-256 behind :mod:`repro.digest`, held to :mod:`hashlib`.

Every pinned digest was first computed through :mod:`hashlib`; the
builtin module must give the same bytes on every input length, whole
or fed in pieces, and an interpreter without the builtin module must
fall back to :mod:`hashlib` and print the same canonical digests.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.digest import canonical_digest, sha256

SRC = Path(__file__).resolve().parents[1] / "src"
#: Lengths either side of a 64-byte block and of the 55 bytes one
#: block holds with its padding.
BLOCK_EDGES = (55, 56, 63, 64, 65, 119, 120)
#: A document whose canonical digest both interpreters print.
DOCUMENT = {"b": [1, 2.5, None], "a": {"z": "µs", "y": True}}


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_builtin_sha256_is_hashlib_sha256(data):
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("length", [*BLOCK_EDGES, 1 << 20])
def test_block_edges_and_a_mebibyte(length):
    data = bytes(i % 251 for i in range(length))
    assert sha256(data).digest() == hashlib.sha256(data).digest()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(max_size=130), max_size=8))
def test_incremental_update_is_one_shot_hashlib(chunks):
    ours = sha256()
    for chunk in chunks:
        ours.update(chunk)
    assert ours.hexdigest() == hashlib.sha256(b"".join(chunks)).hexdigest()


def digest_in_fresh_interpreter(block_builtin: bool) -> dict:
    """Which implementation a new interpreter binds, and the digest of
    :data:`DOCUMENT` it prints."""
    code = (
        ("import sys\nsys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
         if block_builtin else "")
        + "import json, sys\n"
        "from repro import digest\n"
        f"value = digest.canonical_digest({DOCUMENT!r})\n"
        "print(json.dumps({'module': digest.sha256.__module__,\n"
        "                  'hashlib': 'hashlib' in sys.modules,\n"
        "                  'digest': value}))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_without_the_builtin_module_it_falls_back_to_hashlib():
    expected = hashlib.sha256(json.dumps(
        DOCUMENT, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    assert canonical_digest(DOCUMENT) == expected
    builtin = digest_in_fresh_interpreter(block_builtin=False)
    fallback = digest_in_fresh_interpreter(block_builtin=True)
    assert builtin["module"] in ("_sha2", "_sha256")
    assert not builtin["hashlib"]
    assert fallback["hashlib"]
    assert builtin["digest"] == fallback["digest"] == expected
