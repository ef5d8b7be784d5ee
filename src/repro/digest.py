"""The one canonical digest: SHA-256 over sorted-key, whitespace-free JSON.

Every content digest the library prints or pins — verification,
resilience, fuzz and campaign reports, metrics and measurement
registries, DAQ samples, simulation traces, model documents — is
:func:`canonical_digest` over a JSON-native view.  Object key order
never changes the text; list order does, and is meaningful (plan
order, priority ties, packing order).

``default`` is :func:`json.dumps`'s hook for values JSON cannot
encode natively: a site that passes one keeps the byte layout it has
always hashed.

This is also the one module that names a SHA-256 implementation; seed
derivation, plan fingerprints and the test generator's content hashes
call :func:`sha256` from here.  It is CPython's builtin module, not
:mod:`hashlib`, whose import maps OpenSSL's libcrypto into every
process that hashes (:mod:`random` makes the same trade for SHA-512).
Both compute the same bytes, so no digest depends on which one a
process found.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Optional

try:  # CPython 3.12+: one builtin module for the SHA-2 family
    from _sha2 import sha256
except ImportError:
    try:  # CPython 3.9-3.11
        from _sha256 import sha256
    except ImportError:  # an interpreter built without either
        from hashlib import sha256


def canonical_json(value: Any,
                   default: Optional[Callable] = None) -> str:
    """The canonical text: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=default)


def canonical_digest(value: Any,
                     default: Optional[Callable] = None) -> str:
    """Hex SHA-256 of :func:`canonical_json`."""
    return sha256(canonical_json(value, default).encode()).hexdigest()
