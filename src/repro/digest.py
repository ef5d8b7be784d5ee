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
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Optional


def canonical_json(value: Any,
                   default: Optional[Callable] = None) -> str:
    """The canonical text: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=default)


def canonical_digest(value: Any,
                     default: Optional[Callable] = None) -> str:
    """Hex SHA-256 of :func:`canonical_json`."""
    return hashlib.sha256(
        canonical_json(value, default).encode()).hexdigest()
