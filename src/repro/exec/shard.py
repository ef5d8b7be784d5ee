"""Spawn-style seed derivation for seeded sweeps.

A seeded sweep never draws its items' seeds from a shared sequential
stream: item ``i``'s seed is a pure function of ``(base_seed, i)``,
hashed through SHA-256 (spawn-style derivation, like
:meth:`numpy.random.SeedSequence.spawn`).  Item 17 gets the same seed
whether it is generated first, last, serially or in a worker process —
and whether items 0..16 were generated at all.  The fleet generator
(:func:`repro.verify.generator.generate_many`) and the fuzzer's mutant
RNGs derive their seeds here.

``hash()`` is deliberately avoided: since PEP 456 it is salted per
process, which is exactly the order/process dependence this module
exists to eliminate.
"""

from __future__ import annotations

from repro.digest import sha256

#: Domain separator so exec-derived seeds can never collide with a
#: caller's own use of small integer seeds.
_SEED_DOMAIN = "repro.exec.seed"


def derive_seed(base_seed: int, index: int) -> int:
    """Spawn-style per-item seed: SHA-256 over ``(base_seed, index)``.

    Returns a 63-bit non-negative integer, deterministic across
    processes and Python versions, with no sequential relationship
    between neighbouring indices.
    """
    message = f"{_SEED_DOMAIN}:{base_seed}:{index}".encode()
    digest = sha256(message).digest()
    return int.from_bytes(digest[:8], "big") >> 1
