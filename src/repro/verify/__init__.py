"""Differential verification harness.

Random valid systems (:mod:`repro.verify.generator`) are run through
both the analytic bounds and the simulation stack
(:mod:`repro.verify.oracle`); trace-level safety properties are checked
by :mod:`repro.verify.invariants`.  On top of that sits the
coverage-guided fuzzer: structural mutation
(:mod:`repro.verify.mutate`), campaign loop (:mod:`repro.verify.fuzz`)
and counterexample minimization (:mod:`repro.verify.shrink`).  Systems
are persisted and read back as :mod:`repro.model` documents.  Entry
points: ``repro verify`` and ``repro fuzz``.
"""

from repro.verify.fuzz import (FuzzReport, format_fuzz_report, fuzz,
                               signature_tokens, write_corpus)
from repro.verify.generator import (SIZES, GeneratedSystem, generate,
                                    generate_many)
from repro.verify.invariants import (AliveCounterInvariant,
                                     E2eContainmentInvariant, Invariant,
                                     InvariantChecker,
                                     NoOverlappingExecution,
                                     PriorityCeilingInvariant,
                                     TdmaWindowInvariant, Violation)
from repro.verify.mutate import MUTATORS, mutate, validate_system
from repro.verify.oracle import (Check, SystemVerdict, VerificationReport,
                                 analyze_bounds, build_system,
                                 format_report, make_invariants,
                                 verify_many, verify_system)
from repro.verify.shrink import (ShrinkResult, failure_keys, shrink,
                                 system_size)

__all__ = [
    "SIZES", "GeneratedSystem", "generate", "generate_many",
    "Invariant", "InvariantChecker", "Violation",
    "NoOverlappingExecution", "TdmaWindowInvariant",
    "PriorityCeilingInvariant", "AliveCounterInvariant",
    "E2eContainmentInvariant",
    "Check", "SystemVerdict", "VerificationReport",
    "analyze_bounds", "build_system", "make_invariants",
    "verify_system", "verify_many", "format_report",
    "MUTATORS", "mutate", "validate_system",
    "ShrinkResult", "failure_keys", "shrink", "system_size",
    "FuzzReport", "fuzz", "format_fuzz_report", "signature_tokens",
    "write_corpus",
]
