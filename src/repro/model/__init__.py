"""Versioned declarative system exchange format (the paper's §2 made real).

The paper's methodology is *meta-model plus exchange format*: one
declarative description of the complete distributed system — OS
configuration, COM packing, bus schedules, E2E chains, recovery
policies — from which every executable view is derived.  This package
is that format for the repro library:

* :mod:`repro.model.schema` — the document layout, explicit
  ``format_version``, structural + reference-integrity validation with
  human-readable error messages, and a deterministic SHA-256 model
  digest for traceability;
* :mod:`repro.model.convert` — the per-subsystem dict converters
  (tasks, signals, I-PDUs, CAN/FlexRay/TDMA plans, chains, fault
  scenarios) the document is assembled from;
* :mod:`repro.model.build` — compile a validated model into the live
  :class:`~repro.verify.generator.GeneratedSystem` the differential
  oracle consumes, and back, so ``repro verify`` / ``repro
  resilience`` / ``repro fuzz`` all run from a model file;
* :mod:`repro.model.scenarios` — the bundled scenario library
  (ADAS sensor fusion, gateway-heavy multi-bus, TDMA overload,
  FlexRay mixed cluster, limp-home cascade), each loadable by name,
  and :func:`~repro.model.scenarios.load_ref`, the one loader behind
  every ``PATH|NAME`` reference;
* :mod:`repro.model.testgen` — model-driven pytest generation: compile
  every model into a deterministic requirement-traced test module under
  ``tests/generated/`` with a SHA-256 sync manifest, and detect drift
  between models and their generated tests (``repro model testgen
  --check``);
* :mod:`repro.model.cli` — the ``repro model`` subcommand
  (``validate`` / ``digest`` / ``convert`` / ``testgen`` /
  ``scenarios``).
"""

from repro.digest import canonical_json
from repro.model.build import (Model, load_document, model_from_system,
                               resilience_models, system_from_model,
                               verify_models)
from repro.model.schema import (FORMAT, FORMAT_VERSION, SUPPORTED_VERSIONS,
                                ModelValidationError, ensure_valid,
                                is_model_document, model_digest,
                                validate_document)
from repro.model.scenarios import (load_scenario, scenario_description,
                                   scenario_names, scenario_path)

__all__ = [
    "FORMAT", "FORMAT_VERSION", "SUPPORTED_VERSIONS",
    "ModelValidationError", "canonical_json", "ensure_valid",
    "is_model_document", "model_digest", "validate_document",
    "Model", "load_document", "model_from_system", "system_from_model",
    "verify_models", "resilience_models",
    "load_scenario", "scenario_description", "scenario_names",
    "scenario_path",
]
