"""``repro.perf`` — per-layer analysis keys.

The paper's componentized analyses are each a pure function of a
small sub-model: per-ECU RTA, CAN/FlexRay bus bounds, the TDMA
busy-window and the derived e2e chain bound.
:mod:`repro.perf.keys` extracts exactly the inputs each layer reads
and digests them to canonical SHA-256 keys, so a changed result can
be traced to the layer whose inputs moved.
"""

from repro.perf.keys import KEY_FORMAT, layer_inputs, layer_keys

__all__ = ["KEY_FORMAT", "layer_inputs", "layer_keys"]
