"""Concurrent proving service with per-phase observability.

``repro.service.telemetry`` is dependency-light (it needs only
``repro.ff.opcount``) and is imported eagerly so that the math layers
(``repro.snark.prover``, ``repro.ntt.poly``, ``repro.msm.gzkp``) can
import span helpers without cycles. The service itself
(``repro.service.service``) imports the full snark stack and is exposed
lazily through module ``__getattr__``.
"""

from __future__ import annotations

from repro.service.telemetry import (NULL_SPAN, Span, Telemetry, maybe_span,
                                     phase_breakdown, splice_phase)

__all__ = [
    "Span", "Telemetry", "maybe_span", "phase_breakdown", "splice_phase",
    "NULL_SPAN",
    "ProvingService", "ProofJob", "JobResult", "encode_request",
    "decode_request",
    "synthesize_jobs",
    "ShardMap", "ShardStats",
]

_LAZY = {
    "ProvingService": "repro.service.service",
    "ProofJob": "repro.service.service",
    "JobResult": "repro.service.service",
    "encode_request": "repro.service.wire",
    "decode_request": "repro.service.wire",
    "synthesize_jobs": "repro.service.loadgen",
    "ShardMap": "repro.service.shard",
    "ShardStats": "repro.service.shard",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
