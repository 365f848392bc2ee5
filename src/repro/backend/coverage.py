"""Per-job native-kernel dispatch counters.

A process-local tally of how many batched calls each kernel *family*
dispatched to the compiled kernels: ``ntt`` (Stockham sweeps),
``pointwise`` (vmul / coset / scale) and ``jacobian`` (batch point
kernels, the bucket merge and fold). Counts are *dispatch decisions*,
not element counts — one ``note()`` per batched call. An op that keeps
the inherited scalar loop (below its size floor, or on a field with no
native field) is not a kernel dispatch and is not counted; without
kernels ``numpy`` is the ``python`` backend and nothing is noted.

The service worker drains the tally into one ``native-coverage``
telemetry event per job, and the perf ledger reads ``snapshot()`` for
``backend.native_dispatch_ratio``.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["note", "snapshot", "drain", "reset", "summarize"]

_LOCK = threading.Lock()
_COUNTS: Dict[str, Dict[str, int]] = {}


def note(family: str) -> None:
    """Record one kernel dispatch of ``family``."""
    with _LOCK:
        fam = _COUNTS.setdefault(family, {})
        fam["native"] = fam.get("native", 0) + 1


def snapshot() -> Dict[str, Dict[str, int]]:
    """Current counts (deep copy), without clearing them."""
    with _LOCK:
        return {fam: dict(modes) for fam, modes in _COUNTS.items()}


def drain() -> Dict[str, Dict[str, int]]:
    """Pop and return all counts (the worker calls this once per job)."""
    with _LOCK:
        out = {fam: dict(modes) for fam, modes in _COUNTS.items()}
        _COUNTS.clear()
        return out


def reset() -> None:
    """Discard all counts (job start, post-fork worker reset)."""
    with _LOCK:
        _COUNTS.clear()


def summarize(counts: Dict[str, Dict[str, int]]) -> str:
    """One-line human rendering: ``jacobian:native=8 ntt:native=12``."""
    return " ".join(f"{fam}:native={counts[fam]['native']}"
                    for fam in sorted(counts))
