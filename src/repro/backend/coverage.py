"""Per-job native-kernel coverage counters.

The numpy pipeline silently degrades: any hot kernel (NTT sweeps,
pointwise prover passes, Jacobian bucket folds) falls back to the
scalar loop when the compiled kernels are unavailable for its modulus
or group. That is correct-by-construction but invisible — a mis-set
``REPRO_NATIVE`` or an over-wide modulus shows up only as a slow job.
This module keeps a tiny process-local tally of which kernel *families*
ran native vs fallback; the service worker drains it into one
``native-coverage`` telemetry event per job, next to the loader's
compile/cache-hit events.

Families: ``ntt`` (Stockham sweeps), ``pointwise`` (vmul / coset /
scale), ``jacobian`` (batch point kernels + segmented bucket trees).
Modes: ``native`` (compiled C kernels) vs ``fallback`` (the inherited
scalar loop, for every family). A batch that stays scalar only because
it is below a size threshold is a choice, not a degradation, and is not
counted. Counts are *dispatch decisions*, not element counts — one
``note()`` per batched call.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["note", "snapshot", "drain", "reset", "summarize"]

FAMILIES = ("ntt", "pointwise", "jacobian")
MODES = ("native", "fallback")

_LOCK = threading.Lock()
_COUNTS: Dict[str, Dict[str, int]] = {}


def note(family: str, mode: str, n: int = 1) -> None:
    """Record ``n`` dispatches of ``family`` through ``mode``."""
    with _LOCK:
        fam = _COUNTS.setdefault(family, {})
        fam[mode] = fam.get(mode, 0) + n


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
    """One-line human rendering: ``ntt:native=12 jacobian:native=8,fallback=2``."""
    parts = []
    for fam in sorted(counts):
        modes = counts[fam]
        inner = ",".join(f"{mode}={modes[mode]}"
                         for mode in sorted(modes) if modes[mode])
        if inner:
            parts.append(f"{fam}:{inner}")
    return " ".join(parts)
