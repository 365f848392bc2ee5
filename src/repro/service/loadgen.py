"""Seeded job streams for the sharded proving service.

GZKP's service-shaped evaluation (§6, Table 4) is a *stream* of proofs
over a population of (curve, circuit) keys.  This module holds the two
pieces a load run needs: a deterministic job stream drawn over a key
population, and the nearest-rank percentile used to report its
latencies.  The same ``seed`` yields the same jobs, so a load run
is reproducible end to end.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

from repro.errors import ServiceError

__all__ = ["synthesize_jobs", "percentile"]


def synthesize_jobs(keys: Sequence[Tuple[str, str]], n: int,
                    seed: int = 0, backend: Optional[str] = None,
                    witness_bits: int = 16) -> list:
    """``n`` deterministic jobs drawn uniformly over a (curve, circuit)
    key population — single-witness circuits only (the built-in and
    mulchain families).  Uniform key draws are what gives the bounded
    per-worker handle cache its steady-state hit rate."""
    from repro.service.service import ProofJob

    if not keys:
        raise ServiceError("synthesize_jobs needs a non-empty key set")
    rng = random.Random(f"loadgen-jobs:{seed}")
    jobs = []
    for i in range(n):
        curve, circuit = keys[rng.randrange(len(keys))]
        witness = (rng.randrange(1, 1 << witness_bits),)
        jobs.append(ProofJob(curve, circuit, witness, backend,
                             f"load-{seed}-{i}"))
    return jobs


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))   # ceil without floats
    return ordered[int(rank) - 1]
