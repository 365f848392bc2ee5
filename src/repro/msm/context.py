"""Amortized MSM preprocessing: prover-resident checkpoint contexts.

GZKP's central amortization argument (§4.1): checkpoint preprocessing
runs **once at system setup** — "the point vector never changes for an
application" — and every subsequent proof reuses the table. An
:class:`MsmContext` is the unit of that amortization: one point vector
bound to the :class:`~repro.msm.gzkp.GzkpMsmConfig` it was preprocessed
under and the checkpoint table itself. Binding config and table in one
object makes the caller-supplied-table hazard structural — a table can
no longer silently be replayed under a different (window, interval)
resolution, which would mis-weight every entry.

The table *is* resident: its rows are in the compute backend's own
affine row form (``ComputeBackend.resident_points`` — Montgomery word
planes on the native ``numpy`` route, plain lists on the reference
backend), built in that form and held in that form only, so a proof's
point-merging gathers rows and never rebuilds a point. Rows are
read-only sequences of affine points whatever the form; the table is
public proving-key data, which is why it may live here while bucket
rows (witness-derived) never do.

:class:`MsmContextCache` keeps contexts resident across proofs the way
the paper assumes tables stay resident on the card: an LRU bounded both
by entry count and by the summed ``preprocess_bytes`` footprint, with a
per-context budget check (a table that would not fit the budget is
still *built and returned*, just never cached).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.errors import MsmError

__all__ = ["MsmContext", "MsmContextCache", "ScopedContextCache",
           "check_table"]


def expected_table_rows(cfg) -> int:
    """Checkpoint rows a table built under ``cfg`` must have."""
    return math.ceil(cfg.n_windows / cfg.interval)


def check_table(table: Sequence[Sequence], cfg, n_points: int) -> None:
    """Validate a checkpoint table's shape against the config that will
    consume it: row count must equal the config's checkpoint count and
    every row must cover the whole point vector. A mismatch means the
    table was preprocessed under a different
    :class:`~repro.msm.gzkp.GzkpMsmConfig` — using it would silently
    weight entries by the wrong powers of two."""
    rows = expected_table_rows(cfg)
    if len(table) != rows:
        raise MsmError(
            f"checkpoint table has {len(table)} row(s); config "
            f"(window={cfg.window}, interval={cfg.interval}, "
            f"n_windows={cfg.n_windows}) needs {rows}"
        )
    for i, row in enumerate(table):
        if len(row) != n_points:
            raise MsmError(
                f"checkpoint table row {i} holds {len(row)} point(s) "
                f"for an MSM over {n_points}"
            )


@dataclass(frozen=True)
class MsmContext:
    """One point vector's amortized preprocessing: the resolved config
    and the checkpoint table built under it, ready for any number of
    :meth:`~repro.msm.gzkp.GzkpMsm.compute` calls over the same points.

    Built by :meth:`~repro.msm.gzkp.GzkpMsm.build_context` (which counts
    the checkpoint doublings under a dedicated ``preprocess`` phase).
    ``compute(..., context=ctx)`` then skips both the profiling search
    and the table build — the per-proof hot path the paper measures.
    """

    group: object                 # CurveGroup the points live on
    scalar_bits: int
    n: int                        # length of the bound point vector
    cfg: object                   # GzkpMsmConfig the table was built under
    table: Sequence[Sequence]     # resident checkpoint rows (row 0 = the points)
    #: optional provenance label (e.g. the proving-key query name)
    label: str = ""

    def __post_init__(self):
        check_table(self.table, self.cfg, self.n)

    @property
    def preprocess_bytes(self) -> int:
        """Footprint of the checkpoint rows beyond row 0 (row 0 aliases
        the input vector) — the quantity budgeted by Figure 9."""
        return self.cfg.preprocess_bytes

    def matches(self, group, n: int) -> bool:
        """Cheap compatibility check for an incoming MSM call."""
        return group is self.group and n == self.n


@dataclass
class _CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rejected: int = 0   # contexts over the per-entry budget, not cached

    def to_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "rejected": self.rejected}


@dataclass
class MsmContextCache:
    """LRU over :class:`MsmContext` objects, bounded by entry count and
    by total ``preprocess_bytes``.

    ``max_bytes`` models the paper's preprocessing residency budget
    (Figure 9 caps checkpoint storage at a fraction of device memory):
    inserting past it evicts least-recently-used contexts, and a single
    context larger than the whole budget is rejected (built per-call by
    the owner, never resident). ``None`` disables the respective bound.
    """

    max_entries: Optional[int] = 8
    max_bytes: Optional[int] = None
    stats: _CacheStats = field(default_factory=_CacheStats)

    def __post_init__(self):
        if self.max_entries is not None and self.max_entries < 1:
            raise MsmError("max_entries must be >= 1 (or None)")
        if self.max_bytes is not None and self.max_bytes < 0:
            raise MsmError("max_bytes must be >= 0 (or None)")
        self._entries: "OrderedDict[object, MsmContext]" = OrderedDict()

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    @property
    def total_bytes(self) -> int:
        return sum(c.preprocess_bytes for c in self._entries.values())

    # -- the cache protocol -----------------------------------------------------

    def get(self, key) -> Optional[MsmContext]:
        ctx = self._entries.get(key)
        if ctx is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return ctx

    def put(self, key, ctx: MsmContext) -> bool:
        """Insert (or refresh) a context; returns False when the context
        alone exceeds ``max_bytes`` and was therefore not cached."""
        if self.max_bytes is not None and ctx.preprocess_bytes > self.max_bytes:
            self.stats.rejected += 1
            self._entries.pop(key, None)
            return False
        self._entries[key] = ctx
        self._entries.move_to_end(key)
        self._evict()
        return True

    def _evict(self) -> None:
        while (self.max_entries is not None
               and len(self._entries) > self.max_entries):
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        if self.max_bytes is not None:
            while len(self._entries) > 1 and self.total_bytes > self.max_bytes:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def scoped(self, scope: str) -> "ScopedContextCache":
        """A shard-scoped handle over this cache (see
        :class:`ScopedContextCache`)."""
        return ScopedContextCache(self, scope)


class ScopedContextCache:
    """A shard's view of a shared context cache.

    The sharded proving service partitions warm state by
    (curve, circuit) key: every shard's workers serve a disjoint key
    population, but the residency *budget* (the paper's Figure 9
    preprocessing-memory cap) is a property of the device a worker
    models, not of any one key.  A scoped handle gives each shard its
    own namespace (keys are prefixed with the scope label, so two
    shards can never collide or evict through each other's handle
    accounting) and its own hit/miss statistics, while the underlying
    LRU and its entry/byte bounds stay shared.

    Entries are whatever the owner caches — :class:`MsmContext` rows or
    whole prover bundles — as long as they expose ``preprocess_bytes``
    when the underlying cache is byte-bounded.
    """

    def __init__(self, cache: MsmContextCache, scope: str):
        self.cache = cache
        self.scope = scope
        self.stats = _CacheStats()

    def _key(self, key) -> tuple:
        return (self.scope, key)

    def get(self, key) -> Optional[MsmContext]:
        ctx = self.cache.get(self._key(key))
        if ctx is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return ctx

    def put(self, key, ctx) -> bool:
        cached = self.cache.put(self._key(key), ctx)
        if not cached:
            self.stats.rejected += 1
        return cached

    def __contains__(self, key) -> bool:
        return self._key(key) in self.cache

    def stats_dict(self) -> Dict[str, int]:
        return self.stats.to_dict()
