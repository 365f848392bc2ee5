"""Twiddle-factor (omega-power) strategies (§5.3's breakdown discussion).

Three strategies compared by the paper:

* **Recompute** — libsnark's serial kernel advances ``w *= w_step``
  inside every butterfly: zero storage, one extra modular multiplication
  per butterfly, and inherently serial within each block.
* **Unique table** — GZKP's choice: iteration i has exactly 2^i unique
  twiddle values, so one length-N table (entry j of iteration i is read
  at offset 2^i + (j mod 2^i) under the natural indexing) serves every
  iteration with contiguous reads and no redundancy. N - 1 elements
  total.
* **Full table** — precompute *every* (iteration, butterfly) pair as the
  paper's modified-libsnark experiment did: (N/2) * log N entries — 16x
  the memory of the input vector at 2^24 ("up to 24 GB") — whose extra
  traffic erases most of the computational saving (only 1.5x, §5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import NttError
from repro.ff.primefield import PrimeField

__all__ = ["TwiddleTable", "get_twiddle_table", "TwiddleStrategy",
           "RECOMPUTE", "UNIQUE", "FULL", "strategy_stats"]


class TwiddleTable:
    """GZKP's unique-value table for an N-point transform.

    Layout: entry [2^i + j] holds omega^(j * N / 2^(i+1)) — the twiddle
    used by butterflies of iteration i whose in-block offset is j. Index
    0 is unused padding so that iteration i's 2^i values sit contiguously
    starting at offset 2^i (contiguous reads for the whole warp, §5.3).
    """

    def __init__(self, field: PrimeField, n: int,
                 omega: Optional[int] = None):
        if n <= 0 or n & (n - 1):
            raise NttError(f"twiddle table needs a power-of-two size, got {n}")
        self.field = field
        self.n = n
        if omega is None:
            omega = field.root_of_unity(n)
        self.omega = omega
        p = field.modulus
        self.values: List[int] = [1] * n
        log_n = n.bit_length() - 1
        for i in range(log_n):
            base = 1 << i
            step = pow(omega, n >> (i + 1), p)
            w = 1
            for j in range(1 << i):
                self.values[base + j] = w
                w = w * step % p

    def lookup(self, iteration: int, butterfly_offset: int) -> int:
        """Twiddle for butterfly ``j = butterfly_offset mod 2^i`` of
        iteration ``i``."""
        base = 1 << iteration
        if base >= self.n:
            raise NttError(
                f"iteration {iteration} out of range for N={self.n}"
            )
        return self.values[base + (butterfly_offset & (base - 1))]

    def storage_elements(self) -> int:
        return self.n


_TABLE_CACHE: Dict[Tuple[int, int, int], TwiddleTable] = {}


def get_twiddle_table(field: PrimeField, n: int,
                      omega: Optional[int] = None) -> TwiddleTable:
    """Memoized :class:`TwiddleTable`, keyed by ``(modulus, n, omega)``.

    Twiddles depend only on that triple, so forward and inverse tables
    of every (field, scale) pair are built once per process — both the
    scalar engines and the native Stockham sweep (which encodes these
    values as its Montgomery twiddle rows) share the entries.
    """
    if omega is None:
        omega = field.root_of_unity(n)
    key = (field.modulus, n, omega)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = _TABLE_CACHE[key] = TwiddleTable(field, n, omega)
    return table


@dataclass(frozen=True)
class TwiddleStrategy:
    """A named strategy with its storage and per-butterfly costs."""

    name: str
    #: stored field elements for an N-point transform
    storage_fn: staticmethod
    #: extra modular multiplications per butterfly
    extra_muls_per_butterfly: float


def _storage_recompute(n: int) -> int:
    return 0


def _storage_unique(n: int) -> int:
    return n


def _storage_full(n: int) -> int:
    log_n = n.bit_length() - 1
    return (n // 2) * log_n


RECOMPUTE = TwiddleStrategy("recompute", staticmethod(_storage_recompute), 1.0)
UNIQUE = TwiddleStrategy("unique-table", staticmethod(_storage_unique), 0.0)
FULL = TwiddleStrategy("full-table", staticmethod(_storage_full), 0.0)


def strategy_stats(strategy: TwiddleStrategy, n: int,
                   element_bytes: int) -> dict:
    """Storage and work profile of a strategy at scale N."""
    storage = strategy.storage_fn.__func__(n)
    log_n = n.bit_length() - 1
    return {
        "name": strategy.name,
        "storage_elements": storage,
        "storage_bytes": storage * element_bytes,
        #: table bytes relative to the input vector (the paper's "16x")
        "storage_vs_input": storage / n,
        "extra_muls": (n // 2) * log_n * strategy.extra_muls_per_butterfly,
    }
