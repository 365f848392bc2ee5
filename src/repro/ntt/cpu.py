"""CPU NTT model: the libsnark/bellman baseline (Tables 5/6 Best-CPU).

The paper attributes libsnark's superlinear single-NTT latency to
redundant per-butterfly recomputation of the omega powers (§5.3): the
serial radix-2 kernel advances ``w *= w_step`` inside every butterfly,
one extra modular multiplication each, and cannot adopt GZKP's shared
precomputed table without blowing up its memory footprint 16x. On top of
that, strided passes over a multi-gigabyte vector leave the CPU memory
stalled (CPU_NTT_STALL_FACTOR), and the thread-pool dispatch adds a
fixed overhead visible at small scales.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.ff.primefield import PrimeField
from repro.gpusim import cost
from repro.gpusim.trace import Trace
from repro.gpusim.device import CpuDevice
from repro.ntt.gpu_gzkp import GzkpNtt
from repro.ntt.reference import intt, ntt

__all__ = ["CpuNtt"]


class CpuNtt:
    """libsnark-model CPU NTT: functional execution + cost plan."""

    #: extra modular muls per butterfly (the omega recomputation)
    REDUNDANT_MULS_PER_BUTTERFLY = 1

    def __init__(self, field: PrimeField, device: CpuDevice, backend=None):
        self.field = field
        self.device = device
        #: compute backend (name, instance or None = $REPRO_BACKEND)
        self.backend = backend

    def compute(self, values: Sequence[int]) -> List[int]:
        return ntt(self.field, values, backend=self.backend)

    def compute_inverse(self, values: Sequence[int]) -> List[int]:
        return intt(self.field, values, backend=self.backend)

    def plan(self, n: int) -> Trace:
        log_n = GzkpNtt._log(n)
        bits = self.field.bits
        butterflies = (n // 2) * log_n
        trace = Trace()
        muls = butterflies * (1 + self.REDUNDANT_MULS_PER_BUTTERFLY)
        trace.add_cpu_muls(bits, muls * cost.CPU_NTT_STALL_FACTOR)
        trace.add_cpu_adds(bits, 2 * butterflies * cost.CPU_NTT_STALL_FACTOR)
        return trace

    def estimate_seconds(self, n: int) -> float:
        return self.device.time_of(self.plan(n), parallel=True)
