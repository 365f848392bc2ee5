"""CPU MSM model: the libsnark/bellman baseline (Tables 2/3/7/8 Best-CPU).

Both CPU provers use the bucket (Pippenger) method across worker threads.
The window size follows the classic optimum for the scale (minimise
merging + reduction additions); the cost is priced on the Xeon model with
the paper's 230 ns / 43 ns per-op figures.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.curves.weierstrass import AffinePoint, CurveGroup
from repro.gpusim import cost
from repro.gpusim.trace import Trace
from repro.gpusim.device import CpuDevice
from repro.msm.common import coord_bits
from repro.msm.pippenger import bucket_reduce
from repro.msm.naive import check_msm_inputs
from repro.msm.windows import DigitStats, num_windows, scalar_digits

__all__ = ["CpuMsm", "optimal_cpu_window"]


def optimal_cpu_window(n: int, scalar_bits: int) -> int:
    """argmin over k of N * ceil(l/k) + ceil(l/k) * 2^(k+1)."""
    best_k, best = 2, float("inf")
    for k in range(2, 26):
        w = num_windows(scalar_bits, k)
        work = n * w + w * (1 << (k + 1))
        if work < best:
            best_k, best = k, work
    return best_k


class CpuMsm:
    """libsnark/bellman-model CPU MSM: functional execution + cost plan."""

    def __init__(self, group: CurveGroup, scalar_bits: int, device: CpuDevice,
                 fq_mul_factor: float = 1.0):
        self.group = group
        self.scalar_bits = scalar_bits
        self.device = device
        self.fq_mul_factor = fq_mul_factor

    def compute(self, scalars: Sequence[int],
                points: Sequence[AffinePoint]) -> AffinePoint:
        """Single bucket-method pass (the multi-thread split changes
        scheduling, not math)."""
        check_msm_inputs(self.group, scalars, points, self.scalar_bits)
        if not scalars:
            return None
        k = optimal_cpu_window(len(scalars), self.scalar_bits)
        w = num_windows(self.scalar_bits, k)
        o = self.group.ops
        infinity = (o.one, o.one, o.zero)
        acc = infinity
        for t in range(w - 1, -1, -1):
            if t < w - 1:
                for _ in range(k):
                    acc = self.group.jdouble(acc)
            buckets = [infinity] * ((1 << k) - 1)
            for s, p in zip(scalars, points):
                d = scalar_digits(s, self.scalar_bits, k)[t]
                if d:
                    buckets[d - 1] = self.group.jmixed_add(buckets[d - 1], p)
            acc = self.group.jadd(acc, bucket_reduce(self.group, buckets))
        return self.group.from_jacobian(acc)

    def plan(self, n: int, stats: Optional[DigitStats] = None) -> Trace:
        k = optimal_cpu_window(n, self.scalar_bits)
        if stats is None:
            stats = DigitStats.dense_model(n, self.scalar_bits, k)
        w = stats.windows
        bits = coord_bits(self.group)
        trace = Trace()
        merge = stats.nonzero_digits
        reduction = 2 * ((1 << k) - 1) * w + w * k
        stall = cost.cpu_msm_stall(bits)
        trace.add_cpu_muls(
            bits,
            (merge * cost.PMIXED_MULS + reduction * cost.PADD_MULS)
            * self.fq_mul_factor * stall,
        )
        trace.add_cpu_adds(bits, (merge + reduction) * cost.PADD_ADDS * stall)
        return trace

    def estimate_seconds(self, n: int,
                         stats: Optional[DigitStats] = None) -> float:
        return self.device.time_of(self.plan(n, stats), parallel=True)
