"""Straus-style MSM with per-point multiples tables: the MINA model.

MINA's GPU Groth16 prover uses the Straus algorithm (§4.1's related-work
note): for every input point it precomputes the small odd multiples
table {1P, 2P, ..., (2^w - 1)P}, then walks the scalar windows from the
top, doubling the accumulator w times per window and adding each point's
table entry for its digit.

The table is the design's downfall at ZKP scales: N * (2^w - 1) stored
points. On a 32 GB V100 with the 753-bit MNT4753 curve this exceeds
global memory above scale 2^22 — Figure 9's MINA OOM — which is exactly
the behaviour :meth:`StrausMsm.plan` models via ``gpu_memory_bytes``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.curves.weierstrass import AffinePoint, CurveGroup
from repro.errors import GpuOutOfMemoryError
from repro.ff.opcount import OpCounter
from repro.gpusim import cost
from repro.gpusim.trace import INT_BACKEND, Trace
from repro.gpusim.device import GpuDevice
from repro.msm.common import affine_point_bytes, coord_bits, counting
from repro.msm.naive import check_msm_inputs
from repro.msm.windows import DigitStats, num_windows, scalar_digits

__all__ = ["StrausMsm"]


class StrausMsm:
    """MINA-model MSM: functional execution + cost plan."""

    def __init__(self, group: CurveGroup, scalar_bits: int, device: GpuDevice,
                 window: Optional[int] = None, fq_mul_factor: float = 1.0):
        self.group = group
        self.scalar_bits = scalar_bits
        self.device = device
        self.window = window if window is not None else cost.MINA_STRAUS_WINDOW
        self.fq_mul_factor = fq_mul_factor

    # -- functional execution ------------------------------------------------------

    def _tables(self, points: Sequence[AffinePoint]) -> List[List]:
        """Per-point multiples tables [P, 2P, ..., (2^w - 1)P] in
        Jacobian coordinates (index d-1 holds dP)."""
        size = (1 << self.window) - 1
        tables = []
        for p in points:
            jp = self.group.to_jacobian(p)
            row = [jp]
            for _ in range(size - 1):
                row.append(self.group.jmixed_add(row[-1], p))
            tables.append(row)
        return tables

    def compute(self, scalars: Sequence[int], points: Sequence[AffinePoint],
                counter: Optional[OpCounter] = None) -> AffinePoint:
        check_msm_inputs(self.group, scalars, points, self.scalar_bits)
        if not scalars:
            return None
        with counting(self.group, counter):
            tables = self._tables(points)
            digits = [scalar_digits(s, self.scalar_bits, self.window)
                      for s in scalars]
            w = num_windows(self.scalar_bits, self.window)
            o = self.group.ops
            acc = (o.one, o.one, o.zero)
            for t in range(w - 1, -1, -1):
                if t < w - 1:
                    for _ in range(self.window):
                        acc = self.group.jdouble(acc)
                for i in range(len(scalars)):
                    d = digits[i][t]
                    if d:
                        acc = self.group.jadd(acc, tables[i][d - 1])
            return self.group.from_jacobian(acc)

    # -- analytic plan -----------------------------------------------------------------

    def table_bytes(self, n: int) -> int:
        """Footprint of the multiples tables (affine storage)."""
        return n * ((1 << self.window) - 1) * affine_point_bytes(self.group)

    def _traces(self, n: int, stats: Optional[DigitStats]):
        """(balanced, imbalanced) work: table construction is uniform
        per point; the digit-driven accumulation loop pays the sparse
        window-straggler penalty."""
        if stats is None:
            stats = DigitStats.dense_model(n, self.scalar_bits, self.window)
        bits = coord_bits(self.group)
        w = stats.windows
        stall = cost.msm_chain_stall(bits)
        point_bytes = affine_point_bytes(self.group)
        table = self.table_bytes(n)

        balanced = Trace()
        table_padds = n * ((1 << self.window) - 2)
        balanced.add_gpu_muls(
            bits, table_padds * cost.PMIXED_MULS * self.fq_mul_factor,
            INT_BACKEND,
        )
        balanced.add_gpu_adds(bits, table_padds * cost.PADD_ADDS)
        balanced.add_global_traffic(2 * table, coalescing=1.0)  # build+store
        # Accumulator doublings: every lane doubles identically.
        lanes = self.device.sm_count * 32
        dbl_padds = w * self.window * min(lanes, n)
        balanced.add_gpu_muls(
            bits, dbl_padds * cost.PDBL_MULS * self.fq_mul_factor, INT_BACKEND
        )
        balanced.add_gpu_adds(bits, dbl_padds * cost.PADD_ADDS)
        balanced.parallel_efficiency = cost.MINA_MSM_UTILIZATION / stall
        balanced.add_kernel(blocks=max(n // 256, 1), launches=1)
        balanced.gpu_memory_bytes = (
            table + n * point_bytes + n * self.scalar_bits / 8
        )

        imbalanced = Trace()
        loop_padds = stats.nonzero_digits
        imbalanced.add_gpu_muls(
            bits, loop_padds * cost.PMIXED_MULS * self.fq_mul_factor,
            INT_BACKEND,
        )
        imbalanced.add_gpu_adds(bits, loop_padds * cost.PADD_ADDS)
        # The loop streams table entries (random digit -> poor locality).
        imbalanced.add_global_traffic(loop_padds * point_bytes, coalescing=0.5)
        imbalanced.parallel_efficiency = cost.MINA_MSM_UTILIZATION / (
            stats.window_imbalance * stall
        )
        imbalanced.add_kernel(blocks=max(n // 256, 1), launches=w / 16)
        return balanced, imbalanced

    def plan(self, n: int, stats: Optional[DigitStats] = None) -> Trace:
        balanced, imbalanced = self._traces(n, stats)
        return balanced.merge(imbalanced)

    def estimate_seconds(self, n: int,
                         stats: Optional[DigitStats] = None) -> float:
        """Modeled latency; raises :class:`GpuOutOfMemoryError` when the
        table exceeds device memory (MINA beyond 2^22 at 753-bit)."""
        balanced, imbalanced = self._traces(n, stats)
        if not self.device.fits(balanced):
            raise GpuOutOfMemoryError(
                int(balanced.gpu_memory_bytes), self.device.global_mem_bytes,
                detail=f"Straus multiples table at scale {n}",
            )
        return self.device.time_of(balanced) + self.device.time_of(imbalanced)
