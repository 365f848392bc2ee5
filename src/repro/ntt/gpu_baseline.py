"""Baseline GPU NTT: the bellperson-style design GZKP improves upon.

Modeled after the paper's description of prior GPU NTTs (§2.2, §3 and
the Figure 8 discussion):

* fixed batches of 8 iterations;
* a **shuffle stage** before every batch after the first, reordering the
  whole vector in global memory so the batch can read contiguously —
  the reads of the shuffle itself are strided (poor L2-line use);
* one independent group per GPU block, so when the final batch has few
  remaining iterations the grid degenerates (at scale 2^18 the last
  batch has 2 iterations -> 2^16 blocks of 2 threads, 30 of every 32
  warp lanes idle, and heavy block-scheduling overhead);
* the plain integer finite-field library (no DFP path);
* synchronous host<->device vector transfers.

Variants used by the Figure 8 breakdown are expressed as flags:
``use_dfp_library`` ("BG w. lib") and ``skip_global_shuffle``
("GZKP-no-GM-shuffle", which drops the shuffle but keeps the baseline's
strided accesses and rigid block division).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.ff.primefield import PrimeField
from repro.gpusim import cost
from repro.gpusim.trace import DFP_BACKEND, INT_BACKEND, Trace
from repro.gpusim.device import GpuDevice
from repro.ntt.batching import plan_batches
from repro.ntt.executor import run_batched_ntt
from repro.ntt.gpu_gzkp import GzkpNtt

__all__ = ["BaselineNttVariant", "BaselineGpuNtt"]


@dataclass(frozen=True)
class BaselineNttVariant:
    """Feature switches for the Figure 8 breakdown ladder."""

    use_dfp_library: bool = False
    skip_global_shuffle: bool = False
    name: str = "BG"


class BaselineGpuNtt:
    """bellperson-model GPU NTT: functional execution + cost plan."""

    def __init__(self, field: PrimeField, device: GpuDevice,
                 variant: Optional[BaselineNttVariant] = None,
                 backend=None):
        self.field = field
        self.device = device
        self.variant = variant or BaselineNttVariant()
        #: compute backend (name, instance or None = $REPRO_BACKEND)
        self.backend = backend

    # -- functional execution -----------------------------------------------------

    def compute(self, values: Sequence[int]) -> List[int]:
        """Functionally the baseline computes the same transform; only
        the schedule differs. Runs the fixed-8 batch plan."""
        plan = plan_batches(GzkpNtt._log(len(values)),
                            cost.BELLPERSON_NTT_BATCH_ITERS)
        return run_batched_ntt(self.field, values, plan, backend=self.backend)

    # -- analytic plan ---------------------------------------------------------------

    def plan(self, n: int) -> Trace:
        log_n = GzkpNtt._log(n)
        bits = self.field.bits
        elem_bytes = self.field.limbs64 * 8
        backend = DFP_BACKEND if self.variant.use_dfp_library else INT_BACKEND
        schedule = plan_batches(log_n, cost.BELLPERSON_NTT_BATCH_ITERS)
        trace = Trace()

        total_mul_weight = 0.0
        effective_mul_weight = 0.0
        for batch in schedule.batches:
            butterflies = (n // 2) * batch.width
            trace.add_gpu_muls(bits, butterflies, backend)
            trace.add_gpu_adds(bits, 2 * butterflies)

            # Rigid block division: one group of 2^width elements per
            # block, 2^(width-1) threads each.
            threads = 1 << (batch.width - 1)
            blocks = n >> batch.width
            trace.add_kernel(blocks=blocks, launches=1)
            util = min(threads / self.device.warp_size, 1.0)
            total_mul_weight += butterflies
            effective_mul_weight += butterflies * util

            if batch.shift == 0:
                # First batch reads the natural-order vector contiguously.
                trace.add_global_traffic(2 * n * elem_bytes, coalescing=1.0)
            elif self.variant.skip_global_shuffle:
                # No reorder: the batch itself reads with stride 2^shift.
                trace.add_global_traffic(
                    2 * n * elem_bytes, coalescing=cost.STRIDED_COALESCING
                )
            else:
                # Shuffle stage: full-vector gather/scatter reorder, with
                # stride-dependent locality loss...
                trace.add_global_traffic(
                    2 * n * elem_bytes,
                    coalescing=cost.shuffle_coalescing(batch.shift),
                )
                trace.add_kernel(blocks=max(n // 1024, 1), launches=1)
                # ...then the batch reads contiguously.
                trace.add_global_traffic(2 * n * elem_bytes, coalescing=1.0)

        trace.warp_utilization = (
            effective_mul_weight / total_mul_weight if total_mul_weight else 1.0
        )
        # Vectors are GPU-resident in the single-NTT benchmark (as in
        # bellperson's); only kernel arguments cross the bus.
        trace.host_transfer_bytes = 0.0
        trace.gpu_memory_bytes = 3 * n * elem_bytes
        return trace

    def estimate_seconds(self, n: int) -> float:
        """Modeled single-NTT latency (Tables 5/6 Best-GPU columns).

        Priced per kernel: every batch's butterfly kernel and every
        shuffle kernel run back-to-back (compute/memory overlap happens
        *within* a kernel, never across the shuffle boundary — the batch
        cannot start until the reorder finished)."""
        if self.variant.skip_global_shuffle:
            # Single fused schedule; the batch kernels do strided reads.
            return self.device.time_of(self.plan(n))
        return sum(
            row["shuffle_seconds"] + row["batch_seconds"]
            for row in self.batch_breakdown(n)
        )

    def n_batches(self, n: int) -> int:
        return math.ceil(GzkpNtt._log(n) / cost.BELLPERSON_NTT_BATCH_ITERS)

    def batch_breakdown(self, n: int):
        """Per-batch time split (shuffle vs transfer vs butterflies) —
        §2.2's measurement that the shuffle stage costs 42% - 81% of the
        per-batch execution time in existing solutions."""
        log_n = GzkpNtt._log(n)
        bits = self.field.bits
        elem_bytes = self.field.limbs64 * 8
        backend = DFP_BACKEND if self.variant.use_dfp_library else INT_BACKEND
        schedule = plan_batches(log_n, cost.BELLPERSON_NTT_BATCH_ITERS)
        rows = []
        for batch in schedule.batches:
            compute = Trace()
            butterflies = (n // 2) * batch.width
            compute.add_gpu_muls(bits, butterflies, backend)
            compute.add_gpu_adds(bits, 2 * butterflies)
            threads = 1 << (batch.width - 1)
            compute.warp_utilization = min(
                threads / self.device.warp_size, 1.0
            )
            compute.add_kernel(blocks=n >> batch.width, launches=1)
            compute.add_global_traffic(2 * n * elem_bytes, coalescing=1.0)

            shuffle_seconds = 0.0
            if batch.shift > 0 and not self.variant.skip_global_shuffle:
                shuffle = Trace()
                shuffle.add_global_traffic(
                    2 * n * elem_bytes,
                    coalescing=cost.shuffle_coalescing(batch.shift),
                )
                shuffle.add_kernel(blocks=max(n // 1024, 1), launches=1)
                shuffle_seconds = self.device.time_of(shuffle)
            batch_seconds = self.device.time_of(compute)
            rows.append({
                "shift": batch.shift,
                "width": batch.width,
                "shuffle_seconds": shuffle_seconds,
                "batch_seconds": batch_seconds,
                "shuffle_fraction": (
                    shuffle_seconds / (shuffle_seconds + batch_seconds)
                    if shuffle_seconds else 0.0
                ),
            })
        return rows
