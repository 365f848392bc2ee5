"""GZKP's shuffle-less GPU NTT (paper §3).

Design points modeled here:

* the vector stays in natural order in global memory across all batches
  — **no shuffle stage**;
* each GPU block takes *G >= 4 consecutive groups* of 2^B elements, so
  its global reads form 2^B contiguous chunks of G elements each —
  fully-coalesced L2 traffic regardless of the batch's stride;
* the *internal shuffle* transposes those chunks into the per-group
  strided layout in shared memory (priced as shared traffic, conflict
  free thanks to the sequential/reverse-order interleaving);
* flexible B/G per scale keeps every block's thread count a multiple of
  the warp size — no idle-lane waste at any scale (unlike the baseline's
  fixed grouping, Figure 8);
* butterflies run on the DFP finite-field library (§4.3);
* twiddles are precomputed on the GPU, one unique value per position
  (iteration i has 2^i unique values; N - 1 total), and excluded from
  the reported time exactly as the paper's methodology does for the
  baselines' CPU-side twiddle preparation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.backend import get_backend
from repro.errors import NttError
from repro.ff.opcount import OpCounter
from repro.ff.primefield import PrimeField
from repro.gpusim.trace import DFP_BACKEND, Trace
from repro.gpusim.device import GpuDevice
from repro.ntt.batching import BatchPlan, plan_batches
from repro.ntt.executor import run_batched_ntt
from repro.ntt.reference import _check_size

__all__ = ["GzkpNttConfig", "GzkpNtt"]


@dataclass(frozen=True)
class GzkpNttConfig:
    """Resolved schedule parameters for one (N, field, device)."""

    log_n: int
    batch_width: int        # B: iterations per batch
    groups_per_block: int   # G: independent groups sharing a block
    threads_per_block: int  # T = G * 2^B / 2
    n_batches: int


class GzkpNtt:
    """GZKP NTT module: functional execution + analytic cost plan."""

    #: minimum groups per block for full 32 B L2-line use with 8 B words
    MIN_GROUPS = 4

    def __init__(self, field: PrimeField, device: GpuDevice, backend=None):
        self.field = field
        self.device = device
        #: compute backend (name, instance or None = $REPRO_BACKEND)
        self.backend = backend

    # -- configuration ------------------------------------------------------------

    def configure(self, n: int) -> GzkpNttConfig:
        """Choose B and G for scale N (the flexible assignment of §3).

        Elements staged per block: G * 2^B, bounded by shared memory;
        B also bounded so batches divide log N near-evenly (a batch of
        width 1 wastes a full pass over the vector for one iteration).
        """
        log_n = self._log(n)
        elem_bytes = self.field.limbs64 * 8
        # Leave half of shared memory for twiddles and staging.
        capacity = self.device.shared_mem_per_sm // 2 // elem_bytes
        if capacity < 2 * self.MIN_GROUPS:
            raise NttError(
                f"{self.field.name} elements too large for "
                f"{self.device.name} shared memory"
            )
        max_width = max(1, int(math.log2(capacity / self.MIN_GROUPS)))
        max_width = min(max_width, log_n)
        # Even tiling: fewest batches, then flatten width across them.
        n_batches = math.ceil(log_n / max_width)
        width = math.ceil(log_n / n_batches)
        groups = capacity >> width
        # A block cannot exceed the device thread limit (T = G * 2^B / 2).
        while groups * (1 << width) // 2 > self.device.max_threads_per_block:
            groups //= 2
        groups = max(groups, 1)
        return GzkpNttConfig(
            log_n=log_n,
            batch_width=width,
            groups_per_block=groups,
            threads_per_block=max(groups * (1 << width) // 2, 1),
            n_batches=math.ceil(log_n / width),
        )

    def batch_plan(self, n: int) -> BatchPlan:
        return plan_batches(self._log(n), self.configure(n).batch_width)

    # -- functional execution ----------------------------------------------------------

    def compute(self, values: Sequence[int],
                counter: Optional[OpCounter] = None) -> List[int]:
        """Run the forward NTT with the GZKP schedule (ground-truth math,
        GPU-faithful gather/scatter order). Ints in, a list out; the
        backend's resident vector in, a resident vector out."""
        if len(values) == 1:  # the size-1 NTT is the identity
            return get_backend(self.backend).ntt(self.field, values)
        return run_batched_ntt(self.field, values, self.batch_plan(len(values)),
                               counter=counter, backend=self.backend)

    def compute_inverse(self, values: Sequence[int],
                        counter: Optional[OpCounter] = None) -> List[int]:
        """Inverse transform plus the 1/N scale, in the caller's
        representation: an int vector is made resident once around
        both steps, a resident vector stays resident."""
        be = get_backend(self.backend)
        n = len(values)
        if n == 1:  # identity, and inv(1) scaling is a no-op
            return be.ntt(self.field, values)
        vec = be.resident(self.field, values)
        out = run_batched_ntt(self.field, vec, self.batch_plan(n),
                              omega=self.field.inv_root_of_unity(n),
                              counter=counter, backend=be)
        if counter is not None:
            counter.count("fr_mul", n)
        out = be.vscale(self.field, out, self.field.inv(n))
        return out if vec is values else be.ints(out)

    # -- analytic plan --------------------------------------------------------------------

    def plan(self, n: int) -> Trace:
        """Counted work of one N-point NTT at paper scales."""
        cfg = self.configure(n)
        bits = self.field.bits
        elem_bytes = self.field.limbs64 * 8
        trace = Trace()
        butterflies = (n // 2) * cfg.log_n
        trace.add_gpu_muls(bits, butterflies, DFP_BACKEND)
        trace.add_gpu_adds(bits, 2 * butterflies)
        # Per batch: one fully-coalesced read + write of the vector
        # (G >= 4 consecutive groups -> contiguous chunks, §3).
        per_batch_bytes = 2 * n * elem_bytes
        trace.add_global_traffic(cfg.n_batches * per_batch_bytes, coalescing=1.0)
        trace.shared_bytes = cfg.n_batches * per_batch_bytes
        blocks_per_batch = max(n // (cfg.groups_per_block * (1 << cfg.batch_width)), 1)
        trace.add_kernel(blocks=cfg.n_batches * blocks_per_batch,
                         launches=cfg.n_batches)
        # Twiddle table: one element per position, read once per batch.
        trace.add_global_traffic(cfg.n_batches * n * elem_bytes, coalescing=1.0)
        trace.gpu_memory_bytes = 3 * n * elem_bytes  # vector + twiddles + staging
        return trace

    def estimate_seconds(self, n: int) -> float:
        """Modeled single-NTT latency (Tables 5/6 GZKP columns)."""
        return self.device.time_of(self.plan(n))

    def timeline(self, n: int):
        """Per-batch kernel timeline (reporting)."""
        from repro.gpusim.executor import KernelTimeline

        cfg = self.configure(n)
        bits = self.field.bits
        elem_bytes = self.field.limbs64 * 8
        blocks = max(n // (cfg.groups_per_block * (1 << cfg.batch_width)), 1)
        timeline = KernelTimeline(device=self.device)
        remaining = cfg.log_n
        batch_idx = 0
        while remaining > 0:
            width = min(cfg.batch_width, remaining)
            trace = Trace()
            trace.add_gpu_muls(bits, (n // 2) * width, DFP_BACKEND)
            trace.add_gpu_adds(bits, n * width)
            # Coalesced read+write of vector and twiddles per batch.
            trace.add_global_traffic(3 * n * elem_bytes, coalescing=1.0)
            trace.add_kernel(blocks=blocks, launches=1)
            trace.gpu_memory_bytes = 3 * n * elem_bytes
            timeline.add(f"batch {batch_idx} ({width} iters)",
                         "butterflies", trace)
            remaining -= width
            batch_idx += 1
        return timeline

    #: log2 of a power-of-two size (NttError otherwise)
    _log = staticmethod(_check_size)
