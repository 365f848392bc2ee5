"""Window-parallel Pippenger MSM: the bellperson baseline model (§2.3).

The prior-art design GZKP improves upon (Figure 3):

* the N-point MSM is split **horizontally** into sub-MSMs, one per GPU
  block;
* within a sub-MSM, each thread owns one *window* and serially merges
  its bucket set (point-merging), then reduces the buckets with the
  running-sum trick (bucket-reduction);
* per-sub-MSM window results are combined on the **CPU**
  (window-reduction): Horner over windows with k doublings per step,
  after summing each window's partials across sub-MSMs;
* the plain integer field library; a fixed window size.

The functional path computes real curve points in exactly this
decomposition; the analytic path prices it, including the load imbalance
sparse scalar vectors inflict on window-per-thread parallelism (§4.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.curves.weierstrass import AffinePoint, CurveGroup
from repro.errors import MsmError
from repro.gpusim import cost
from repro.gpusim.trace import INT_BACKEND, Trace
from repro.gpusim.device import GpuDevice
from repro.msm.common import affine_point_bytes, coord_bits
from repro.msm.naive import check_msm_inputs
from repro.msm.windows import DigitStats, num_windows, scalar_digits

__all__ = ["SubMsmPippenger", "bucket_reduce"]


def bucket_reduce(group: CurveGroup, buckets: List) -> object:
    """sum of j * B_j over Jacobian buckets B_1.. via the running-suffix
    trick: 2 * (#buckets) PADDs instead of a PMUL per bucket."""
    o = group.ops
    infinity = (o.one, o.one, o.zero)
    running = infinity
    total = infinity
    for b in reversed(buckets):
        running = group.jadd(running, b)
        total = group.jadd(total, running)
    return total


@dataclass(frozen=True)
class SubMsmConfig:
    window: int
    n_sub_msms: int
    sub_msm_size: int


class SubMsmPippenger:
    """bellperson-model MSM: functional execution + cost plan."""

    def __init__(self, group: CurveGroup, scalar_bits: int, device: GpuDevice,
                 window: Optional[int] = None,
                 fq_mul_factor: float = 1.0,
                 backend=None):
        self.group = group
        self.scalar_bits = scalar_bits
        self.device = device
        self.window = window if window is not None else cost.BELLPERSON_MSM_WINDOW
        #: 1.0 for G1, ~3.0 for G2 (Fq2 muls cost ~3 Fq muls)
        self.fq_mul_factor = fq_mul_factor
        #: compute backend (name, instance or None = $REPRO_BACKEND)
        self.backend = backend

    # -- configuration -------------------------------------------------------

    def configure(self, n: int) -> SubMsmConfig:
        """Split into sub-MSMs so (windows x sub-MSMs) threads roughly
        fill the device, mirroring bellperson's work-unit sizing."""
        w = num_windows(self.scalar_bits, self.window)
        target_units = self.device.sm_count * 32  # ~one warp-slot per unit
        # Keep at least a bucket-set's worth of points per sub-MSM so
        # bucket-reduction does not dominate small scales.
        n_sub = max(1, min(n >> self.window, target_units // max(w, 1)))
        return SubMsmConfig(
            window=self.window,
            n_sub_msms=n_sub,
            sub_msm_size=math.ceil(n / n_sub),
        )

    # -- functional execution ---------------------------------------------------

    def compute(self, scalars: Sequence[int],
                points: Sequence[AffinePoint]) -> AffinePoint:
        check_msm_inputs(self.group, scalars, points, self.scalar_bits)
        if not scalars:
            return None
        from repro.backend import get_backend

        backend = get_backend(self.backend)
        cfg = self.configure(len(scalars))
        w = num_windows(self.scalar_bits, self.window)
        o = self.group.ops
        infinity = (o.one, o.one, o.zero)

        # Per-window partial sums across all sub-MSMs.
        window_totals = [infinity for _ in range(w)]
        for start in range(0, len(scalars), cfg.sub_msm_size):
            sub_s = scalars[start:start + cfg.sub_msm_size]
            sub_p = points[start:start + cfg.sub_msm_size]
            for t in range(w):
                # Point-merging for window t of this sub-MSM, as one
                # batch-accumulation (entries keep the scalar order,
                # so results and counts match the serial loop).
                buckets = [infinity] * ((1 << self.window) - 1)
                entries = []
                for s, p in zip(sub_s, sub_p):
                    d = scalar_digits(s, self.scalar_bits, self.window)[t]
                    if d:
                        entries.append((d - 1, p))
                # The backend may reassociate each bucket's sum and
                # hand back group-equal (x, y, 1) representatives
                # (see ComputeBackend.accumulate_buckets); the
                # reduction below is representation-independent.
                backend.accumulate_buckets(self.group, buckets, entries)
                # Bucket-reduction.
                w_t = bucket_reduce(self.group, buckets)
                window_totals[t] = self.group.jadd(window_totals[t], w_t)

        # Window-reduction (CPU side in bellperson): Horner.
        acc = infinity
        for t in range(w - 1, -1, -1):
            if t < w - 1:
                for _ in range(self.window):
                    acc = self.group.jdouble(acc)
            acc = self.group.jadd(acc, window_totals[t])
        return self.group.from_jacobian(acc)

    # -- analytic plan ----------------------------------------------------------------

    def _traces(self, n: int, stats: Optional[DigitStats]):
        """(balanced, imbalanced) work: bucket-reduction and the CPU
        window-reduction are uniform; point-merging pays the sparse
        window-straggler penalty."""
        if stats is None:
            stats = DigitStats.dense_model(n, self.scalar_bits, self.window)
        cfg = self.configure(n)
        w = stats.windows
        bits = coord_bits(self.group)
        stall = cost.msm_chain_stall(bits)
        point_bytes = self._point_bytes()

        balanced = Trace()
        # Bucket-reduction: 2 PADDs per bucket per (window, sub-MSM).
        reduce_padds = 2 * ((1 << self.window) - 1) * w * cfg.n_sub_msms
        balanced.add_gpu_muls(
            bits, reduce_padds * cost.PADD_MULS * self.fq_mul_factor,
            INT_BACKEND,
        )
        balanced.add_gpu_adds(bits, reduce_padds * cost.PADD_ADDS)
        # Window-reduction on the CPU: sum sub-MSM partials per window,
        # then Horner with k doublings per window step.
        cpu_padds = w * cfg.n_sub_msms + w * self.window
        balanced.add_cpu_muls(
            bits, cpu_padds * cost.PADD_MULS * self.fq_mul_factor
        )
        balanced.host_transfer_bytes = w * cfg.n_sub_msms * 3 * point_bytes
        balanced.parallel_efficiency = cost.BELLPERSON_MSM_UTILIZATION / stall
        balanced.add_kernel(blocks=cfg.n_sub_msms, launches=1)
        balanced.gpu_memory_bytes = (
            n * point_bytes
            + n * self.scalar_bits / 8
            + cfg.n_sub_msms * w * ((1 << self.window) - 1) * point_bytes * 1.5
        )

        imbalanced = Trace()
        # Point-merging: one mixed PADD per non-zero digit.
        merge_padds = stats.nonzero_digits
        imbalanced.add_gpu_muls(
            bits, merge_padds * cost.PMIXED_MULS * self.fq_mul_factor,
            INT_BACKEND,
        )
        imbalanced.add_gpu_adds(bits, merge_padds * cost.PADD_ADDS)
        # Memory traffic: points + scalars streamed once per window pass.
        imbalanced.add_global_traffic(n * point_bytes * w / 4, coalescing=0.5)
        # Load imbalance: window-per-thread parallelism waits for the
        # heaviest window thread (sparse inputs make window 0 a straggler).
        straggler = stats.window_imbalance ** cost.BELLPERSON_IMBALANCE_EXPONENT
        imbalanced.parallel_efficiency = cost.BELLPERSON_MSM_UTILIZATION / (
            straggler * stall
        )
        imbalanced.add_kernel(blocks=cfg.n_sub_msms, launches=w / 8)
        return balanced, imbalanced

    def plan(self, n: int, stats: Optional[DigitStats] = None) -> Trace:
        balanced, imbalanced = self._traces(n, stats)
        return balanced.merge(imbalanced)

    def estimate_seconds(self, n: int, stats: Optional[DigitStats] = None,
                         cpu_device=None) -> float:
        balanced, imbalanced = self._traces(n, stats)
        seconds = self.device.time_of(balanced) + self.device.time_of(imbalanced)
        if cpu_device is not None:
            seconds += cpu_device.time_of(balanced, parallel=False)
        return seconds

    def _point_bytes(self) -> int:
        return affine_point_bytes(self.group)
