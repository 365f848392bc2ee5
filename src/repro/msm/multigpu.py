"""Multi-GPU MSM: horizontal decomposition across cards (§5.2, Table 4).

"We decompose the computation horizontally into smaller sub-MSM tasks,
where each task uses all our proposed optimizations, and then assign
each of them to a GPU." The functional path really partitions and
combines; the analytic path prices the per-card work plus the inter-card
reduction, matching :class:`repro.systems.GzkpSystem`'s multi-GPU mode.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.curves.weierstrass import AffinePoint, CurveGroup
from repro.errors import MsmError
from repro.ff.opcount import OpCounter
from repro.gpusim import cost
from repro.gpusim.device import GpuDevice
from repro.msm.gzkp import GzkpMsm
from repro.msm.naive import check_msm_inputs
from repro.msm.windows import DigitStats, num_windows

__all__ = ["MultiGpuMsm"]


class MultiGpuMsm:
    """GZKP MSM split across ``n_gpus`` identical devices."""

    def __init__(self, group: CurveGroup, scalar_bits: int, device: GpuDevice,
                 n_gpus: int, **gzkp_kwargs):
        if n_gpus < 1:
            raise MsmError("n_gpus must be >= 1")
        self.group = group
        self.scalar_bits = scalar_bits
        self.n_gpus = n_gpus
        self.device = device
        self._gzkp_kwargs = dict(gzkp_kwargs)
        self._engine = GzkpMsm(group, scalar_bits, device, **gzkp_kwargs)

    def partition(self, n: int) -> List[slice]:
        """Contiguous, near-equal horizontal slices, one per card."""
        base, extra = divmod(n, self.n_gpus)
        slices = []
        start = 0
        for card in range(self.n_gpus):
            size = base + (1 if card < extra else 0)
            slices.append(slice(start, start + size))
            start += size
        return slices

    def compute(self, scalars: Sequence[int], points: Sequence[AffinePoint],
                counter: Optional[OpCounter] = None) -> AffinePoint:
        """Each card runs the full GZKP MSM on its slice; partial results
        are PADD-combined on the host (a handful of operations)."""
        check_msm_inputs(self.group, scalars, points, self.scalar_bits)
        if not scalars:
            return None
        partials = []
        for part in self.partition(len(scalars)):
            if part.start == part.stop:
                continue
            partials.append(
                self._engine.compute(scalars[part], points[part],
                                     counter=counter)
            )
        acc = None
        for p in partials:
            acc = self.group.add(acc, p)
        return acc

    def estimate_seconds(self, n: int,
                         stats: Optional[DigitStats] = None) -> float:
        """Per-card latency (cards run concurrently) plus the inter-card
        transfer/reduction overhead.

        Caller-supplied digit stats (the sparse real-world vectors of
        Table 4's Zcash workloads) are scaled to the per-card slice —
        same sparsity fractions, per-card n — rather than silently
        replaced by the dense model.
        """
        per_card = max(n // self.n_gpus, 1)
        engine = self._engine
        if stats is not None:
            stats = stats.scaled(per_card)
            if engine.configure(per_card).n_windows != stats.windows:
                # Per-card profiling picked a different window than the
                # caller's stats were enumerated at; price the slice at
                # the stats' window so the distribution stays valid.
                engine = self._engine_at_windows(stats.windows)
        card_seconds = engine.estimate_seconds(per_card, stats)
        if self.n_gpus == 1:
            return card_seconds
        scaling_loss = card_seconds * (1 / cost.MULTI_GPU_EFFICIENCY - 1)
        reduce_overhead = cost.MULTI_GPU_REDUCE_OVERHEAD * self.n_gpus
        return card_seconds + scaling_loss + reduce_overhead

    def _engine_at_windows(self, windows: int) -> GzkpMsm:
        """A pricing engine pinned to the window size k whose digit
        decomposition has exactly ``windows`` windows."""
        k = -(-self.scalar_bits // windows)  # ceil; inverse of num_windows
        if num_windows(self.scalar_bits, k) != windows:
            raise MsmError(
                f"digit stats with {windows} windows do not correspond "
                f"to any window size at {self.scalar_bits} scalar bits"
            )
        kwargs = dict(self._gzkp_kwargs)
        kwargs["window"] = k
        return GzkpMsm(self.group, self.scalar_bits, self.device, **kwargs)
