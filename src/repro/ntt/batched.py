"""Throughput-oriented batched NTT — the paper's §7 extension path.

§7: homomorphic encryption runs *many smaller independent NTTs*
concurrently for throughput, where ZKP runs one large NTT for latency.
"Our design adopts smaller independent groups as the task granularity,
making it suitable for throughput-oriented NTT applications with the
aforementioned batching techniques."

:class:`BatchedNtt` schedules a batch of same-size transforms: the
independent groups of *different transforms* fill the GPU together, so
blocks never idle even when one transform alone could not saturate the
device. The functional path computes every transform exactly; the
analytic path shows the throughput benefit over serial dispatch.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import NttError
from repro.ff.primefield import PrimeField
from repro.gpusim.trace import DFP_BACKEND, Trace
from repro.gpusim.device import GpuDevice
from repro.ntt.gpu_gzkp import GzkpNtt

__all__ = ["BatchedNtt"]


class BatchedNtt:
    """A batch of independent same-size NTTs over one field."""

    def __init__(self, field: PrimeField, device: GpuDevice):
        self.field = field
        self.device = device
        self._single = GzkpNtt(field, device)

    # -- functional ---------------------------------------------------------------

    def compute(self, batch: Sequence[Sequence[int]]) -> List[List[int]]:
        """Transform every vector in the batch (all must share a size)."""
        if not batch:
            return []
        n = len(batch[0])
        for vec in batch:
            if len(vec) != n:
                raise NttError("all transforms in a batch must share a size")
        return [self._single.compute(vec) for vec in batch]

    def compute_inverse(self,
                        batch: Sequence[Sequence[int]]) -> List[List[int]]:
        return [self._single.compute_inverse(vec) for vec in batch]

    # -- analytic --------------------------------------------------------------------

    def plan(self, batch_size: int, n: int) -> Trace:
        """Counted work of the whole batch under co-scheduling: arithmetic
        and traffic scale with the batch; per-batch kernel launches are
        shared (transforms ride the same grid), which is where the
        throughput win over serial dispatch comes from."""
        single = self._single.plan(n)
        trace = Trace()
        bits = self.field.bits
        trace.add_gpu_muls(
            bits, batch_size * single.gpu_muls[(bits, DFP_BACKEND)],
            DFP_BACKEND,
        )
        trace.add_gpu_adds(bits, batch_size * single.gpu_adds[bits])
        trace.add_global_traffic(batch_size * single.global_bytes,
                                 coalescing=1.0)
        # Same launch count as ONE transform; blocks scale with the batch.
        trace.add_kernel(blocks=batch_size * single.blocks_launched,
                         launches=single.kernel_launches)
        trace.gpu_memory_bytes = batch_size * single.gpu_memory_bytes
        return trace

    def throughput_transforms_per_second(self, batch_size: int,
                                         n: int) -> float:
        """Sustained transform rate for the batch."""
        return batch_size / self.device.time_of(self.plan(batch_size, n))

    def serial_throughput(self, n: int) -> float:
        """Transform rate when dispatching one NTT at a time (the
        latency-oriented ZKP configuration)."""
        return 1.0 / self._single.estimate_seconds(n)
