"""Batched NTT execution: the functional engine shared by the GPU models.

Runs a :class:`~repro.ntt.batching.BatchPlan` exactly the way a GPU
would: per batch, gather each independent group's (possibly strided)
elements, run the batch's butterfly iterations locally on the gathered
sub-vector, and scatter back. The result is byte-identical to the
reference NTT; tests assert this for many (N, plan) combinations, which
validates the scheduling geometry the performance model reasons about.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import NttError
from repro.ff.opcount import OpCounter
from repro.ff.primefield import PrimeField
from repro.ntt.batching import BatchPlan, group_elements
from repro.ntt.reference import bit_reverse_permute

__all__ = ["run_batched_ntt"]


def run_batched_ntt(field: PrimeField, values: Sequence[int], plan: BatchPlan,
                    omega: Optional[int] = None,
                    counter: Optional[OpCounter] = None,
                    backend=None) -> List[int]:
    """Execute a forward NTT according to ``plan``.

    ``omega`` defaults to the primitive N-th root; pass its inverse (and
    post-scale by 1/N) for an inverse transform.

    The ``python`` backend (the default) walks the plan's gather/
    scatter schedule element by element — the geometry the performance
    model reasons about. A backend with fused sweeps (``numpy``) runs
    the whole transform in one batched engine call instead: the result
    stays byte-identical and the emitted op-count totals are unchanged
    (the plan only redistributes the same butterflies), so traces never
    depend on the backend. On that route ``values`` — ints or the
    backend's resident vector — is handed over untouched (the backend
    canonicalises at its own ingress) and comes back in the same
    representation.
    """
    from repro.backend import get_backend

    be = get_backend(backend)
    n = len(values)
    if n != plan.n:
        raise NttError(f"plan is for N={plan.n}, vector has {n}")
    if omega is None:
        omega = field.root_of_unity(n)
    if be.fuses_ntt_sweeps:
        return be.ntt(field, values, omega=omega, counter=counter)

    p = field.modulus
    a = [field.reduce(v) for v in values]
    bit_reverse_permute(a)
    for batch in plan.batches:
        n_groups = n >> batch.width
        for g in range(n_groups):
            idx = group_elements(plan.log_n, batch.shift, batch.width, g)
            local = [a[i] for i in idx]  # gather (the internal shuffle)
            _local_butterflies(p, local, idx, omega, n, batch.shift,
                               batch.width, counter)
            for i, v in zip(idx, local):  # scatter back
                a[i] = v
    return a


def _local_butterflies(p: int, local: List[int], global_idx: List[int],
                       omega: int, n: int, shift: int, width: int,
                       counter: Optional[OpCounter]) -> None:
    """Run global iterations [shift, shift+width) on one group's
    sub-vector. Local index j maps to global index global_idx[j]; at
    global iteration i the butterfly partner distance is 2^i globally
    and 2^(i-shift) locally, and the twiddle exponent depends on the
    *global* position, so the math matches the reference exactly."""
    for b in range(width):
        i = shift + b           # global iteration
        half = 1 << b           # local stride
        step = 1 << i           # global stride
        w_base_exp = n >> (i + 1)
        for start in range(0, len(local), 2 * half):
            for j in range(start, start + half):
                x = global_idx[j]
                # Twiddle index: (x mod 2^i) * N / 2^(i+1).
                exp = (x & (step - 1)) * w_base_exp
                w = pow(omega, exp, p)
                u = local[j]
                v = local[j + half] * w % p
                s = u + v
                local[j] = s - p if s >= p else s
                d = u - v
                local[j + half] = d + p if d < 0 else d
        if counter is not None:
            counter.count("butterfly", len(local) // 2)
            counter.count("fr_mul", len(local) // 2)
            counter.count("fr_add", len(local))
