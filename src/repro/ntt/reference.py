"""Reference NTT/INTT: the functional ground truth.

Iterative decimation-in-time Cooley-Tukey over a prime field's 2-adic
root of unity (Figure 2 of the paper). Every GPU-scheduled variant in
this package must produce byte-identical results to these functions.

``ntt``/``intt`` route through the compute-backend layer
(:mod:`repro.backend`): the default ``python`` backend runs
:func:`_ntt_inplace` below — the historical loop, unchanged — while
vectorized backends run fused sweeps that are bit-identical and emit
the same op counts.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import NttError
from repro.ff.opcount import count
from repro.ff.primefield import PrimeField

__all__ = ["bit_reverse_permute", "ntt", "intt", "naive_dft"]


def _check_size(n: int) -> int:
    if n == 0 or n & (n - 1):
        raise NttError(f"NTT size must be a power of two, got {n}")
    return n.bit_length() - 1


def bit_reverse_permute(values: List) -> None:
    """In-place bit-reversal permutation (prologue of DIT Cooley-Tukey)."""
    n = len(values)
    log_n = _check_size(n)
    for i in range(n):
        j = int(format(i, f"0{log_n}b")[::-1], 2) if log_n else 0
        if i < j:
            values[i], values[j] = values[j], values[i]


def ntt(field: PrimeField, values: Sequence[int],
        backend=None) -> List[int]:
    """Forward NTT: evaluations of the polynomial with coefficients
    ``values`` at the powers of the primitive N-th root of unity.

    Natural-order input, natural-order output; O(N log N) butterflies.
    ``backend`` accepts a :class:`~repro.backend.base.ComputeBackend`
    (or name); ``None`` resolves via ``$REPRO_BACKEND``.
    """
    from repro.backend import get_backend

    _check_size(len(values))
    return get_backend(backend).ntt(field, values)


def intt(field: PrimeField, values: Sequence[int],
         backend=None) -> List[int]:
    """Inverse NTT: interpolates coefficients from evaluations."""
    from repro.backend import get_backend

    _check_size(len(values))
    return get_backend(backend).intt(field, values)


def _ntt_inplace(field: PrimeField, a: List[int], omega: int) -> None:
    """The shared butterfly engine (Figure 2's iteration structure)."""
    n = len(a)
    p = field.modulus
    bit_reverse_permute(a)
    half = 1
    while half < n:
        w_step = pow(omega, n // (2 * half), p)
        for start in range(0, n, 2 * half):
            w = 1
            for j in range(start, start + half):
                u = a[j]
                v = a[j + half] * w % p
                s = u + v
                a[j] = s - p if s >= p else s
                d = u - v
                a[j + half] = d + p if d < 0 else d
                w = w * w_step % p
        count("butterfly", n // 2)
        count("fr_mul", n // 2)
        count("fr_add", n)
        half *= 2


def naive_dft(field: PrimeField, values: Sequence[int]) -> List[int]:
    """O(N^2) direct evaluation — the independent oracle the fast
    transforms are tested against."""
    n = len(values)
    _check_size(n)
    omega = field.root_of_unity(n)
    p = field.modulus
    out = []
    for k in range(n):
        acc = 0
        w = pow(omega, k, p)
        x = 1
        for v in values:
            acc = (acc + v * x) % p
            x = x * w % p
        out.append(acc)
    return out
