"""Scalar digit decomposition and bucket statistics for windowed MSM.

All Pippenger-family algorithms (bellperson's, MINA's Straus, GZKP's)
start by writing each l-bit scalar in base 2^k: scalar s has digits
d_t = (s >> t*k) & (2^k - 1) for window t in [0, ceil(l/k)).

The digit *distribution* drives both cost (zero digits contribute no
point additions) and load balance (bucket j's point-merging work is the
number of scalars with digit j). :func:`bucket_histogram` computes the
exact distribution of a scalar vector — Figure 6's input — and
:func:`DigitStats` summarises what the cost models need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.declass import declassify
from repro.errors import MsmError

__all__ = ["num_windows", "scalar_digits", "bucket_histogram", "DigitStats"]


def num_windows(scalar_bits: int, window: int) -> int:
    if window < 1:
        raise MsmError(f"window size must be >= 1, got {window}")
    return -(-scalar_bits // window)  # ceil


@declassify("GZKP's bucket pipeline is data-dependent by design: the "
             "digit distribution IS the workload model (Figure 6), and "
             "bucket routing downstream of this decomposition is "
             "treated as public scheduling input")
def scalar_digits(scalar: int, scalar_bits: int, window: int) -> List[int]:
    """Base-2^k digits of one scalar, least-significant window first."""
    if scalar < 0:
        raise MsmError("scalars must be non-negative (reduce mod r first)")
    mask = (1 << window) - 1
    return [
        (scalar >> (t * window)) & mask
        for t in range(num_windows(scalar_bits, window))
    ]


def _digits(scalars: Sequence[int], scalar_bits: int, window: int,
            backend):
    """Digit matrix via the compute backend's vectorized scalar
    front-end (``backend=None`` resolves ``$REPRO_BACKEND``)."""
    from repro.backend import get_backend

    return get_backend(backend).digits_matrix(scalars, scalar_bits, window)


def bucket_histogram(scalars: Sequence[int], scalar_bits: int,
                     window: int, backend=None) -> Dict[int, int]:
    """How many (scalar, window) pairs fall in each non-zero bucket —
    exactly the per-bucket point-merging workload of GZKP's consolidated
    scheme (Figure 6). Bucket 0 is excluded: it needs no processing.

    Digit extraction runs through the compute backend's
    ``digits_matrix``; the counts are identical on every backend."""
    dm = _digits(scalars, scalar_bits, window, backend)
    counts: Dict[int, int] = {}
    if hasattr(dm, "nonzero"):  # ndarray fast path: one bincount
        import numpy as np

        flat = dm[dm != 0]
        for d, c in enumerate(np.bincount(flat)) if flat.size else ():
            if c:
                counts[int(d)] = int(c)
        return counts
    for row in dm:
        for d in row:
            if d:
                counts[d] = counts.get(d, 0) + 1
    return counts


@dataclass(frozen=True)
class DigitStats:
    """Summary of a scalar vector's digit structure under one window."""

    n: int                    # number of scalars
    windows: int
    nonzero_digits: int       # total point-merging additions required
    max_bucket_load: int      # heaviest bucket (load-balance driver)
    mean_bucket_load: float   # over non-empty buckets
    #: per-window nonzero counts — the load each window-thread carries in
    #: window-parallel designs (bellperson's imbalance driver)
    window_loads: tuple

    @classmethod
    def of(cls, scalars: Sequence[int], scalar_bits: int,
           window: int, backend=None) -> "DigitStats":
        """Exact stats of a scalar vector, with digit extraction through
        the compute backend's ``digits_matrix`` (``backend=None``
        resolves ``$REPRO_BACKEND``; results are backend-independent)."""
        w = num_windows(scalar_bits, window)
        dm = _digits(scalars, scalar_bits, window, backend)
        if hasattr(dm, "nonzero"):  # ndarray fast path: bincounts
            import numpy as np

            nz = dm != 0
            total = int(nz.sum())
            window_loads = [int(x) for x in nz.sum(axis=0)]
            loads = np.bincount(dm[nz]) if total else np.zeros(1, int)
            nonempty = int((loads[1:] > 0).sum())
            max_load = int(loads.max()) if total else 0
            mean_load = total / nonempty if nonempty else 0.0
            return cls(
                n=len(scalars),
                windows=w,
                nonzero_digits=total,
                max_bucket_load=max_load,
                mean_bucket_load=mean_load,
                window_loads=tuple(window_loads),
            )
        window_loads = [0] * w
        bucket: Dict[int, int] = {}
        total = 0
        for row in dm:
            for t, d in enumerate(row):
                if d:
                    total += 1
                    window_loads[t] += 1
                    bucket[d] = bucket.get(d, 0) + 1
        max_load = max(bucket.values()) if bucket else 0
        mean_load = total / len(bucket) if bucket else 0.0
        return cls(
            n=len(scalars),
            windows=w,
            nonzero_digits=total,
            max_bucket_load=max_load,
            mean_bucket_load=mean_load,
            window_loads=tuple(window_loads),
        )

    @property
    def nonzero_fraction(self) -> float:
        """Fraction of (scalar, window) digit slots that are non-zero."""
        slots = self.n * self.windows
        return self.nonzero_digits / slots if slots else 0.0

    @property
    def bucket_imbalance(self) -> float:
        """max/mean bucket load, >= 1 (Figure 6: up to 2.85x on Zcash)."""
        if self.mean_bucket_load == 0:
            return 1.0
        return max(1.0, self.max_bucket_load / self.mean_bucket_load)

    @property
    def window_imbalance(self) -> float:
        """max/mean per-window load — the straggler factor of
        window-parallel execution on sparse inputs."""
        loads = [x for x in self.window_loads]
        if not loads or sum(loads) == 0:
            return 1.0
        mean = sum(loads) / len(loads)
        return max(1.0, max(loads) / mean) if mean else 1.0

    @classmethod
    def dense_model(cls, n: int, scalar_bits: int, window: int) -> "DigitStats":
        """Analytic stats for uniform scalars at paper scales (no
        enumeration): each digit is uniform over 2^k values, so the
        non-zero fraction is 1 - 2^-k and buckets are balanced."""
        w = num_windows(scalar_bits, window)
        frac = 1.0 - 2.0 ** (-window)
        nonzero = int(n * w * frac)
        per_bucket = nonzero / max((1 << window) - 1, 1)
        per_window = nonzero // max(w, 1)
        return cls(
            n=n,
            windows=w,
            nonzero_digits=nonzero,
            max_bucket_load=int(per_bucket),
            mean_bucket_load=per_bucket,
            window_loads=tuple([per_window] * w),
        )

    @classmethod
    def sparse_model(cls, n: int, scalar_bits: int, window: int,
                     zero_fraction: float, one_fraction: float) -> "DigitStats":
        """Analytic stats for the paper's real-world sparse vectors:
        ``zero_fraction`` of scalars are 0 (no digits at all),
        ``one_fraction`` are 1 (a single digit, in window 0, bucket 1),
        the rest uniform. §4.2: bound checks and range constraints
        introduce many 0s and 1s into the u vector."""
        if zero_fraction + one_fraction > 1.0:
            raise MsmError("zero and one fractions exceed 1")
        w = num_windows(scalar_bits, window)
        n_one = int(n * one_fraction)
        n_dense = n - int(n * zero_fraction) - n_one
        frac = 1.0 - 2.0 ** (-window)
        dense_nonzero = int(n_dense * w * frac)
        nonzero = dense_nonzero + n_one
        dense_per_bucket = dense_nonzero / max((1 << window) - 1, 1)
        # Bucket 1 additionally absorbs every literal-1 scalar.
        max_bucket = int(dense_per_bucket + n_one)
        nonempty = min((1 << window) - 1, max(nonzero, 1))
        window_loads = [dense_nonzero // max(w, 1)] * w
        window_loads[0] += n_one
        return cls(
            n=n,
            windows=w,
            nonzero_digits=nonzero,
            max_bucket_load=max_bucket,
            mean_bucket_load=nonzero / nonempty if nonempty else 0.0,
            window_loads=tuple(window_loads),
        )
