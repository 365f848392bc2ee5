# repro: allow[R010] kept for batch_scalar_mul's signed windows, its planned caller
"""Signed-digit bucket halving: an extension beyond the paper.

Modern MSM engines (arkworks, gnark, cuZK) recode scalars into *signed*
base-2^k digits d in [-2^(k-1), 2^(k-1)]: a negative digit contributes
the cheaply-computed negation -P to bucket |d|, so only 2^(k-1) buckets
exist per window — half the bucket storage, half the bucket-reduction
work, and (for GZKP's consolidated scheme) half the residual sub-bucket
state. This module implements the recoding and a consolidated MSM using
it, as the kind of follow-on optimisation the paper's §7 invites.

The recoding: process digits low to high; when a digit exceeds 2^(k-1),
subtract 2^k and carry one into the next window. A final carry appends
an extra (positive) top digit, so scalars of full bit-length need one
extra window.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.declass import declassify
from repro.curves.weierstrass import AffinePoint, CurveGroup
from repro.errors import MsmError
from repro.ff.opcount import OpCounter
from repro.msm.common import counting
from repro.msm.naive import check_msm_inputs
from repro.msm.pippenger import bucket_reduce
from repro.msm.windows import num_windows

__all__ = ["signed_digits", "SignedConsolidatedMsm"]


@declassify("signed-digit recoding is the same declassification "
             "boundary as scalar_digits: bucket workload derived from "
             "digits is GZKP's public scheduling input (Figure 6)")
def signed_digits(scalar: int, scalar_bits: int, window: int) -> List[int]:
    """Signed base-2^k digits, least-significant first.

    sum(d_t * 2^(t*k)) == scalar, each |d_t| <= 2^(k-1); one window
    longer than the unsigned decomposition to absorb the final carry.
    """
    if scalar < 0:
        raise MsmError("scalars must be non-negative (reduce mod r first)")
    if window < 1:
        raise MsmError(f"window size must be >= 1, got {window}")
    base = 1 << window
    half = base >> 1
    digits = []
    carry = 0
    for t in range(num_windows(scalar_bits, window)):
        d = ((scalar >> (t * window)) & (base - 1)) + carry
        if d > half:
            d -= base
            carry = 1
        else:
            carry = 0
        digits.append(d)
    digits.append(carry)
    return digits


class SignedConsolidatedMsm:
    """GZKP-style cross-window consolidation over signed digits.

    Buckets 1..2^(k-1) only; an entry with digit -d adds the negated
    weighted point to bucket d. Full preprocessing (interval 1) for
    clarity — the checkpoint machinery composes identically."""

    def __init__(self, group: CurveGroup, scalar_bits: int, window: int):
        if window < 2:
            raise MsmError("signed recoding needs window >= 2")
        self.group = group
        self.scalar_bits = scalar_bits
        self.window = window

    @property
    def n_buckets(self) -> int:
        return 1 << (self.window - 1)

    def compute(self, scalars: Sequence[int], points: Sequence[AffinePoint],
                counter: Optional[OpCounter] = None) -> AffinePoint:
        check_msm_inputs(self.group, scalars, points, self.scalar_bits)
        if not scalars:
            return None
        group = self.group
        with counting(group, counter):
            o = group.ops
            infinity = (o.one, o.one, o.zero)
            k = self.window
            # Weighted points for every window (extra carry window incl).
            w = num_windows(self.scalar_bits, k) + 1
            weighted = [list(points)]
            for _ in range(1, w):
                prev = weighted[-1]
                row = []
                for p in prev:
                    jp = group.to_jacobian(p)
                    for _ in range(k):
                        jp = group.jdouble(jp)
                    row.append(group.from_jacobian(jp))
                weighted.append(row)

            buckets = [infinity] * self.n_buckets
            for i, s in enumerate(scalars):
                for t, d in enumerate(signed_digits(s, self.scalar_bits, k)):
                    if d == 0:
                        continue
                    point = weighted[t][i]
                    if point is None:
                        continue
                    if d < 0:
                        point = group.neg(point)
                        d = -d
                    buckets[d - 1] = group.jmixed_add(buckets[d - 1], point)
            total = bucket_reduce(group, buckets)
            return group.from_jacobian(total)
