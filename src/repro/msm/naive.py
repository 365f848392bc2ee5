"""Naive MSM: the functional oracle every fast algorithm is tested
against. Computes sum(s_i * P_i) by plain scalar multiplication and
accumulation — O(N * l) point operations, used only at test scales."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import MsmError
from repro.curves.weierstrass import AffinePoint, CurveGroup

__all__ = ["naive_msm", "check_msm_inputs"]


def check_msm_inputs(group: CurveGroup, scalars: Sequence[int],
                     points: Sequence[AffinePoint],
                     scalar_bits: Optional[int] = None) -> None:
    """Shared input validation for every MSM implementation. The
    windowed engines decompose exactly ``scalar_bits`` bits, so they
    pass it and a wider scalar is refused rather than truncated; the
    double-and-add oracle reduces mod the group order itself and passes
    none."""
    if len(scalars) != len(points):
        raise MsmError(
            f"scalar/point length mismatch: {len(scalars)} vs {len(points)}"
        )
    for s in scalars:
        if s < 0:
            raise MsmError("scalars must be non-negative (reduce mod r first)")
        if scalar_bits is not None and s.bit_length() > scalar_bits:
            raise MsmError(f"scalars must fit {scalar_bits} bits "
                           "(reduce mod r first)")


def naive_msm(group: CurveGroup, scalars: Sequence[int],
              points: Sequence[AffinePoint]) -> Optional[tuple]:
    """sum of s_i * P_i via double-and-add; None is the identity."""
    check_msm_inputs(group, scalars, points)
    acc = None
    for s, p in zip(scalars, points):
        term = group.scalar_mul(s, p)
        acc = group.add(acc, term)
    return acc
