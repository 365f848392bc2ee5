"""Shared helpers of the MSM engines: cost-model geometry."""

from __future__ import annotations

from repro.curves.weierstrass import CurveGroup
from repro.ff.extension import ExtensionField

__all__ = ["coord_bits", "coord_words", "affine_point_bytes",
           "jacobian_point_bytes", "fq_mul_factor_of"]


def coord_bits(group: CurveGroup) -> int:
    """Bit-width of the *base* prime field underlying the coordinates
    (381 for BLS12-381 G1 and G2 alike — G2's extension arithmetic is
    priced via a multiplication-count factor, not a wider field)."""
    field = group.coord_field
    if isinstance(field, ExtensionField):
        return field.base.modulus.bit_length()
    return field.modulus.bit_length()


def _ext_degree(group: CurveGroup) -> int:
    field = group.coord_field
    return field.degree if isinstance(field, ExtensionField) else 1


def coord_words(group: CurveGroup) -> int:
    """64-bit words per coordinate (including extension components)."""
    return _ext_degree(group) * ((coord_bits(group) + 63) // 64)


def affine_point_bytes(group: CurveGroup) -> int:
    return 2 * coord_words(group) * 8


def jacobian_point_bytes(group: CurveGroup) -> int:
    return 3 * coord_words(group) * 8


def fq_mul_factor_of(group: CurveGroup) -> float:
    """Cost of one coordinate-field mul in base-field muls: 1 for G1,
    ~3 for Fq2 (Karatsuba)."""
    degree = _ext_degree(group)
    if degree == 1:
        return 1.0
    if degree == 2:
        return 3.0
    return float(degree * degree)
