"""Finite-field substrate: prime fields (with their 64-bit and base-2^52
limb geometry), extension towers and operation counting (polynomials
are :mod:`repro.ff.poly`)."""

from repro.ff.primefield import FieldElement, PrimeField
from repro.ff.extension import ExtElement, ExtensionField
from repro.ff.opcount import OpCounter
from repro.ff.params import (
    ALT_BN128_Q,
    ALT_BN128_R,
    BASE_FIELDS,
    BLS12_381_Q,
    BLS12_381_R,
    MNT4753_Q,
    MNT4753_R,
    SCALAR_FIELDS,
)

__all__ = [
    "PrimeField",
    "FieldElement",
    "ExtensionField",
    "ExtElement",
    "OpCounter",
    "ALT_BN128_R",
    "ALT_BN128_Q",
    "BLS12_381_R",
    "BLS12_381_Q",
    "MNT4753_R",
    "MNT4753_Q",
    "SCALAR_FIELDS",
    "BASE_FIELDS",
]
