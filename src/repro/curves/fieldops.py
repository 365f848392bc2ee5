"""Uniform arithmetic adapters so curve formulas are written once.

G1 coordinates live in F_q (plain ints); G2 coordinates live in Fq2
(:class:`~repro.ff.extension.ExtElement`). :class:`IntFieldOps` and
:class:`ExtFieldOps` expose the same small interface over both, letting
:mod:`repro.curves.weierstrass` implement the group law generically.
"""

from __future__ import annotations

from typing import Any

from repro.ff.extension import ExtensionField
from repro.ff.primefield import PrimeField

__all__ = ["IntFieldOps", "ExtFieldOps", "make_ops"]


class IntFieldOps:
    """Coordinate arithmetic over a prime field, elements as plain ints."""

    __slots__ = ("field",)

    def __init__(self, field: PrimeField):
        self.field = field

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return self.field.add(a, b)

    def sub(self, a, b):
        return self.field.sub(a, b)

    def neg(self, a):
        return self.field.neg(a)

    def mul(self, a, b):
        return self.field.mul(a, b)

    def sqr(self, a):
        return self.field.sqr(a)

    def inv(self, a):
        return self.field.inv(a)

    def mul_small(self, a, k: int):
        return self.field.mul(a, self.field.reduce(k))

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return a == 0

    def coerce(self, value) -> Any:
        if isinstance(value, int):
            return self.field.reduce(value)
        raise TypeError(f"cannot coerce {type(value)!r} into {self.field.name}")

    # Struct-of-arrays adapters: vectorized backends store coordinates
    # as one plane of base-field residues per coefficient.

    def coeffs(self, a) -> tuple:
        """Base-field coefficient view of one element (one plane)."""
        return (a,)

    def from_coeffs(self, cs) -> Any:
        """Inverse of :meth:`coeffs`."""
        return cs[0]


class ExtFieldOps:
    """Coordinate arithmetic over an extension field (Fq2 for G2)."""

    __slots__ = ("field",)

    def __init__(self, field: ExtensionField):
        self.field = field

    @property
    def zero(self):
        return self.field.zero

    @property
    def one(self):
        return self.field.one

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def sqr(self, a):
        return a.square()

    def inv(self, a):
        return a.inverse()

    def mul_small(self, a, k: int):
        return a.scale(k)

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return not a

    def coerce(self, value) -> Any:
        if isinstance(value, int):
            return self.field.from_base(value)
        if getattr(value, "field", None) == self.field:
            return value
        if isinstance(value, (tuple, list)):
            return self.field.element(list(value))
        raise TypeError(f"cannot coerce {type(value)!r} into {self.field.name}")

    # Struct-of-arrays adapters (degree planes of base-field residues).

    def coeffs(self, a) -> tuple:
        """Base-field coefficient view of one element (degree planes)."""
        return a.coeffs

    def from_coeffs(self, cs) -> Any:
        """Inverse of :meth:`coeffs`."""
        return self.field.element(list(cs))


def make_ops(field):
    """Build the right adapter for a prime or extension field."""
    if isinstance(field, PrimeField):
        return IntFieldOps(field)
    if isinstance(field, ExtensionField):
        return ExtFieldOps(field)
    raise TypeError(f"unsupported coordinate field {field!r}")
