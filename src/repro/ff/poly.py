# repro: allow[R010] the SNARK tests' reference for H(x); safety code, kept
"""Dense polynomial arithmetic over a prime field.

Supports the QAP/POLY machinery with an independently-tested toolkit:
NTT-based multiplication, long division, evaluation, Lagrange
interpolation over power-of-two domains, and the vanishing polynomial.
The SNARK tests use it to cross-check the seven-NTT H(x) pipeline
against textbook polynomial algebra.

Coefficients are little-endian lists of canonical ints; the zero
polynomial is the empty list.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import FieldError
from repro.ff.primefield import PrimeField
from repro.ntt.reference import intt, ntt

__all__ = ["Polynomial"]


def _trim(coeffs: List[int]) -> List[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class Polynomial:
    """An immutable dense polynomial over a prime field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Sequence[int]):
        object.__setattr__(self, "field", field)
        object.__setattr__(
            self, "coeffs",
            tuple(_trim([c % field.modulus for c in coeffs])),
        )

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("Polynomial is immutable")

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @classmethod
    def zero(cls, field: PrimeField) -> "Polynomial":
        return cls(field, [])

    @classmethod
    def one(cls, field: PrimeField) -> "Polynomial":
        return cls(field, [1])

    @classmethod
    def x_power(cls, field: PrimeField, n: int) -> "Polynomial":
        return cls(field, [0] * n + [1])

    @classmethod
    def vanishing(cls, field: PrimeField, n: int) -> "Polynomial":
        """Z(x) = x^n - 1, vanishing on the size-n NTT domain."""
        return cls(field, [-1] + [0] * (n - 1) + [1])

    def _check(self, other: "Polynomial") -> None:
        if self.field.modulus != other.field.modulus:
            raise FieldError("polynomials over different fields")

    # -- ring operations ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        p = self.field.modulus
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Polynomial(self.field, [(x + y) % p for x, y in zip(a, b)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        p = self.field.modulus
        return Polynomial(self.field, [(-c) % p for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.field.modulus
            k = other % p
            return Polynomial(self.field, [c * k % p for c in self.coeffs])
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        return self._mul_ntt(other)

    __rmul__ = __mul__

    def _mul_ntt(self, other: "Polynomial") -> "Polynomial":
        """Product via NTT convolution when the domain allows, falling
        back to schoolbook for tiny or oversized operands."""
        result_len = len(self.coeffs) + len(other.coeffs) - 1
        size = 1 << (result_len - 1).bit_length()
        if result_len < 16 or size.bit_length() - 1 > self.field.two_adicity:
            return self._mul_schoolbook(other)
        from repro.backend import get_backend

        backend = get_backend(None)
        a = list(self.coeffs) + [0] * (size - len(self.coeffs))
        b = list(other.coeffs) + [0] * (size - len(other.coeffs))
        fa, fb = ntt(self.field, a), ntt(self.field, b)
        prod = intt(self.field, backend.vmul(self.field, fa, fb))
        return Polynomial(self.field, prod[:result_len])

    def _mul_schoolbook(self, other: "Polynomial") -> "Polynomial":
        p = self.field.modulus
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % p
        return Polynomial(self.field, out)

    def divmod(self, divisor: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        """Long division: self = q * divisor + r with deg r < deg d."""
        from repro.backend import get_backend

        self._check(divisor)
        if divisor.is_zero():
            raise FieldError("polynomial division by zero")
        backend = get_backend(None)
        p = self.field.modulus
        remainder = list(self.coeffs)
        d = list(divisor.coeffs)
        inv_lead = self.field.inv(d[-1])
        quotient = [0] * max(len(remainder) - len(d) + 1, 0)
        for shift in range(len(quotient) - 1, -1, -1):
            coeff = remainder[shift + len(d) - 1] * inv_lead % p
            quotient[shift] = coeff
            if coeff:
                # Each elimination row is one batched scale-and-subtract.
                remainder[shift:shift + len(d)] = backend.vsub(
                    self.field,
                    remainder[shift:shift + len(d)],
                    backend.vscale(self.field, d, coeff),
                )
        return (Polynomial(self.field, quotient),
                Polynomial(self.field, remainder[:len(d) - 1]))

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    # -- evaluation / interpolation ---------------------------------------------------

    def evaluate(self, x: int) -> int:
        """Horner evaluation."""
        p = self.field.modulus
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def evaluate_on_domain(self, n: int) -> List[int]:
        """Evaluations at the n-th roots of unity (one NTT)."""
        if self.degree >= n:
            raise FieldError(
                f"degree {self.degree} polynomial does not fit domain {n}"
            )
        padded = list(self.coeffs) + [0] * (n - len(self.coeffs))
        return ntt(self.field, padded)

    @classmethod
    def interpolate_on_domain(cls, field: PrimeField,
                              evals: Sequence[int]) -> "Polynomial":
        """Inverse of :meth:`evaluate_on_domain` (one INTT)."""
        return cls(field, intt(field, list(evals)))

    # -- comparison ----------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field.modulus == other.field.modulus
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.modulus, self.coeffs))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Polynomial(deg={self.degree})"
