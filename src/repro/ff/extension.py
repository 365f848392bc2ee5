"""Polynomial extension fields F_q[x]/(f) for pairing towers.

Pairing-based verification (Groth16's three-pairing check) needs the full
extension tower of the target curve: Fq2 for G2 coordinates and Fq12 for
the Miller-loop accumulator. This module implements a generic polynomial
quotient-ring field, parameterised by the base prime field and the
coefficients of the (monic) reduction polynomial — the same construction
py_ecc and arkworks use:

* ALT-BN128: Fq2 = Fq[i]/(i^2 + 1), Fq12 = Fq[w]/(w^12 - 18 w^6 + 82)
* BLS12-381: Fq2 = Fq[i]/(i^2 + 1), Fq12 = Fq[w]/(w^12 - 2 w^6 + 2)

A product is one lazy reduction: the schoolbook coefficient products
(skipping zero coefficients, which keeps line products sparse) are
summed unreduced, the monic modulus is folded into the low half through
its nonzero coefficients as small signed ints
(w^12 = 18 w^6 - 82 on ALT-BN128), and each output coefficient pays one
``% q``. :meth:`ExtElement.square` runs the same body over the
symmetric products only — 78 instead of 144 at degree 12, 3 instead of
4 at degree 2 — and ``**`` squares through it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import FieldError
from repro.ff.primefield import PrimeField

__all__ = ["ExtensionField", "ExtElement"]


class ExtensionField:
    """F_q[x] / (x^d + c_{d-1} x^{d-1} + ... + c_0).

    ``modulus_coeffs`` gives (c_0, ..., c_{d-1}) — the low-order
    coefficients of the monic reduction polynomial, as ints mod q.
    """

    def __init__(self, base: PrimeField, modulus_coeffs: Sequence[int],
                 name: str = "F_q^d"):
        if not modulus_coeffs:
            raise FieldError("extension degree must be >= 1")
        self.base = base
        self.degree = len(modulus_coeffs)
        self.modulus_coeffs = tuple(c % base.modulus for c in modulus_coeffs)
        self.name = name
        # x^d = -(c_0 + ... + c_{d-1} x^{d-1}): per high coefficient k
        # of a product, the (slot, -c_j) it folds into, each -c_j as the
        # signed residue nearest zero so unreduced sums stay a few bits
        # wider than one product.
        p = base.modulus
        d = self.degree
        fold = [(j, -c if c <= p // 2 else p - c)
                for j, c in enumerate(self.modulus_coeffs) if c]
        self._fold = tuple((k, tuple((k - d + j, c) for j, c in fold))
                           for k in range(2 * d - 2, d - 1, -1))

    def _reduce(self, prod: List[int]) -> "ExtElement":
        """The element of an unreduced product polynomial (2d - 1
        coefficients, consumed): fold the high half down through the
        modulus, then one ``% q`` per output coefficient."""
        for k, slots in self._fold:
            top = prod[k]
            if top:
                for j, c in slots:
                    prod[j] += top * c
        p = self.base.modulus
        return ExtElement(self, tuple(c % p for c in prod[:self.degree]))

    # -- constructors ----------------------------------------------------------

    def element(self, coeffs: Sequence[int]) -> "ExtElement":
        if len(coeffs) != self.degree:
            raise FieldError(
                f"{self.name} element needs {self.degree} coefficients, "
                f"got {len(coeffs)}"
            )
        return ExtElement(self, tuple(c % self.base.modulus for c in coeffs))

    def from_base(self, value: int) -> "ExtElement":
        coeffs = [value % self.base.modulus] + [0] * (self.degree - 1)
        return ExtElement(self, tuple(coeffs))

    @property
    def zero(self) -> "ExtElement":
        return ExtElement(self, (0,) * self.degree)

    @property
    def one(self) -> "ExtElement":
        return self.from_base(1)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and self.base.modulus == other.base.modulus
            and self.modulus_coeffs == other.modulus_coeffs
        )

    def __hash__(self):
        return hash((self.base.modulus, self.modulus_coeffs))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"ExtensionField({self.name}, degree {self.degree})"


class ExtElement:
    """An element of an :class:`ExtensionField`, stored as a coefficient
    tuple (low-order first). Immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtensionField, coeffs: Tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("ExtElement is immutable")

    def _check(self, other: "ExtElement") -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldError("cannot mix elements of different extension fields")

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "ExtElement") -> "ExtElement":
        self._check(other)
        p = self.field.base.modulus
        return ExtElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        self._check(other)
        p = self.field.base.modulus
        return ExtElement(
            self.field,
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "ExtElement":
        p = self.field.base.modulus
        return ExtElement(self.field, tuple((-a) % p for a in self.coeffs))

    def scale(self, k: int) -> "ExtElement":
        p = self.field.base.modulus
        k %= p
        return ExtElement(self.field, tuple(a * k % p for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        prod: List[int] = [0] * (2 * self.field.degree - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    prod[i + j] += a * b
        return self.field._reduce(prod)

    __rmul__ = __mul__

    def square(self) -> "ExtElement":
        """``self * self`` from the symmetric products: each a_i^2 once
        and each 2 a_i a_j (i < j) once."""
        terms = [(i, a) for i, a in enumerate(self.coeffs) if a]
        prod: List[int] = [0] * (2 * self.field.degree - 1)
        for n, (i, a) in enumerate(terms):
            prod[i + i] += a * a
            a2 = a + a
            for j, b in terms[n + 1:]:
                prod[i + j] += a2 * b
        return self.field._reduce(prod)

    def __pow__(self, e: int) -> "ExtElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base.square()
        return result

    def inverse(self) -> "ExtElement":
        """Extended-Euclid inversion of polynomials over F_q (the
        classic FQP.inv algorithm used by py_ecc and friends); on a
        quadratic extension, the conjugate over the norm."""
        if not self:
            raise FieldError("zero has no inverse")
        p = self.field.base.modulus
        d = self.field.degree
        if d == 2:
            # (a + b x)^-1 = (a - c1 b - b x) / (a^2 - c1 a b + c0 b^2):
            # one base-field inversion of the norm.
            c0, c1 = self.field.modulus_coeffs
            a, b = self.coeffs
            t = a - c1 * b
            n_inv = pow((a * t + c0 * b * b) % p, -1, p)
            return ExtElement(self.field, (t * n_inv % p, -b * n_inv % p))

        def deg(poly: List[int]) -> int:
            for i in range(len(poly) - 1, -1, -1):
                if poly[i]:
                    return i
            return 0

        def poly_rounded_div(a: List[int], b: List[int]) -> List[int]:
            dega, degb = deg(a), deg(b)
            temp = list(a)
            out = [0] * (dega - degb + 1)
            b_lead_inv = pow(b[degb], -1, p)
            for i in range(dega - degb, -1, -1):
                out[i] = temp[degb + i] * b_lead_inv % p
                for c in range(degb + 1):
                    temp[c + i] = (temp[c + i] - out[i] * b[c]) % p
            return out

        lm, hm = [1] + [0] * d, [0] * (d + 1)
        low = list(self.coeffs) + [0]
        high = list(self.field.modulus_coeffs) + [1]
        while deg(low):
            quotient = poly_rounded_div(high, low)
            quotient += [0] * (d + 1 - len(quotient))
            nm = list(hm)
            new = list(high)
            for i in range(d + 1):
                for j in range(d + 1 - i):
                    nm[i + j] = (nm[i + j] - lm[i] * quotient[j]) % p
                    new[i + j] = (new[i + j] - low[i] * quotient[j]) % p
            lm, low, hm, high = nm, new, lm, low
        inv_c = pow(low[0], -1, p)
        return ExtElement(self.field, tuple(c * inv_c % p for c in lm[:d]))

    def __truediv__(self, other: "ExtElement") -> "ExtElement":
        return self * other.inverse()

    # -- structure ----------------------------------------------------------------

    def conjugate(self) -> "ExtElement":
        """Degree-2 conjugation (a + bi -> a - bi). Only valid on
        quadratic extensions."""
        if self.field.degree != 2:
            raise FieldError("conjugate is defined on quadratic extensions only")
        p = self.field.base.modulus
        return ExtElement(self.field, (self.coeffs[0], (-self.coeffs[1]) % p))

    def __eq__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"ExtElement({list(self.coeffs)} in {self.field.name})"
