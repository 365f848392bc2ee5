"""Prime-field arithmetic.

Two layers are provided:

* :class:`PrimeField` — a field *descriptor* with fast int-based methods
  (``add``, ``mul``, ``inv``...). Hot paths (NTT butterflies, curve
  formulas) call these directly on plain Python ints, which is the fastest
  representation available in pure Python.
* :class:`FieldElement` — an ergonomic wrapper with operator overloading
  for user-facing code (examples, the circuit DSL, the SNARK layer).

The limb geometry a GPU kernel sees is described here too:
:attr:`PrimeField.limbs64` (the 64-bit Montgomery words of the compiled
kernels) and :attr:`PrimeField.limbs52` (the base-2^52 double-precision
limbs of GZKP §4.3, which :mod:`repro.gpusim` prices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.errors import FieldError

__all__ = ["PrimeField", "FieldElement"]

# Root-of-unity lookups are made on every NTT call; the answers depend
# only on (modulus, order), so they are memoized here. Module-level
# dicts (rather than instance attributes) keep PrimeField frozen and
# let equal descriptors share entries.
_NONRESIDUE_CACHE: dict = {}
_ROOT_CACHE: dict = {}
_INV_ROOT_CACHE: dict = {}


def _two_adicity(n: int) -> int:
    """Number of trailing zero bits of ``n`` (largest s with 2^s | n)."""
    if n == 0:
        raise FieldError("two-adicity of zero is undefined")
    return (n & -n).bit_length() - 1


@dataclass(frozen=True)
class PrimeField:
    """A prime field F_p described by its modulus.

    Elements are represented as plain ints in ``[0, p)``. All methods
    assume canonical inputs and return canonical outputs.
    """

    modulus: int
    name: str = "F_p"

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise FieldError(f"modulus must be >= 2, got {self.modulus}")

    # -- basic structure ---------------------------------------------------

    @property
    def bits(self) -> int:
        """Bit-width of the modulus (e.g. 381 for BLS12-381's F_q)."""
        return self.modulus.bit_length()

    @property
    def limbs64(self) -> int:
        """Machine words (64-bit) needed to store one element."""
        return (self.bits + 63) // 64

    @property
    def limbs52(self) -> int:
        """Base-2^52 limbs needed for the DFP representation (GZKP §4.3)."""
        return (self.bits + 51) // 52

    @property
    def two_adicity(self) -> int:
        """Largest s such that 2^s divides p - 1 (max NTT size is 2^s)."""
        return _two_adicity(self.modulus - 1)

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1 % self.modulus

    # -- arithmetic --------------------------------------------------------

    def reduce(self, a: int) -> int:
        """Canonicalize an arbitrary int into [0, p)."""
        return a % self.modulus

    def add(self, a: int, b: int) -> int:
        s = a + b
        # sanctioned variable-time reference arithmetic: Python ints
        # are not constant-time to begin with; the GPU path replaces
        # this with a branchless SoA kernel  # repro: allow[R007]
        if s >= self.modulus:
            s -= self.modulus
        return s

    def sub(self, a: int, b: int) -> int:
        d = a - b
        if d < 0:
            d += self.modulus
        return d

    def neg(self, a: int) -> int:
        return self.modulus - a if a else 0

    def mul(self, a: int, b: int) -> int:
        return a * b % self.modulus

    def sqr(self, a: int) -> int:
        return a * a % self.modulus

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.modulus)
        return pow(a, e, self.modulus)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises :class:`FieldError` on zero."""
        # the zero guard is a correctness check, not a timing channel
        # we defend: a zero inverse aborts the whole proof anyway
        if a % self.modulus == 0:  # repro: allow[R007]
            raise FieldError(f"zero has no inverse in {self.name}")
        return pow(a, -1, self.modulus)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- batch helpers (used heavily by MSM/NTT) ---------------------------

    def batch_inv(self, values: Sequence[int]) -> List[int]:
        """Montgomery's batch-inversion trick: n inversions for the price
        of one plus 3(n-1) multiplications. Zero entries are rejected."""
        prefix: List[int] = []
        acc = 1
        for v in values:
            # correctness guard, same rationale as inv()'s zero check
            if v % self.modulus == 0:  # repro: allow[R007]
                raise FieldError("batch_inv of a zero element")
            acc = acc * v % self.modulus
            prefix.append(acc)
        inv_acc = self.inv(acc)
        out = [0] * len(values)
        for i in range(len(values) - 1, -1, -1):
            if i == 0:
                out[0] = inv_acc
            else:
                out[i] = prefix[i - 1] * inv_acc % self.modulus
                inv_acc = inv_acc * values[i] % self.modulus
        return out

    # -- roots of unity (NTT support) --------------------------------------

    def is_square(self, a: int) -> bool:
        """Euler's criterion. Zero counts as a square."""
        a %= self.modulus
        if a == 0:
            return True
        return pow(a, (self.modulus - 1) // 2, self.modulus) == 1

    def find_nonresidue(self) -> int:
        """Smallest quadratic non-residue (deterministic, memoized)."""
        cached = _NONRESIDUE_CACHE.get(self.modulus)
        if cached is not None:
            return cached
        for g in range(2, 1000):
            if not self.is_square(g):
                _NONRESIDUE_CACHE[self.modulus] = g
                return g
        raise FieldError(f"no small non-residue found in {self.name}")

    def root_of_unity(self, order: int) -> int:
        """A primitive ``order``-th root of unity; ``order`` must be a
        power of two not exceeding the field's 2-adicity. Memoized —
        every NTT call asks for it."""
        key = (self.modulus, order)
        cached = _ROOT_CACHE.get(key)
        if cached is not None:
            return cached
        if order <= 0 or order & (order - 1):
            raise FieldError(f"root order must be a power of two, got {order}")
        s = order.bit_length() - 1
        if s > self.two_adicity:
            raise FieldError(
                f"{self.name} supports NTT sizes up to 2^{self.two_adicity}, "
                f"requested 2^{s}"
            )
        if order == 1:
            root = self.one
        else:
            g = self.find_nonresidue()
            # g^((p-1)/2^s) has exact order 2^s because g is a non-residue.
            root = pow(g, (self.modulus - 1) >> s, self.modulus)
        _ROOT_CACHE[key] = root
        return root

    def inv_root_of_unity(self, order: int) -> int:
        """The inverse of :meth:`root_of_unity` (INTT twiddle base),
        memoized alongside it."""
        key = (self.modulus, order)
        cached = _INV_ROOT_CACHE.get(key)
        if cached is None:
            cached = _INV_ROOT_CACHE[key] = self.inv(self.root_of_unity(order))
        return cached

    # -- element construction ----------------------------------------------

    def element(self, value: int) -> "FieldElement":
        return FieldElement(self, value % self.modulus)

    def elements(self, values: Iterable[int]) -> List["FieldElement"]:
        return [self.element(v) for v in values]

    def random_element(self, rng) -> int:
        """A uniform field element as a plain int, from ``rng`` (a
        ``random.Random`` instance for reproducibility)."""
        return rng.randrange(self.modulus)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrimeField({self.name}, {self.bits}-bit)"


class FieldElement:
    """An element of a :class:`PrimeField` with operator overloading.

    Instances are immutable and hashable. Mixing elements of different
    fields raises :class:`FieldError`.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: PrimeField, value: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value % field.modulus)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> Optional[int]:
        if isinstance(other, FieldElement):
            if other.field.modulus != self.field.modulus:
                raise FieldError(
                    f"cannot mix elements of {self.field.name} and {other.field.name}"
                )
            return other.value
        if isinstance(other, int):
            return other % self.field.modulus
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.value, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(v, self.value))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.div(self.value, v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.div(v, self.value))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.value, e))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.value))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (
                self.field.modulus == other.field.modulus
                and self.value == other.value
            )
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.field.modulus, self.value))

    def __int__(self):
        return self.value

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"FieldElement({self.value} in {self.field.name})"
