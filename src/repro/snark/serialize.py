"""Serialization: compressed points, proofs and verification keys.

Wire formats follow the conventions real provers use:

* **G1 points** — the x-coordinate as a big-endian field element plus a
  flag byte carrying the sign of y (and an infinity bit). Decompression
  recovers y as the square root of x^3 + ax + b, picking the root whose
  parity matches the flag.
* **G2 points** — both Fq2 coordinate components of x plus the flag; y
  is recovered with an Fq2 square root (complex method, q = 3 mod 4 for
  every curve here).
* **Proofs** — A || B || C compressed (the "few hundred bytes" of §2.1).
* **Verifying keys** — the four header points plus the IC vector.

Decoding is strict: every valid point has exactly one encoding. An
infinity flag with any nonzero payload byte, a coordinate limb >= the
field modulus, an x off the curve, or a point outside the prime-order
subgroup (cofactor > 1 curves have small-subgroup points on the curve
equation) are all rejected with :class:`~repro.errors.ProofError` —
this module is the boundary a proving service exposes to untrusted
clients.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.backend.native import get_native_field
from repro.curves.endomorphism import membership
from repro.curves.params import CurvePair
from repro.curves.weierstrass import AffinePoint, CurveGroup
from repro.errors import ProofError
from repro.ff.extension import ExtensionField
from repro.msm.fixed_base import batch_scalar_mul
from repro.snark.keys import VerifyingKey
from repro.snark.prover import Proof

__all__ = [
    "compress_g1", "decompress_g1", "compress_g2", "decompress_g2",
    "serialize_proof", "deserialize_proof",
    "serialize_verifying_key", "deserialize_verifying_key",
    "fq_sqrt", "fq2_sqrt",
]

_FLAG_INFINITY = 0x40
_FLAG_Y_ODD = 0x01


def _fq_bytes(group: CurveGroup) -> int:
    field = group.coord_field
    modulus = field.base.modulus if isinstance(field, ExtensionField) \
        else field.modulus
    return (modulus.bit_length() + 7) // 8


def _pow(modulus: int, value: int, exponent: int) -> int:
    """value^exponent mod a prime: one C exponentiation when the
    kernels load, python's ``pow`` on the floor."""
    nf = get_native_field(modulus)
    if nf is None:
        return pow(value, exponent, modulus)  # repro: allow[R001]
    return nf.decode_one(nf.pow(nf.encode_const(value)[None], exponent)[0])


def fq_sqrt(modulus: int, value: int) -> Optional[int]:
    """Square root mod a prime with q = 3 (mod 4); None if non-residue."""
    if modulus % 4 != 3:
        raise ProofError("fq_sqrt supports q = 3 (mod 4) moduli only")
    # Wire-format helper on raw ints: callers hand in a bare modulus
    # word, not a PrimeField, so the field API is out of reach here.
    value %= modulus  # repro: allow[R001]
    root = _pow(modulus, value, (modulus + 1) // 4)
    return root if root * root % modulus == value else None  # repro: allow[R001]


def fq2_sqrt(field: ExtensionField, value) -> Optional[object]:
    """Square root in Fq2 = Fq[i]/(i^2+1), complex method for
    q = 3 (mod 4); None when the element is a non-square.

    Two exponentiations at most: with q = 3 (mod 4), t = v^((q+1)/4)
    squares to v when v is a residue and to -v when it is not, so the
    one power gives the root whichever it is."""
    q = field.base.modulus
    if q % 4 != 3:
        raise ProofError("fq2_sqrt supports q = 3 (mod 4) moduli only")
    a, b = value.coeffs
    if b == 0:
        # sqrt(a) = t, or i t when a is a non-residue (t^2 = -a).
        t = _pow(q, a, (q + 1) // 4)
        return field.element([t, 0] if t * t % q == a else [0, t])
    # norm = a^2 + b^2 must be a residue.
    norm_root = fq_sqrt(q, (a * a + b * b) % q)
    if norm_root is None:
        return None
    # x^2 = (a + norm_root) / 2, y = b / (2x). Exactly one of
    # (a +- norm_root) / 2 is a residue (their product -b^2/4 is not):
    # if it is not this one, t^2 = -(a + norm_root) / 2 and the root is
    # (b / 2t, t). Neither half is zero while b is not.
    x_sq = (a + norm_root) * ((q + 1) // 2) % q
    t = _pow(q, x_sq, (q + 1) // 4)
    u = b * pow(2 * t, -1, q) % q
    root = field.element([t, u] if t * t % q == x_sq else [u, t])
    return root if root * root == value else None


# -- G1 -----------------------------------------------------------------------


def compress_g1(group: CurveGroup, point: AffinePoint) -> bytes:
    """x-coordinate big-endian + 1 flag byte."""
    n = _fq_bytes(group)
    if point is None:
        return bytes([_FLAG_INFINITY]) + b"\x00" * n
    x, y = point
    flag = _FLAG_Y_ODD if y & 1 else 0
    return bytes([flag]) + x.to_bytes(n, "big")


def _check_infinity_payload(data: bytes, what: str) -> None:
    """An infinity encoding must be the flag byte alone: any nonzero
    payload byte (or a stray sign bit) would give infinity a second
    encoding."""
    if data[0] != _FLAG_INFINITY or any(data[1:]):
        raise ProofError(
            f"non-canonical {what} encoding: infinity flag with "
            "nonzero payload"
        )


def _in_subgroup(group: CurveGroup, point: AffinePoint) -> bool:
    """``group.in_subgroup`` for an on-curve point. With cofactor 1
    the curve is the subgroup. Where the curve has an endomorphism, P
    is in it iff map(P) = [c]P for one short c
    (:mod:`repro.curves.endomorphism`); otherwise (MNT4753) iff [r]P is
    infinity. Either way one windowed multiplication."""
    if group.cofactor == 1:
        return True
    test = membership(group)
    if test is None:
        return batch_scalar_mul(group, [point], [group.order]) == [None]
    endomorphism, c = test
    (multiple,) = batch_scalar_mul(group, [point], [abs(c)])
    return endomorphism(point) == (group.neg(multiple) if c < 0
                                   else multiple)


def _check_subgroup(group: CurveGroup, point: AffinePoint,
                    what: str) -> None:
    if not _in_subgroup(group, point):
        raise ProofError(
            f"invalid {what} encoding: point is not in the prime-order "
            "subgroup"
        )


def decompress_g1(group: CurveGroup, data: bytes,
                  check_subgroup: bool = True) -> AffinePoint:
    n = _fq_bytes(group)
    if len(data) != n + 1:
        raise ProofError(f"G1 encoding must be {n + 1} bytes, got {len(data)}")
    flag = data[0]
    if flag & _FLAG_INFINITY:
        _check_infinity_payload(data, "G1")
        return None
    if flag & ~_FLAG_Y_ODD:
        raise ProofError(f"invalid G1 encoding: unknown flag bits {flag:#04x}")
    x = int.from_bytes(data[1:], "big")
    field = group.coord_field
    if x >= field.modulus:
        raise ProofError(
            "non-canonical G1 encoding: x-coordinate >= field modulus"
        )
    rhs = field.add(field.add(field.pow(x, 3), field.mul(group.a, x)), group.b)
    y = fq_sqrt(field.modulus, rhs)
    if y is None:
        raise ProofError("invalid G1 encoding: x not on the curve")
    if (y & 1) != (flag & _FLAG_Y_ODD):
        y = field.modulus - y
    point = (x, y)
    if not group.is_on_curve(point):  # pragma: no cover - defensive
        raise ProofError("decompressed point failed the curve check")
    if check_subgroup:
        _check_subgroup(group, point, "G1")
    return point


# -- G2 -----------------------------------------------------------------------


def compress_g2(group: CurveGroup, point: AffinePoint) -> bytes:
    """Both components of x big-endian + 1 flag byte (parity of y.c0,
    breaking ties with y.c1 when c0 is zero)."""
    n = _fq_bytes(group)
    if point is None:
        return bytes([_FLAG_INFINITY]) + b"\x00" * (2 * n)
    x, y = point
    c0, c1 = y.coeffs
    parity = (c0 & 1) if c0 else (c1 & 1)
    flag = _FLAG_Y_ODD if parity else 0
    return (bytes([flag]) + x.coeffs[0].to_bytes(n, "big")
            + x.coeffs[1].to_bytes(n, "big"))


def decompress_g2(group: CurveGroup, data: bytes,
                  check_subgroup: bool = True) -> AffinePoint:
    n = _fq_bytes(group)
    if len(data) != 2 * n + 1:
        raise ProofError(
            f"G2 encoding must be {2 * n + 1} bytes, got {len(data)}"
        )
    flag = data[0]
    if flag & _FLAG_INFINITY:
        _check_infinity_payload(data, "G2")
        return None
    if flag & ~_FLAG_Y_ODD:
        raise ProofError(f"invalid G2 encoding: unknown flag bits {flag:#04x}")
    field = group.coord_field
    c0 = int.from_bytes(data[1:n + 1], "big")
    c1 = int.from_bytes(data[n + 1:], "big")
    if c0 >= field.base.modulus or c1 >= field.base.modulus:
        raise ProofError(
            "non-canonical G2 encoding: x-coordinate component >= "
            "field modulus"
        )
    x = field.element([c0, c1])
    rhs = x * x * x + group.a * x + group.b
    y = fq2_sqrt(field, rhs)
    if y is None:
        raise ProofError("invalid G2 encoding: x not on the curve")
    c0, c1 = y.coeffs
    parity = (c0 & 1) if c0 else (c1 & 1)
    if parity != (flag & _FLAG_Y_ODD):
        y = -y
    point = (x, y)
    if not group.is_on_curve(point):  # pragma: no cover - defensive
        raise ProofError("decompressed point failed the curve check")
    if check_subgroup:
        _check_subgroup(group, point, "G2")
    return point


# -- proof / key containers ------------------------------------------------------


def serialize_proof(proof: Proof, curve: CurvePair) -> bytes:
    return (compress_g1(curve.g1, proof.a)
            + compress_g2(curve.g2, proof.b)
            + compress_g1(curve.g1, proof.c))


def deserialize_proof(data: bytes, curve: CurvePair) -> Proof:
    n1 = _fq_bytes(curve.g1) + 1
    n2 = 2 * _fq_bytes(curve.g2) + 1
    if len(data) != 2 * n1 + n2:
        raise ProofError(f"proof encoding must be {2 * n1 + n2} bytes")
    return Proof(
        a=decompress_g1(curve.g1, data[:n1]),
        b=decompress_g2(curve.g2, data[n1:n1 + n2]),
        c=decompress_g1(curve.g1, data[n1 + n2:]),
    )


def serialize_verifying_key(vk: VerifyingKey, curve: CurvePair) -> bytes:
    parts = [
        compress_g1(curve.g1, vk.alpha_g1),
        compress_g2(curve.g2, vk.beta_g2),
        compress_g2(curve.g2, vk.gamma_g2),
        compress_g2(curve.g2, vk.delta_g2),
        len(vk.ic).to_bytes(4, "big"),
    ]
    parts.extend(compress_g1(curve.g1, p) for p in vk.ic)
    return b"".join(parts)


def deserialize_verifying_key(data: bytes, curve: CurvePair) -> VerifyingKey:
    n1 = _fq_bytes(curve.g1) + 1
    n2 = 2 * _fq_bytes(curve.g2) + 1
    cursor = 0

    def take(size: int) -> bytes:
        nonlocal cursor
        if cursor + size > len(data):
            raise ProofError("verifying-key encoding truncated")
        chunk = data[cursor:cursor + size]
        cursor += size
        return chunk

    alpha = decompress_g1(curve.g1, take(n1))
    beta = decompress_g2(curve.g2, take(n2))
    gamma = decompress_g2(curve.g2, take(n2))
    delta = decompress_g2(curve.g2, take(n2))
    ic_len = int.from_bytes(take(4), "big")
    ic: List[AffinePoint] = [decompress_g1(curve.g1, take(n1))
                             for _ in range(ic_len)]
    if cursor != len(data):
        raise ProofError("verifying-key encoding has trailing bytes")
    return VerifyingKey(alpha_g1=alpha, beta_g2=beta, gamma_g2=gamma,
                        delta_g2=delta, ic=ic)
