"""The curves' efficient endomorphisms, one entry per curve family.

ALT-BN128 and BLS12-381 have j-invariant 0 (a = 0), so two maps come
for the cost of a few field products:

* **φ on G1** (Gallant, Lambert and Vanstone, CRYPTO 2001):
  φ(x, y) = (βx, y) with β a primitive cube root of unity in Fq. It
  acts on the order-r subgroup as [λ], where λ^2 + λ + 1 ≡ 0 (mod r).
  GLV's short basis of the lattice {(a, b) : a + bλ ≡ 0 (mod r)} splits
  a scalar into two halves.
* **ψ on G2**: untwist, q-Frobenius, twist back,
  ψ(x, y) = (conj(x)·g^2, conj(y)·g^3) with g = ξ^((q−1)/6) for a
  D-twist (BN: b' = b/ξ) and its inverse for an M-twist (BLS:
  b' = bξ), ξ = s + i the twist's non-residue. It acts on G2 as [q].
  The BN pairing's two extra line steps add ψ(Q) and −ψ^2(Q).

Each map also decides subgroup membership with one short scalar,
where [r]P needs one of r's full width:

* BN G2: ψ(Q) = [6x^2]Q (127 bits, since q − r = 6x^2);
* BLS12-381 G2: ψ(Q) = [x]Q (64 bits, since q ≡ x (mod r));
* BLS12-381 G1: φ(P) = [−x^2]P (128 bits, since −x^2 is λ).

Scott (eprint 2021/1130) proves the two BLS12 tests; Bowe (eprint
2019/814) gave the first endomorphism checks for BLS12-381. All three
rest on one argument, which :func:`_derive` checks in ints: ψ
satisfies ψ^2 − tψ + q = 0 on the whole twist, t the trace of E(Fq)
(Galbraith and Scott, Pairing 2008), and φ satisfies φ^2 + φ + 1 = 0,
so a point R of the cofactor part with map(R) = [c]R has order
dividing c^2 − tc + q (or c^2 + c + 1). Where that number shares no
factor with the cofactor, R is the point at infinity and the test is
exact. For BN G2 and BLS12-381 G1 the number is r itself; for
BLS12-381 G2 it is r·(x − 1)^2/3. MNT4753's surrogate has a ≠ 0 and
no entry: its decoder keeps [r]P.

An entry is a few ints and two Fq2 constants, derived on first use
from the seed x and the twist, and each checked on the generators
(φ(G1) = [λ]G1 and ψ(G2) = [q mod r]G2) against the reference ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.curves.params import (bls12_381_g1, bls12_381_g2, bn128_g1,
                                 bn128_g2)
from repro.curves.weierstrass import AffinePoint, CurveGroup
from repro.ff.extension import ExtElement
from repro.ff.opcount import OpCounter, counting

__all__ = ["Endomorphisms", "endomorphisms", "membership"]


@dataclass(frozen=True)
class _Family:
    """What an entry is derived from: the groups, the twist, and the
    family's λ, Frobenius trace and membership scalars, each a
    polynomial in the seed x."""

    g1: CurveGroup
    g2: CurveGroup
    #: ξ = xi_real + i, the non-residue of G2's sextic twist
    xi_real: int
    m_twist: bool
    lam: int
    trace: int
    g1_test: Optional[int]
    g2_test: int


def _bn(x: int) -> _Family:
    return _Family(bn128_g1, bn128_g2, xi_real=9, m_twist=False,
                   lam=36 * x ** 3 + 18 * x ** 2 + 6 * x + 1,
                   trace=6 * x * x + 1, g1_test=None, g2_test=6 * x * x)


def _bls12(x: int) -> _Family:
    return _Family(bls12_381_g1, bls12_381_g2, xi_real=1, m_twist=True,
                   lam=-x * x, trace=x + 1, g1_test=-x * x, g2_test=x)


_FAMILIES = {
    "ALT-BN128": _bn(4965661367192848881),
    "BLS12-381": _bls12(-0xD201000000010000),
}


@dataclass(frozen=True)
class Endomorphisms:
    """One curve's φ and ψ and the constants around them."""

    g1: CurveGroup = field(repr=False)
    #: the primitive cube root of unity in Fq with φ = [λ] on G1
    beta: int
    #: φ's eigenvalue on G1, in [0, r)
    lam: int
    #: GLV's two short vectors (a, b), each a + bλ ≡ 0 (mod r)
    basis: Tuple[Tuple[int, int], Tuple[int, int]]
    #: ψ(x, y) = (conj(x)·psi_x, conj(y)·psi_y)
    psi_x: ExtElement
    psi_y: ExtElement
    #: the signed c with φ(P) = [c]P exactly on G1's subgroup, or None
    #: where G1 has cofactor 1
    g1_test: Optional[int]
    #: the signed c with ψ(Q) = [c]Q exactly on G2's subgroup
    g2_test: int

    def phi(self, point: AffinePoint) -> AffinePoint:
        if point is None:
            return None
        x, y = point
        return (self.g1.ops.mul(self.beta, x), y)

    def psi(self, point: AffinePoint) -> AffinePoint:
        if point is None:
            return None
        x, y = point
        return (x.conjugate() * self.psi_x, y.conjugate() * self.psi_y)


_ENTRIES: Dict[str, Endomorphisms] = {}


def _signed_mul(group: CurveGroup, c: int, point: AffinePoint):
    """[c]P for a signed c on the reference ladder."""
    out = group.scalar_mul_unchecked(abs(c), point)
    return group.neg(out) if c < 0 else out


def _short_basis(r: int, lam: int):
    """GLV's short basis by the extended Euclidean algorithm on (r, λ):
    its remainders r_i = s_i r + t_i λ give lattice vectors
    (r_i, −t_i); take the first under √r and the shorter of its two
    neighbours (Hankerson, Menezes and Vanstone, Guide to ECC,
    Algorithm 3.74)."""
    rows = [(r, 0), (lam, 1)]
    while rows[-1][0]:
        (r0, t0), (r1, t1) = rows[-2], rows[-1]
        quo = r0 // r1
        rows.append((r0 - quo * r1, t0 - quo * t1))
    root = math.isqrt(r)
    ell = max(i for i, (ri, _) in enumerate(rows) if ri >= root)
    v1 = (rows[ell + 1][0], -rows[ell + 1][1])
    v2 = min(((rows[ell][0], -rows[ell][1]),
              (rows[ell + 2][0], -rows[ell + 2][1])),
             key=lambda v: v[0] ** 2 + v[1] ** 2)
    return v1, v2


def _derive(fam: _Family) -> Endomorphisms:
    g1, g2 = fam.g1, fam.g2
    q, r = g1.coord_field.modulus, g1.order
    lam = fam.lam % r
    assert (lam * lam + lam + 1) % r == 0, "λ is not a cube root of 1"
    # β: of the two primitive cube roots of unity in Fq, the one with
    # φ(G1) = [λ]G1.
    omega = next(w for w in (pow(g, (q - 1) // 3, q) for g in range(2, 64))
                 if w != 1)
    gx, gy = g1.generator
    target = g1.scalar_mul_unchecked(lam, g1.generator)
    (beta,) = [b for b in (omega, omega * omega % q)
               if (b * gx % q, gy) == target]
    basis = _short_basis(r, lam)
    for a, b in basis:
        assert (a + b * lam) % r == 0
        assert max(abs(a), abs(b)).bit_length() <= r.bit_length() // 2 + 1
    assert abs(basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]) == r
    # ψ's constants from the twist's ξ, the exponent reduced mod |Fq2*|.
    g = g2.coord_field.element([fam.xi_real, 1]) ** (
        (q - 1) // 6 % (q * q - 1))
    if fam.m_twist:
        g = g.inverse()
    psi_x = g.square()
    entry = Endomorphisms(g1, beta, lam, basis, psi_x, psi_x * g,
                          fam.g1_test, fam.g2_test)
    # Each membership scalar is its map's eigenvalue on the subgroup
    # (ψ's is q), and no cofactor point shares it (the module
    # docstring's argument).
    assert (fam.g2_test - q) % r == 0
    assert q + 1 - fam.trace == r * g1.cofactor
    assert math.gcd(fam.g2_test ** 2 - fam.trace * fam.g2_test + q,
                    g2.cofactor) == 1
    assert entry.psi(g2.generator) == _signed_mul(g2, fam.g2_test,
                                                  g2.generator)
    if fam.g1_test is not None:
        assert (fam.g1_test - lam) % r == 0
        assert math.gcd(fam.g1_test ** 2 + fam.g1_test + 1,
                        g1.cofactor) == 1
    return entry


def endomorphisms(name: str) -> Optional[Endomorphisms]:
    """The curve's entry, derived and checked on first use; None for a
    curve without one (MNT4753)."""
    fam = _FAMILIES.get(name)
    if fam is None:
        return None
    if name not in _ENTRIES:
        # The checks' ladders are set-up, not the caller's counted work.
        with counting(OpCounter()):
            _ENTRIES[name] = _derive(fam)
    return _ENTRIES[name]


def membership(group: CurveGroup) -> Optional[Tuple[Callable, int]]:
    """``(map, c)`` where ``group`` has an endomorphism test: a point P
    of its curve is in the order-r subgroup iff map(P) = [c]P. None
    for a G1 of cofactor 1, where every curve point is, and for
    MNT4753."""
    for name, fam in _FAMILIES.items():
        if group is fam.g2:
            endo = endomorphisms(name)
            return endo.psi, endo.g2_test
        if group is fam.g1 and fam.g1_test is not None:
            endo = endomorphisms(name)
            return endo.phi, endo.g1_test
    return None
