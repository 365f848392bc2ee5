"""Reduced Tate pairing for the MNT4753-surrogate curve.

The surrogate (repro.ff.params) is supersingular — y^2 = x^3 + x over
F_q with q = 3 (mod 4) — hence has embedding degree 2: all r-torsion
pairs into mu_r inside Fq2. G1 lives in E(F_q) and our G2 in the twist
component of E(Fq2), which are independent order-r subgroups, so the
reduced Tate pairing is non-degenerate between them (validated by
tests). This gives the 753-bit curve a *real* pairing-based Groth16
verification path — no trapdoor shortcuts — completing the substitution
story of DESIGN.md.

The engine has one orientation: the Miller loop runs **over the G2
argument** and is evaluated at the embedded G1 point,

    e(P, Q) = f_{r,Q}(P) ^ ((q^2 - 1) / r),

so that a verifying key's fixed beta/gamma/delta own the loop's point
arithmetic and their ~1100 lines are a table built once per key — the
same :class:`~repro.curves.pairing.MillerEngine` shape as the
optimal-ate engines. It is bilinear in both arguments, non-degenerate
and lands in mu_r (asserted by tests), which is all a
product-of-pairings check needs.

The Miller loop is the textbook affine version (r has ~750 bits; an
Fq2 inversion is one base-field inversion of its norm, which keeps this
fast enough for a verifier that the paper budgets "a few milliseconds"
on native code), with
numerator and denominator accumulated separately and one inversion at
the end.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from repro.curves.pairing import MillerEngine, chord
from repro.curves.params import MNT_FQ2, mnt4753_g2_ready
from repro.errors import CurveError
from repro.ff.extension import ExtElement
from repro.ff.params import MNT4753_Q, MNT4753_R

__all__ = ["MntTatePairing", "mnt4753_pairing"]

Fq2Point = Optional[Tuple[ExtElement, ExtElement]]


class MntTatePairing(MillerEngine):
    """Reduced Tate pairing on the supersingular 753-bit surrogate.

    Line steps are ``(kind, lam, x, y, den_x)``: ``kind`` is ``"d"``
    (doubling: square the accumulators first) or ``"a"`` (addition),
    ``lam`` the slope of the line through ``(x, y)`` (``None`` when
    vertical), ``den_x`` the abscissa of the step's new point — its
    vertical-line correction — or ``None`` once that point is infinity.
    """

    def __init__(self):
        self.field = MNT_FQ2
        self.q = MNT4753_Q.modulus
        self.r = MNT4753_R.modulus
        self.group = mnt4753_g2_ready()  # curve over Fq2 (a = 1)
        self._a = self.group.a
        super().__init__("MNT4753", self.field.one,
                         (self.q * self.q - 1) // self.r)

    def embed_g1(self, p) -> Fq2Point:
        """Lift a G1 point (int coordinates) into E(Fq2)."""
        if p is None:
            return None
        return (self.field.element([p[0], 0]), self.field.element([p[1], 0]))

    def miller_pair(self, g1_point, g2_point, counter=None) -> ExtElement:
        if g2_point is not None and g2_point == self.embed_g1(g1_point):
            raise CurveError("Tate Miller loop needs distinct P, Q")
        return super().miller_pair(g1_point, g2_point, counter=counter)

    def _lines(self, g2_point: Fq2Point) -> Iterator[tuple]:
        """f_{r,Q} by double-and-add over the bits of r: each step's
        line through the running point, and where that point lands."""
        r_pt = g2_point
        for bit in bin(self.r)[3:]:  # skip leading 1
            lam, doubled = chord(r_pt, r_pt, self._a)
            yield ("d", lam, *r_pt, doubled[0] if doubled else None)
            r_pt = doubled
            if bit == "1":
                lam, added = chord(r_pt, g2_point, self._a)
                yield ("a", lam, *r_pt, added[0] if added else None)
                r_pt = added

    def _replay(self, g1_point, steps: Iterable[tuple]) -> ExtElement:
        xt, yt = self.embed_g1(g1_point)
        f_num = f_den = self.unity
        for kind, lam, x1, y1, den_x in steps:
            line = ((xt - x1) if lam is None
                    else (yt - y1) - lam * (xt - x1))
            if kind == "d":
                f_num = f_num.square() * line
                f_den = f_den.square()
            else:
                f_num = f_num * line
            if den_x is not None:
                f_den = f_den * (xt - den_x)
        return f_num / f_den


_ENGINE = None


def mnt4753_pairing() -> MntTatePairing:
    """The cached MNT4753-surrogate Tate pairing engine."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = MntTatePairing()
    return _ENGINE
