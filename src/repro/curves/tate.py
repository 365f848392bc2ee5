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
arithmetic and their 759 lines are a table built once per key — the
same :class:`~repro.curves.pairing.MillerEngine` shape as the
optimal-ate engines. It is bilinear in both arguments, non-degenerate
and lands in mu_r (asserted by tests), which is all a
product-of-pairings check needs.

The python floor is the textbook affine loop, numerator and
denominator accumulated separately and divided once at the end. With
the kernels loaded (:mod:`repro.backend.native`) the line generator is
the C walk the optimal-ate engines use — Jacobian over Fq2, one batched
inversion per table, the affine table bit for bit — and every loop of
a check is one multi-loop replay in Fq2 (``tate_replay``) before
python's one division. The final exponentiation is python's on both
floors and costs one inversion: q + 1 = 8r, so (q^2 - 1)/r = 8(q - 1)
and f^((q^2 - 1)/r) = (conj(f)/f)^8.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.backend.native import get_native_field
from repro.curves.pairing import MillerEngine, chord
from repro.curves.params import MNT_FQ2, mnt4753_g2_ready
from repro.errors import CurveError
from repro.ff.extension import ExtElement
from repro.ff.opcount import count
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

    The native loops read the step schedule (per step, 0 for a
    doubling, 1 for an addition of Q) and the curve's a as Montgomery
    rows, packed on first use.
    """

    def __init__(self):
        self.field = MNT_FQ2
        q = self.q = MNT4753_Q.modulus
        r = self.r = MNT4753_R.modulus
        self.group = mnt4753_g2_ready()  # curve over Fq2 (a = 1)
        self._a = self.group.a
        super().__init__("MNT4753", self.field.one, (q * q - 1) // r)
        assert q + 1 == 8 * r and self._final_exp == 8 * (q - 1)
        assert q % 4 == 3 and self.field.modulus_coeffs == (1, 0)
        self._schedule = bytes(step for bit in bin(r)[3:]
                               for step in ((0, 1) if bit == "1" else (0,)))
        self._rows: Optional[tuple] = None

    def embed_g1(self, p) -> Fq2Point:
        """Lift a G1 point (int coordinates) into E(Fq2)."""
        if p is None:
            return None
        return (self.field.element([p[0], 0]), self.field.element([p[1], 0]))

    def _check_pair(self, g1_point, g2_point) -> None:
        if g2_point == self.embed_g1(g1_point):
            raise CurveError("Tate Miller loop needs distinct P, Q")

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

    # -- the native loops ----------------------------------------------------------

    def _native_field(self):
        """The base field's native field when the kernels load (the
        schedule and a packed on first sight), else None."""
        nf = get_native_field(self.q)
        if nf is not None and self._rows is None:
            self._rows = (np.frombuffer(self._schedule, dtype=np.uint8),
                          nf.encode(self._a.coeffs))
        return nf

    def _lines_rows(self, nf, g2_point) -> tuple:
        """:meth:`_lines` over Q as one C call (``NativeField.
        miller_lines``): rows (lam | y - lam x | den_x)."""
        schedule, a = self._rows
        x, y = g2_point
        return nf.miller_lines(nf.encode(x.coeffs + y.coeffs), schedule,
                               a=a)

    def _replay_rows(self, nf, loops) -> ExtElement:
        """The product of the Miller values of ``loops``, (G1 point,
        packed table) pairs: one multi-loop C call, then python's one
        division."""
        q = self.q
        f = nf.tate_replay(
            np.stack([table for _, (table, _) in loops]),
            np.stack([vert for _, (_, vert) in loops]),
            nf.encode([c % q for point, _ in loops for c in point]),
            self._rows[0])
        num, den = (self.field.element(nf.decode(f[k:k + 2]))
                    for k in (0, 2))
        return num / den

    def final_exponentiate(self, f: ExtElement) -> ExtElement:
        """f^((q^2 - 1)/r) = (f^(q - 1))^8 = (conj(f)/f)^8: the exponent
        is 8(q - 1) because q + 1 = 8r, and f^q = conj(f) in Fq2.
        Zero — a degenerate Miller product — stays zero, as under the
        plain power."""
        count("final_exp")
        if not f:
            return f
        return (f.conjugate() * f.inverse()).square().square().square()


_ENGINE = None


def mnt4753_pairing() -> MntTatePairing:
    """The cached MNT4753-surrogate Tate pairing engine."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = MntTatePairing()
    return _ENGINE
