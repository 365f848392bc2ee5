"""Short-Weierstrass elliptic-curve groups: y^2 = x^3 + a x + b.

Implements the group law in affine and Jacobian coordinates, generically
over G1 (prime-field) and G2 (extension-field) coordinates. PADD here is
the paper's basic elliptic-curve operation (§2.1); Jacobian formulas are
what real GPU provers (and GZKP) use because they avoid per-op inversion.

Operation-cost constants (field muls per PADD/PDBL) are exposed as
class attributes; the GPU cost model consumes them.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import CurveError
from repro.ff.opcount import count
from repro.curves.fieldops import make_ops

__all__ = ["CurveGroup", "AffinePoint", "JacobianPoint"]

# Affine points are (x, y) tuples; None is the point at infinity.
AffinePoint = Optional[Tuple[object, object]]
# Jacobian points are (X, Y, Z); Z == 0 encodes infinity.
JacobianPoint = Tuple[object, object, object]


class CurveGroup:
    """An elliptic-curve group of prime order ``order`` (a subgroup when
    ``cofactor`` > 1) over a coordinate field.

    Parameters
    ----------
    coord_field:
        A :class:`~repro.ff.primefield.PrimeField` (G1) or
        :class:`~repro.ff.extension.ExtensionField` (G2).
    a, b:
        Curve coefficients, coercible into the coordinate field.
    order:
        Prime order r of the subgroup the protocol works in.
    generator:
        Affine generator of the order-r subgroup, or None to defer.
    """

    # Field-multiplication costs of the Jacobian formulas used below
    # (muls + squarings, counting a squaring as a multiplication).
    PADD_FQ_MULS = 16   # general Jacobian-Jacobian addition: 11M + 5S
    PDBL_FQ_MULS = 7    # doubling (a = 0 fast path): 2M + 5S
    PMIXED_FQ_MULS = 11  # mixed Jacobian-affine addition: 7M + 4S

    def __init__(self, coord_field, a, b, order: int, generator=None,
                 cofactor: int = 1, name: str = "E"):
        self.coord_field = coord_field
        self.ops = make_ops(coord_field)
        self.a = self.ops.coerce(a)
        self.b = self.ops.coerce(b)
        self.order = order
        self.cofactor = cofactor
        self.name = name
        self._a_is_zero = self.ops.is_zero(self.a)
        if generator is not None:
            generator = (self.ops.coerce(generator[0]), self.ops.coerce(generator[1]))
            if not self.is_on_curve(generator):
                raise CurveError(f"{name}: generator is not on the curve")
        self._generator = generator

    def formula_constants(self) -> dict:
        """Everything a vectorized backend needs to mirror the Jacobian
        formulas below without reaching into private state: the curve
        coefficient (and whether the a = 0 fast path applies) plus the
        per-operation field-multiplication costs the GPU model uses.
        Consumed by :mod:`repro.backend.kernel_backend`."""
        return {
            "a": self.a,
            "a_is_zero": self._a_is_zero,
            "padd_fq_muls": self.PADD_FQ_MULS,
            "pdbl_fq_muls": self.PDBL_FQ_MULS,
            "pmixed_fq_muls": self.PMIXED_FQ_MULS,
        }

    # -- structure ----------------------------------------------------------------

    @property
    def generator(self) -> AffinePoint:
        if self._generator is None:
            raise CurveError(f"{self.name}: no generator configured")
        return self._generator

    def set_generator(self, point: AffinePoint) -> None:
        if not self.is_on_curve(point):
            raise CurveError(f"{self.name}: proposed generator not on curve")
        self._generator = point

    @property
    def infinity(self) -> AffinePoint:
        return None

    def is_on_curve(self, point: AffinePoint) -> bool:
        if point is None:
            return True
        x, y = point
        o = self.ops
        lhs = o.sqr(y)
        rhs = o.add(o.add(o.mul(o.sqr(x), x), o.mul(self.a, x)), self.b)
        return o.eq(lhs, rhs)

    def in_subgroup(self, point: AffinePoint) -> bool:
        """Order-r subgroup membership.

        With cofactor 1 the group *is* the curve, so being on it is
        enough. Otherwise a full [r]P check on the *unreduced* ladder:
        ``scalar_mul`` reduces k mod the subgroup order, which would
        turn [r]P into [0]P = infinity for every on-curve point and
        make this check vacuous.
        """
        if self.cofactor == 1:
            return self.is_on_curve(point)
        return (self.is_on_curve(point)
                and self.scalar_mul_unchecked(self.order, point) is None)

    def scalar_mul_unchecked(self, k: int, p: AffinePoint) -> AffinePoint:
        """Scalar multiplication without reducing k mod the subgroup
        order — for cofactor clearing and subgroup checks, where the
        point is not (known to be) in the order-r subgroup."""
        if p is None or k == 0:
            return None
        o = self.ops
        acc: JacobianPoint = (o.one, o.one, o.zero)
        base = self.to_jacobian(p)
        while k:
            if k & 1:
                acc = self.jadd(acc, base)
            k >>= 1
            if k:
                base = self.jdouble(base)
        return self.from_jacobian(acc)

    # -- affine group law -----------------------------------------------------------

    def neg(self, point: AffinePoint) -> AffinePoint:
        if point is None:
            return None
        x, y = point
        return (x, self.ops.neg(y))

    def add(self, p: AffinePoint, q: AffinePoint) -> AffinePoint:
        """Affine PADD (with one field inversion; used for reference and
        small-scale verification, not hot paths)."""
        if p is None:
            return q
        if q is None:
            return p
        o = self.ops
        x1, y1 = p
        x2, y2 = q
        if o.eq(x1, x2):
            if o.is_zero(o.add(y1, y2)):
                return None
            # doubling
            num = o.add(o.mul_small(o.sqr(x1), 3), self.a)
            den = o.mul_small(y1, 2)
        else:
            num = o.sub(y2, y1)
            den = o.sub(x2, x1)
        lam = o.mul(num, o.inv(den))
        x3 = o.sub(o.sub(o.sqr(lam), x1), x2)
        y3 = o.sub(o.mul(lam, o.sub(x1, x3)), y1)
        count("padd")
        return (x3, y3)

    def double(self, p: AffinePoint) -> AffinePoint:
        return self.add(p, p)

    # -- Jacobian group law ------------------------------------------------------------

    def to_jacobian(self, p: AffinePoint) -> JacobianPoint:
        o = self.ops
        if p is None:
            return (o.one, o.one, o.zero)
        return (p[0], p[1], o.one)

    def from_jacobian(self, p: JacobianPoint) -> AffinePoint:
        o = self.ops
        x, y, z = p
        if o.is_zero(z):
            return None
        zinv = o.inv(z)
        zinv2 = o.sqr(zinv)
        return (o.mul(x, zinv2), o.mul(y, o.mul(zinv2, zinv)))

    def jdouble(self, p: JacobianPoint) -> JacobianPoint:
        """Jacobian doubling (2007 Bernstein-Lange for a=0; general
        formula otherwise)."""
        o = self.ops
        x1, y1, z1 = p
        if o.is_zero(z1) or o.is_zero(y1):
            return (o.one, o.one, o.zero)
        ysq = o.sqr(y1)
        s = o.mul_small(o.mul(x1, ysq), 4)
        if self._a_is_zero:
            m = o.mul_small(o.sqr(x1), 3)
        else:
            z2 = o.sqr(z1)
            m = o.add(o.mul_small(o.sqr(x1), 3), o.mul(self.a, o.sqr(z2)))
        x3 = o.sub(o.sqr(m), o.mul_small(s, 2))
        y3 = o.sub(o.mul(m, o.sub(s, x3)), o.mul_small(o.sqr(ysq), 8))
        z3 = o.mul_small(o.mul(y1, z1), 2)
        count("pdbl")
        count("padd")  # PADD in the paper's sense includes doubling
        return (x3, y3, z3)

    def jadd(self, p: JacobianPoint, q: JacobianPoint) -> JacobianPoint:
        """General Jacobian addition."""
        o = self.ops
        x1, y1, z1 = p
        x2, y2, z2 = q
        if o.is_zero(z1):
            return q
        if o.is_zero(z2):
            return p
        z1sq = o.sqr(z1)
        z2sq = o.sqr(z2)
        u1 = o.mul(x1, z2sq)
        u2 = o.mul(x2, z1sq)
        s1 = o.mul(y1, o.mul(z2sq, z2))
        s2 = o.mul(y2, o.mul(z1sq, z1))
        if o.eq(u1, u2):
            if o.eq(s1, s2):
                return self.jdouble(p)
            return (o.one, o.one, o.zero)
        h = o.sub(u2, u1)
        r = o.sub(s2, s1)
        hsq = o.sqr(h)
        hcu = o.mul(hsq, h)
        u1hsq = o.mul(u1, hsq)
        x3 = o.sub(o.sub(o.sqr(r), hcu), o.mul_small(u1hsq, 2))
        y3 = o.sub(o.mul(r, o.sub(u1hsq, x3)), o.mul(s1, hcu))
        z3 = o.mul(h, o.mul(z1, z2))
        count("padd")
        return (x3, y3, z3)

    def jmixed_add(self, p: JacobianPoint, q: AffinePoint) -> JacobianPoint:
        """Mixed Jacobian-affine addition (the workhorse of bucket
        accumulation: bucket state is Jacobian, input points are affine)."""
        o = self.ops
        if q is None:
            return p
        x1, y1, z1 = p
        if o.is_zero(z1):
            return self.to_jacobian(q)
        x2, y2 = q
        z1sq = o.sqr(z1)
        u2 = o.mul(x2, z1sq)
        s2 = o.mul(y2, o.mul(z1sq, z1))
        if o.eq(x1, u2):
            if o.eq(y1, s2):
                return self.jdouble(p)
            return (o.one, o.one, o.zero)
        h = o.sub(u2, x1)
        r = o.sub(s2, y1)
        hsq = o.sqr(h)
        hcu = o.mul(hsq, h)
        u1hsq = o.mul(x1, hsq)
        x3 = o.sub(o.sub(o.sqr(r), hcu), o.mul_small(u1hsq, 2))
        y3 = o.sub(o.mul(r, o.sub(u1hsq, x3)), o.mul(y1, hcu))
        z3 = o.mul(h, z1)
        count("padd")
        return (x3, y3, z3)

    def jneg(self, p: JacobianPoint) -> JacobianPoint:
        x, y, z = p
        return (x, self.ops.neg(y), z)

    def jis_infinity(self, p: JacobianPoint) -> bool:
        return self.ops.is_zero(p[2])

    # -- scalar multiplication -----------------------------------------------------------

    def scalar_mul(self, k: int, p: AffinePoint) -> AffinePoint:
        """PMUL by binary double-and-add over Jacobian coordinates
        (Figure 1's decomposition of PMUL into a PADD series)."""
        if p is None or k % self.order == 0:
            return None
        k %= self.order
        o = self.ops
        acc: JacobianPoint = (o.one, o.one, o.zero)
        base = self.to_jacobian(p)
        while k:
            if k & 1:
                acc = self.jadd(acc, base)
            k >>= 1
            if k:
                base = self.jdouble(base)
        return self.from_jacobian(acc)

    def wnaf_mul(self, k: int, p: AffinePoint, width: int = 4) -> AffinePoint:
        """PMUL with width-w non-adjacent form — fewer additions than
        binary double-and-add (used by CPU baselines)."""
        if p is None or k % self.order == 0:
            return None
        if width < 2:
            raise CurveError("wNAF width must be >= 2")
        k %= self.order
        # Precompute odd multiples 1P, 3P, ..., (2^(w-1)-1)P.
        table = [self.to_jacobian(p)]
        twop = self.jdouble(self.to_jacobian(p))
        for _ in range((1 << (width - 1)) // 2 - 1):
            table.append(self.jadd(table[-1], twop))
        # wNAF recoding.
        digits = []
        while k:
            if k & 1:
                d = k % (1 << width)
                if d >= (1 << (width - 1)):
                    d -= 1 << width
                k -= d
            else:
                d = 0
            digits.append(d)
            k >>= 1
        o = self.ops
        acc: JacobianPoint = (o.one, o.one, o.zero)
        for d in reversed(digits):
            acc = self.jdouble(acc)
            if d > 0:
                acc = self.jadd(acc, table[d // 2])
            elif d < 0:
                acc = self.jadd(acc, self.jneg(table[-d // 2]))
        return self.from_jacobian(acc)

    # -- convenience ----------------------------------------------------------------------

    def random_point(self, rng) -> AffinePoint:
        """A uniform point of the order-r subgroup: random scalar times
        the generator."""
        return self.scalar_mul(rng.randrange(1, self.order), self.generator)

    def batch_normalize(self, points) -> list:
        """Convert many Jacobian points to affine with a single inversion
        (Montgomery's trick), as GPU implementations do at kernel exit."""
        o = self.ops
        finite = [(i, p) for i, p in enumerate(points) if not o.is_zero(p[2])]
        result: list = [None] * len(points)
        if not finite:
            return result
        zs = [p[2] for _, p in finite]
        # Batch inversion over the coordinate field.
        prefix = []
        acc = o.one
        for z in zs:
            acc = o.mul(acc, z)
            prefix.append(acc)
        inv_acc = o.inv(acc)
        invs: list = [None] * len(zs)
        for i in range(len(zs) - 1, -1, -1):
            if i == 0:
                invs[0] = inv_acc
            else:
                invs[i] = o.mul(prefix[i - 1], inv_acc)
                inv_acc = o.mul(inv_acc, zs[i])
        for (idx, (x, y, _)), zinv in zip(finite, invs):
            zinv2 = o.sqr(zinv)
            result[idx] = (o.mul(x, zinv2), o.mul(y, o.mul(zinv2, zinv)))
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CurveGroup({self.name})"
