"""Pairing engines: one line table, one replay loop, one product check.

Groth16 verification is a product-of-pairings check. Every engine here
computes a pairing the same way:

* a **line generator** walks the Miller loop's point arithmetic over
  the G2 argument and yields one line per step — its slope is divided
  out once and used twice, for the line and for the point update;
* a **replay loop** evaluates a sequence of such lines at a G1 point
  and folds them into the Miller value.

A fresh Miller loop (:meth:`MillerEngine.miller_pair`) is the replay of
the generator as it runs; a fixed G2 argument — a verifying key's
beta/gamma/delta — has its lines kept as a table
(:meth:`MillerEngine.prepare_g2`, cached per engine) and replayed
against any G1 argument at about a quarter of the cost, bit-identical
to the fresh loop. :class:`MillerAccumulator` multiplies Miller values
and pays the final exponentiation once; ``pairing`` and
``pairing_product_is_one`` are that accumulator with one pair and with
many. :class:`MillerEngine` holds everything the engines share; an
engine supplies only its generator and its replay loop.

This module's engines are the optimal-ate pairings of ALT-BN128 and
BLS12-381 over the full Fq12 tower (the algorithm py_ecc uses: lines
through G2 points are *twisted* into E(Fq12) and evaluated at the
embedded G1 argument, the product is raised to (q^12 - 1)/r). The line
generator runs its point arithmetic on G2's own Fq2 coordinates and
untwists each line on output; the final exponentiation is an easy part
(a conjugation, one inversion, a q^2-Frobenius) times a hard part
computed over precomputed Frobenius maps. The MNT4753 surrogate is
supersingular with embedding degree 2 and runs a reduced Tate pairing
over Fq2 (:mod:`repro.curves.tate`) on the same base class.

The engines book on the active op-count scope
(:func:`repro.ff.opcount.counting`): ``miller_loop`` once per loop,
fresh or replayed, ``final_exp`` once per product, ``g2_precomp`` once
per table actually built — so callers can machine-check pairing
economics (a single verify is 4 / 1, a batch of N proofs N + 3 / 1)
instead of trusting a docstring.

Everything stays in python ints; the speed comes from the algorithm
(an Fq12 product is one lazy reduction, a square takes the symmetric
products only, see :mod:`repro.ff.extension`), and every GT value,
Miller value and line table is the one the plain ``f ** ((q^12-1)/r)``
over Fq12-twisted lines produced.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

from repro.errors import CurveError
from repro.curves.params import BLS_FQ2, BN128_FQ2
from repro.ff.extension import ExtElement, ExtensionField
from repro.ff.opcount import count
from repro.ff.params import ALT_BN128_R, BLS12_381_R

__all__ = ["MillerEngine", "PairingEngine", "PreparedG2",
           "MillerAccumulator", "chord", "bn128_pairing",
           "bls12_381_pairing"]

Point = Optional[Tuple[ExtElement, ExtElement]]


def chord(p1: Point, p2: Point,
          a: ExtElement) -> Tuple[Optional[ExtElement], Point]:
    """``(slope, p1 + p2)`` on y^2 = x^3 + a x + b: the line through p1
    and p2 (the tangent when they coincide) and the sum it leads to,
    from one division. A vertical line has slope ``None`` and leads to
    the point at infinity (``None``)."""
    if p1 is None or p2 is None:
        raise CurveError("Miller loop ran into the point at infinity")
    x1, y1 = p1
    x2, y2 = p2
    if x1 != x2:
        lam = (y2 - y1) / (x2 - x1)
    elif y1 == y2 and y1:
        lam = (x1 * x1 * 3 + a) / (y1 * 2)
    else:
        return None, None
    x3 = lam * lam - x1 - x2
    return lam, (x3, lam * (x1 - x3) - y1)


@dataclass(frozen=True)
class PreparedG2:
    """The line table of one fixed G2 point: the ordered output of its
    engine's line generator, replayable against any G1 point. The step
    layout belongs to the engine that built it."""

    engine_name: str
    steps: Tuple[tuple, ...]


class MillerAccumulator:
    """Multi-pairing accumulator: many Miller loops, one final
    exponentiation.

    This is how real verifiers batch product-of-pairings checks — the
    Miller values are multiplied in the target field's unreduced form,
    and the (expensive) final exponentiation is applied once to the
    product.

    Pairs with an infinity component contribute the identity and cost
    no Miller loop.
    """

    def __init__(self, engine: "MillerEngine"):
        self.engine = engine
        self._acc = engine.unity

    def accumulate(self, g1_point, g2_point) -> "MillerAccumulator":
        """Fold e(P, Q)'s Miller value into the product (one loop)."""
        self._acc = self._acc * self.engine.miller_pair(g1_point, g2_point)
        return self

    def accumulate_prepared(self, g1_point,
                            prepared: PreparedG2) -> "MillerAccumulator":
        """Fold e(P, Q_fixed) via Q's line table (one replay, counted
        as one Miller loop — it is one, minus the point maths)."""
        self._acc = self._acc * self.engine.miller_prepared(g1_point,
                                                            prepared)
        return self

    def result(self):
        """The reduced product: final-exponentiated accumulator."""
        return self.engine.final_exponentiate(self._acc)

    def is_one(self) -> bool:
        """True iff the accumulated pairing product is the identity."""
        return self.result() == self.engine.unity


class MillerEngine:
    """What every pairing engine shares: the fresh loop as a replay of
    the line generator, the cached line tables, the final
    exponentiation, the accumulator and the two checks built on it.

    A subclass supplies :meth:`_lines` (its line generator over a G2
    point) and :meth:`_replay` (its loop over such lines at a G1
    point). ``unity`` is the identity of the pairing target group.
    """

    def __init__(self, name: str, unity: ExtElement, final_exp: int):
        self.name = name
        self.unity = unity
        self._final_exp = final_exp
        # line tables of fixed G2 arguments, keyed by the point's
        # coordinates: a verifying key's beta/gamma/delta land here once
        # and are replayed by every verify under that key. The stage's
        # pool threads share the engine, hence the lock.
        self._prepared: dict = {}
        self._prepared_lock = threading.Lock()

    def _lines(self, g2_point) -> Iterator[tuple]:
        raise NotImplementedError

    def _replay(self, g1_point, steps: Iterable[tuple]) -> ExtElement:
        raise NotImplementedError

    def miller_pair(self, g1_point, g2_point) -> ExtElement:
        """The Miller value of one (G1, G2) pair: the generator's lines
        replayed as they are produced. Nothing is cached — a proof's B
        is seen once."""
        if g1_point is None or g2_point is None:
            return self.unity
        count("miller_loop")
        return self._replay(g1_point, self._lines(g2_point))

    def prepare_g2(self, g2_point) -> PreparedG2:
        """The line table of a fixed G2 point, built on first sight and
        cached (``g2_precomp`` counts actual builds, so reuse is
        checkable)."""
        if g2_point is None:
            raise CurveError("cannot prepare the point at infinity")
        key = (g2_point[0], g2_point[1])
        with self._prepared_lock:
            prepared = self._prepared.get(key)
        if prepared is not None:
            return prepared
        count("g2_precomp")
        prepared = PreparedG2(self.name, tuple(self._lines(g2_point)))
        with self._prepared_lock:
            return self._prepared.setdefault(key, prepared)

    def miller_prepared(self, g1_point, prepared: PreparedG2) -> ExtElement:
        """Replay a line table at a G1 point: the Miller value
        :meth:`miller_pair` produces, without the point maths."""
        if prepared.engine_name != self.name:
            raise CurveError(
                f"prepared lines are for {prepared.engine_name}, "
                f"engine is {self.name}"
            )
        if g1_point is None:
            return self.unity
        count("miller_loop")
        return self._replay(g1_point, prepared.steps)

    def final_exponentiate(self, f: ExtElement) -> ExtElement:
        """``f ** final_exp``, the plain power (zero stays zero); the
        optimal-ate engines split it into an easy and a hard part."""
        count("final_exp")
        return f ** self._final_exp

    def accumulator(self) -> MillerAccumulator:
        """A fresh multi-pairing accumulator over this engine."""
        return MillerAccumulator(self)

    def pairing(self, g1_point, g2_point) -> ExtElement:
        """e(P, Q) with P in G1 (int coords) and Q in G2."""
        if g1_point is None or g2_point is None:
            return self.unity
        return self.final_exponentiate(self.miller_pair(g1_point, g2_point))

    def pairing_product_is_one(self, pairs) -> bool:
        """Check prod e(P_i, Q_i) == 1 with one shared final
        exponentiation."""
        acc = self.accumulator()
        for g1_point, g2_point in pairs:
            acc.accumulate(g1_point, g2_point)
        return acc.is_one()


@dataclass(frozen=True)
class _PairingParams:
    name: str
    # G2's coordinate field Fq[i]/(i^2 + 1); its base is Fq.
    fq2: ExtensionField
    curve_order: int
    fq12_modulus_coeffs: Tuple[int, ...]
    # i in Fq2 embeds into Fq12 as (w^6 - twist_shift).
    twist_shift: int
    ate_loop_count: int
    log_ate_loop_count: int
    # BN curves need two extra Frobenius line steps; BLS curves do not.
    bn_final_steps: bool
    # D-twist (BN: b2 = b/xi) untwists by *multiplying* with w^2/w^3;
    # M-twist (BLS: b2 = b*xi) untwists by *dividing*.
    m_twist: bool


_BN128 = _PairingParams(
    name="ALT-BN128",
    fq2=BN128_FQ2,
    curve_order=ALT_BN128_R.modulus,
    fq12_modulus_coeffs=(82, 0, 0, 0, 0, 0, -18, 0, 0, 0, 0, 0),
    twist_shift=9,
    ate_loop_count=29793968203157093288,
    log_ate_loop_count=63,
    bn_final_steps=True,
    m_twist=False,
)

_BLS12_381 = _PairingParams(
    name="BLS12-381",
    fq2=BLS_FQ2,
    curve_order=BLS12_381_R.modulus,
    fq12_modulus_coeffs=(2, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0),
    twist_shift=1,
    ate_loop_count=15132376222941642752,
    log_ate_loop_count=62,
    bn_final_steps=False,
    m_twist=True,
)


class PairingEngine(MillerEngine):
    """Optimal-ate pairing over the Fq12 tower for one curve family.

    Line steps are ``(kind, lam, x, y)``: ``kind`` is ``"sm"`` (doubling
    step: square-then-multiply into the accumulator) or ``"m"``
    (addition / Frobenius step: multiply only); ``lam`` is the slope of
    the line through ``(x, y)``, or ``None`` for a vertical line — all
    three untwisted into Fq12.

    A linear map over Fq of the flat w-basis is kept as one row per
    input coefficient, ``((slot, factor), ...)``: the q^k-Frobenius
    (k = 1, 2, 3, 6) and the untwists Fq2 -> Fq12 are such maps, built
    at construction from w^6's value in Fq2.
    """

    def __init__(self, params: _PairingParams):
        self.params = params
        fq2 = params.fq2
        q = fq2.base.modulus
        r = params.curve_order
        self.fq12 = ExtensionField(fq2.base, list(params.fq12_modulus_coeffs),
                                   name=f"{params.name}.Fq12")
        final_exp = (q ** 12 - 1) // r
        # (w^i)^(q^k) = w^i * g_k^i with g_k = (w^6)^((q^k - 1)/6) in
        # Fq[w^6], computed in Fq2 where w^6 = i + s (the exponent
        # reduced mod |Fq2*| = q^2 - 1); Fq2's Frobenius is its
        # conjugation because q = 3 (mod 4).
        assert q % 4 == 3 and q % 6 == 1
        w6 = fq2.element([params.twist_shift, 1])
        w = self.fq12.element([0, 1] + [0] * 10)
        w_pows = [self.fq12.one]
        for _ in range(11):
            w_pows.append(w_pows[-1] * w)
        gammas = {k: w6 ** ((q ** k - 1) // 6 % (q * q - 1))
                  for k in (1, 2, 3, 6)}
        self._frobenius = {
            k: self._map_rows(wi * self._embed(g ** i)
                              for i, wi in enumerate(w_pows))
            for k, g in gammas.items()}
        # The untwist multiplies by w^e (D-twist) or divides by it
        # (M-twist): e = 1, 2, 3 for a slope, an abscissa, an ordinate.
        u = w.inverse() if params.m_twist else w
        self._untwist = {}
        ue = self.fq12.one
        for e in (1, 2, 3):
            ue = ue * u
            self._untwist[e] = self._map_rows(
                ue * self._embed(fq2.element(c)) for c in ((1, 0), (0, 1)))
        # psi(x, y) = (conj(x) g_1^(+-2), conj(y) g_1^(+-3)): the
        # q-Frobenius of an untwisted G2 point, kept in Fq2.
        g = gammas[1].inverse() if params.m_twist else gammas[1]
        self._psi_x = g.square()
        self._psi_y = self._psi_x * g
        # The hard part h = (q^4 - q^2 + 1)/r by its base-q digits, as
        # one chain: per bit of the digits, msb first, which of m,
        # m^q, m^(q^2), m^(q^3) multiply in (a 4-bit table index).
        hard, rem = divmod(q ** 4 - q ** 2 + 1, r)
        assert rem == 0 and hard < q ** 4
        assert (q ** 6 - 1) * (q ** 2 + 1) * hard == final_exp
        digits = [hard // q ** k % q for k in range(4)]
        self._hard_chain = tuple(
            sum((lam >> bit & 1) << k for k, lam in enumerate(digits))
            for bit in range(max(d.bit_length() for d in digits) - 1, -1, -1))
        super().__init__(params.name, self.fq12.one, final_exp)

    # -- linear maps of the flat w-basis ------------------------------------------

    def _embed(self, z: ExtElement) -> ExtElement:
        """Fq2 into Fq12: a + b i = (a - s b) + b w^6."""
        a, b = z.coeffs
        return self.fq12.element(
            [a - self.params.twist_shift * b] + [0] * 5 + [b] + [0] * 5)

    @staticmethod
    def _map_rows(images: Iterable[ExtElement]) -> Tuple[tuple, ...]:
        return tuple(tuple((j, c) for j, c in enumerate(image.coeffs) if c)
                     for image in images)

    def _apply(self, rows: Tuple[tuple, ...], coeffs) -> ExtElement:
        p = self.params.fq2.base.modulus
        out = [0] * 12
        for a, row in zip(coeffs, rows):
            if a:
                for j, c in row:
                    out[j] += a * c
        return ExtElement(self.fq12, tuple(c % p for c in out))

    def frobenius(self, f: ExtElement, k: int) -> ExtElement:
        """f^(q^k) for k in 1, 2, 3, 6: a coefficient lands in one slot
        for even k (g_k is in Fq; k = 6 negates the odd coefficients),
        in two for odd k."""
        return self._apply(self._frobenius[k], f.coeffs)

    def _untwisted(self, z: ExtElement, e: int) -> ExtElement:
        return self._apply(self._untwist[e], z.coeffs)

    def _psi(self, pt: Point) -> Point:
        x, y = pt
        return (x.conjugate() * self._psi_x, y.conjugate() * self._psi_y)

    # -- embeddings ---------------------------------------------------------------

    def cast_g1(self, p) -> Point:
        """Embed a G1 point (int coordinates) into E(Fq12)."""
        if p is None:
            return None
        x, y = p
        return (self.fq12.from_base(x), self.fq12.from_base(y))

    # -- the Miller loop -------------------------------------------------------------

    def _step(self, kind: str, lam: Optional[ExtElement],
              pt: Point) -> tuple:
        """One line as the replay reads it: the Fq2 slope and point
        untwisted, (lam w^+-1, x w^+-2, y w^+-3) — the values the same
        chord over the twisted point in E(Fq12) gives."""
        x, y = pt
        return (kind, None if lam is None else self._untwisted(lam, 1),
                self._untwisted(x, 2), self._untwisted(y, 3))

    def _lines(self, g2_point) -> Iterator[tuple]:
        """The ate loop's lines over Q in Fq2 (a = 0 for both
        families): a doubling per loop bit, an addition of Q per set
        bit, and on BN curves the additions of psi(Q) and -psi^2(Q)."""
        prm = self.params
        a = prm.fq2.zero
        q_pt = r_pt = g2_point
        for i in range(prm.log_ate_loop_count, -1, -1):
            lam, doubled = chord(r_pt, r_pt, a)
            yield self._step("sm", lam, r_pt)
            r_pt = doubled
            if prm.ate_loop_count & (1 << i):
                lam, added = chord(r_pt, q_pt, a)
                yield self._step("m", lam, r_pt)
                r_pt = added
        if prm.bn_final_steps:
            q1 = self._psi(q_pt)
            x2, y2 = self._psi(q1)
            for frobenius_pt in (q1, (x2, -y2)):
                lam, added = chord(r_pt, frobenius_pt, a)
                yield self._step("m", lam, r_pt)
                r_pt = added

    def _replay(self, g1_point, steps: Iterable[tuple]) -> ExtElement:
        xt, yt = self.cast_g1(g1_point)
        f = self.unity
        for kind, lam, x1, y1 in steps:
            line = (xt - x1) if lam is None else lam * (xt - x1) - (yt - y1)
            f = f.square() * line if kind == "sm" else f * line
        return f

    # -- the final exponentiation ----------------------------------------------------

    def final_exponentiate(self, f: ExtElement) -> ExtElement:
        """f^((q^12 - 1)/r) = (f^((q^6 - 1)(q^2 + 1)))^h: the easy part
        conj(f)/f then a q^2-Frobenius times itself, the hard part one
        square-and-multiply chain over m, m^q, m^(q^2), m^(q^3) and
        their 16 products. Zero — a degenerate Miller product — stays
        zero, as under the plain power."""
        count("final_exp")
        if not f:
            return f
        m = self.frobenius(f, 6) * f.inverse()
        m = self.frobenius(m, 2) * m
        images = (m, self.frobenius(m, 1), self.frobenius(m, 2),
                  self.frobenius(m, 3))
        table = [None] * 16
        for mask in range(1, 16):
            low = mask & -mask
            rest = table[mask ^ low]
            image = images[low.bit_length() - 1]
            table[mask] = image if rest is None else rest * image
        chain = iter(self._hard_chain)
        acc = table[next(chain)]
        for index in chain:
            acc = acc.square()
            if index:
                acc = acc * table[index]
        return acc


_ENGINES = {}


def _engine(params: _PairingParams) -> PairingEngine:
    if params.name not in _ENGINES:
        _ENGINES[params.name] = PairingEngine(params)
    return _ENGINES[params.name]


def bn128_pairing() -> PairingEngine:
    """The ALT-BN128 pairing engine (cached)."""
    return _engine(_BN128)


def bls12_381_pairing() -> PairingEngine:
    """The BLS12-381 pairing engine (cached)."""
    return _engine(_BLS12_381)
