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
BLS12-381 over the full Fq12 tower (the algorithm py_ecc uses: G2
points over Fq2 are *twisted* into E(Fq12), lines are evaluated at the
embedded G1 argument, the product is raised to (q^12 - 1)/r). The
MNT4753 surrogate is supersingular with embedding degree 2 and runs a
reduced Tate pairing over Fq2 (:mod:`repro.curves.tate`) on the same
base class.

Every entry point takes an optional
:class:`~repro.ff.opcount.OpCounter`: ``miller_loop`` counts once per
loop, fresh or replayed, ``final_exp`` once per product, ``g2_precomp``
once per table actually built — so callers can machine-check pairing
economics (a single verify is 4 / 1, a batch of N proofs N + 3 / 1)
instead of trusting a docstring.

This is a verifier-side component — never on the prover's hot path — so
clarity is preferred over speed throughout.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

from repro.errors import CurveError
from repro.ff.extension import ExtElement, ExtensionField
from repro.ff.params import ALT_BN128_Q, ALT_BN128_R, BLS12_381_Q, BLS12_381_R

__all__ = ["MillerEngine", "PairingEngine", "PreparedG2",
           "MillerAccumulator", "chord", "bn128_pairing",
           "bls12_381_pairing"]

Point = Optional[Tuple[ExtElement, ExtElement]]


def _count(counter, op: str, n: int = 1) -> None:
    if counter is not None:
        counter.count(op, n)


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

    def __init__(self, engine: "MillerEngine", counter=None):
        self.engine = engine
        self.counter = counter
        self._acc = engine.unity

    def accumulate(self, g1_point, g2_point) -> "MillerAccumulator":
        """Fold e(P, Q)'s Miller value into the product (one loop)."""
        self._acc = self._acc * self.engine.miller_pair(
            g1_point, g2_point, counter=self.counter)
        return self

    def accumulate_prepared(self, g1_point,
                            prepared: PreparedG2) -> "MillerAccumulator":
        """Fold e(P, Q_fixed) via Q's line table (one replay, counted
        as one Miller loop — it is one, minus the point maths)."""
        self._acc = self._acc * self.engine.miller_prepared(
            g1_point, prepared, counter=self.counter)
        return self

    def result(self):
        """The reduced product: final-exponentiated accumulator."""
        return self.engine.final_exponentiate(self._acc,
                                              counter=self.counter)

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

    def miller_pair(self, g1_point, g2_point, counter=None) -> ExtElement:
        """The Miller value of one (G1, G2) pair: the generator's lines
        replayed as they are produced. Nothing is cached — a proof's B
        is seen once."""
        if g1_point is None or g2_point is None:
            return self.unity
        _count(counter, "miller_loop")
        return self._replay(g1_point, self._lines(g2_point))

    def prepare_g2(self, g2_point, counter=None) -> PreparedG2:
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
        _count(counter, "g2_precomp")
        prepared = PreparedG2(self.name, tuple(self._lines(g2_point)))
        with self._prepared_lock:
            return self._prepared.setdefault(key, prepared)

    def miller_prepared(self, g1_point, prepared: PreparedG2,
                        counter=None) -> ExtElement:
        """Replay a line table at a G1 point: the Miller value
        :meth:`miller_pair` produces, without the point maths."""
        if prepared.engine_name != self.name:
            raise CurveError(
                f"prepared lines are for {prepared.engine_name}, "
                f"engine is {self.name}"
            )
        if g1_point is None:
            return self.unity
        _count(counter, "miller_loop")
        return self._replay(g1_point, prepared.steps)

    def final_exponentiate(self, f: ExtElement, counter=None) -> ExtElement:
        _count(counter, "final_exp")
        return f ** self._final_exp

    def accumulator(self, counter=None) -> MillerAccumulator:
        """A fresh multi-pairing accumulator over this engine."""
        return MillerAccumulator(self, counter=counter)

    def pairing(self, g1_point, g2_point, counter=None) -> ExtElement:
        """e(P, Q) with P in G1 (int coords) and Q in G2."""
        if g1_point is None or g2_point is None:
            return self.unity
        return self.final_exponentiate(
            self.miller_pair(g1_point, g2_point, counter=counter),
            counter=counter)

    def pairing_product_is_one(self, pairs, counter=None) -> bool:
        """Check prod e(P_i, Q_i) == 1 with one shared final
        exponentiation."""
        acc = self.accumulator(counter=counter)
        for g1_point, g2_point in pairs:
            acc.accumulate(g1_point, g2_point)
        return acc.is_one()


@dataclass(frozen=True)
class _PairingParams:
    name: str
    field_modulus: int
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
    field_modulus=ALT_BN128_Q.modulus,
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
    field_modulus=BLS12_381_Q.modulus,
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
    the line through ``(x, y)``, or ``None`` for a vertical line.
    """

    def __init__(self, params: _PairingParams):
        self.params = params
        self.fq12 = ExtensionField(
            # Reuse the right base field by modulus.
            ALT_BN128_Q if params.field_modulus == ALT_BN128_Q.modulus else BLS12_381_Q,
            list(params.fq12_modulus_coeffs),
            name=f"{params.name}.Fq12",
        )
        self._w = self.fq12.element([0, 1] + [0] * 10)
        self._w2 = self._w * self._w
        self._w3 = self._w2 * self._w
        super().__init__(
            params.name, self.fq12.one,
            (params.field_modulus ** 12 - 1) // params.curve_order)

    # -- embeddings ---------------------------------------------------------------

    def cast_g1(self, p) -> Point:
        """Embed a G1 point (int coordinates) into E(Fq12)."""
        if p is None:
            return None
        x, y = p
        return (self.fq12.from_base(x), self.fq12.from_base(y))

    def twist_g2(self, p) -> Point:
        """Map a G2 point over Fq2 onto the curve over Fq12.

        With i = w^6 - s (s = twist_shift), a + b i = (a - s b) + b w^6;
        the D-type untwist multiplies x by w^2 and y by w^3.
        """
        if p is None:
            return None
        x, y = p
        s = self.params.twist_shift
        q = self.params.field_modulus
        xc = ((x.coeffs[0] - s * x.coeffs[1]) % q, x.coeffs[1])
        yc = ((y.coeffs[0] - s * y.coeffs[1]) % q, y.coeffs[1])
        nx = self.fq12.element([xc[0], 0, 0, 0, 0, 0, xc[1], 0, 0, 0, 0, 0])
        ny = self.fq12.element([yc[0], 0, 0, 0, 0, 0, yc[1], 0, 0, 0, 0, 0])
        if self.params.m_twist:
            return (nx / self._w2, ny / self._w3)
        return (nx * self._w2, ny * self._w3)

    # -- the Miller loop -------------------------------------------------------------

    def _lines(self, g2_point) -> Iterator[tuple]:
        """The ate loop's lines over the twisted Q (a = 0 for both
        families): a doubling per loop bit, an addition of Q per set
        bit, and on BN curves the two Frobenius additions."""
        prm = self.params
        a = self.fq12.zero
        q_pt = r_pt = self.twist_g2(g2_point)
        for i in range(prm.log_ate_loop_count, -1, -1):
            lam, doubled = chord(r_pt, r_pt, a)
            yield ("sm", lam, *r_pt)
            r_pt = doubled
            if prm.ate_loop_count & (1 << i):
                lam, added = chord(r_pt, q_pt, a)
                yield ("m", lam, *r_pt)
                r_pt = added
        if prm.bn_final_steps:
            fq = prm.field_modulus
            q1 = (q_pt[0] ** fq, q_pt[1] ** fq)
            nq2 = (q1[0] ** fq, -(q1[1] ** fq))
            for frobenius_pt in (q1, nq2):
                lam, added = chord(r_pt, frobenius_pt, a)
                yield ("m", lam, *r_pt)
                r_pt = added

    def _replay(self, g1_point, steps: Iterable[tuple]) -> ExtElement:
        xt, yt = self.cast_g1(g1_point)
        f = self.unity
        for kind, lam, x1, y1 in steps:
            line = (xt - x1) if lam is None else lam * (xt - x1) - (yt - y1)
            f = f * f * line if kind == "sm" else f * line
        return f


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
