"""Curve instances for the three curves of Table 1.

G1/G2 generators for ALT-BN128 and BLS12-381 are the standard constants
(validated on-curve and of order r by the test suite). The MNT4753
surrogate's G2 generator is derived deterministically by cofactor
clearing (see :mod:`repro.ff.params` for the surrogate construction).
"""

from __future__ import annotations

import random

from repro.errors import CurveError
from repro.ff.extension import ExtensionField
from repro.ff.params import (
    ALT_BN128_Q,
    ALT_BN128_R,
    BLS12_381_Q,
    BLS12_381_R,
    MNT4753_Q,
    MNT4753_R,
)
from repro.curves.weierstrass import CurveGroup

__all__ = [
    "BN128_FQ2",
    "BLS_FQ2",
    "MNT_FQ2",
    "bn128_g1",
    "bn128_g2",
    "bls12_381_g1",
    "bls12_381_g2",
    "mnt4753_g1",
    "mnt4753_g2",
    "CURVES",
    "CurvePair",
]

# --- extension fields (Fq2 = Fq[i]/(i^2 + 1) for all three) -------------------

BN128_FQ2 = ExtensionField(ALT_BN128_Q, [1, 0], name="ALT-BN128.Fq2")
BLS_FQ2 = ExtensionField(BLS12_381_Q, [1, 0], name="BLS12-381.Fq2")
MNT_FQ2 = ExtensionField(MNT4753_Q, [1, 0], name="MNT4753.Fq2")

# --- ALT-BN128 ------------------------------------------------------------------

_BN_G2_X = (
    10857046999023057135944570762232829481370756359578518086990519993285655852781,
    11559732032986387107991004021392285783925812861821192530917403151452391805634,
)
_BN_G2_Y = (
    8495653923123431417604973247489272438418190587263600148770280649306958101930,
    4082367875863433681332203403145435568316851327593401208105741076214120093531,
)
# b2 = 3 / (9 + i) in Fq2.
_BN_B2 = BN128_FQ2.element([9, 1]).inverse().scale(3)

bn128_g1 = CurveGroup(
    ALT_BN128_Q, a=0, b=3, order=ALT_BN128_R.modulus,
    generator=(1, 2), name="ALT-BN128.G1",
)
# The twist has order r * (2q - r) over Fq2; G1 is the whole curve.
bn128_g2 = CurveGroup(
    BN128_FQ2, a=0, b=_BN_B2, order=ALT_BN128_R.modulus,
    generator=(BN128_FQ2.element(list(_BN_G2_X)), BN128_FQ2.element(list(_BN_G2_Y))),
    cofactor=2 * ALT_BN128_Q.modulus - ALT_BN128_R.modulus,
    name="ALT-BN128.G2",
)

# --- BLS12-381 --------------------------------------------------------------------

_BLS_G1_X = int(
    "3685416753713387016781088315183077757961620795782546409894578378"
    "688607592378376318836054947676345821548104185464507"
)
_BLS_G1_Y = int(
    "1339506544944476473020471379941921221584933875938349620426543736"
    "416511423956333506472724655353366534992391756441569"
)
_BLS_G2_X = (
    int("35270106958746661818713911601106014489002995279277524021990864423"
        "9793785735715026873347600343865175952761926303160"),
    int("30591443442442137099712598147537816369864703254766475586593732062"
        "91635324768958432433509563104347017837885763365758"),
)
_BLS_G2_Y = (
    int("19851506022872919355680545211771716383008689782156557308593786650"
        "66344726373823718423869104263333984641494340347905"),
    int("92755366549233245574720196577603788075774019345359297002502797879"
        "3976877002675564980949289727957565575433344219582"),
)

# The curve seed x; both cofactors are the family's polynomials in it.
_BLS_X = -0xD201000000010000

bls12_381_g1 = CurveGroup(
    BLS12_381_Q, a=0, b=4, order=BLS12_381_R.modulus,
    generator=(_BLS_G1_X, _BLS_G1_Y), cofactor=(_BLS_X - 1) ** 2 // 3,
    name="BLS12-381.G1",
)
bls12_381_g2 = CurveGroup(
    BLS_FQ2, a=0, b=BLS_FQ2.element([4, 4]), order=BLS12_381_R.modulus,
    generator=(BLS_FQ2.element(list(_BLS_G2_X)), BLS_FQ2.element(list(_BLS_G2_Y))),
    cofactor=(_BLS_X ** 8 - 4 * _BLS_X ** 7 + 5 * _BLS_X ** 6
              - 4 * _BLS_X ** 4 + 6 * _BLS_X ** 3 - 4 * _BLS_X ** 2
              - 4 * _BLS_X + 13) // 9,
    name="BLS12-381.G2",
)

# --- MNT4753 surrogate --------------------------------------------------------------

_MNT_G1_X = int(
    "0xf06a40c8cab41f3a001cc75853c028f7d2ea5b49fd46fa58486a38da785935aadfd3e"
    "696ef1d8988520a97e23acdff48c2ab74ce07a3d041c69dc654f886cdbd97e33ccc4f6f"
    "8c3e83b28f0b53ecc1a8847f645b31c80907acff6e4fb9ab",
    16,
)
_MNT_G1_Y = int(
    "0xd61c9b6ca3c37d3b3773aee4f62fc399d2e851a48973b2dfb842166ca72f42857ef56"
    "512b14658f95d9b02aace3f37efa25a0911f9e3e5f16fcfeecb8a7e5a3f4e344955a4b8"
    "69f44a2dc36826582b8cb1ae54f181e376f6e133ffdf4997",
    16,
)

mnt4753_g1 = CurveGroup(
    MNT4753_Q, a=1, b=0, order=MNT4753_R.modulus,
    generator=(_MNT_G1_X, _MNT_G1_Y), cofactor=8, name="MNT4753.G1",
)

# The surrogate curve over Fq2 has order (q+1)^2 = (8r)^2; cofactor-clear
# a deterministic pseudo-random point to land in the order-r subgroup.
mnt4753_g2 = CurveGroup(
    MNT_FQ2, a=MNT_FQ2.element([1, 0]), b=MNT_FQ2.element([0, 0]),
    order=MNT4753_R.modulus, cofactor=64 * MNT4753_R.modulus, name="MNT4753.G2",
)


def _derive_mnt_g2_generator() -> None:
    """Deterministically find and install the MNT4753-surrogate G2
    generator (runs once, lazily, in milliseconds).

    Take x in the base field F_q with rhs = x^3 + x a *non*-residue in
    F_q. Since -1 is a non-residue (q = 3 mod 4), -rhs is a residue with
    root t, and y = i*t satisfies y^2 = -t^2 = rhs in Fq2. Such points
    lie on the quadratic-twist part of E(Fq2) (disjoint from E(Fq) = G1),
    which also has order q + 1 = 8r; clearing the cofactor 8 lands in an
    order-r subgroup independent of G1.
    """
    q = MNT4753_Q.modulus
    r = MNT4753_R.modulus
    field = MNT_FQ2
    # Fixed seed -> same generator every run: deterministic despite the
    # random module, so the kernel-determinism rule does not apply.
    rng = random.Random(0x6E7432)  # repro: allow[R004]
    while True:
        x_base = rng.randrange(q)
        rhs = (x_base * x_base * x_base + x_base) % q
        if rhs == 0 or pow(rhs, (q - 1) // 2, q) == 1:
            continue  # need a non-residue so the point avoids E(Fq)
        t = pow((-rhs) % q, (q + 1) // 4, q)
        assert t * t % q == (-rhs) % q
        point = (field.element([x_base, 0]), field.element([0, t]))
        candidate = mnt4753_g2.scalar_mul_unchecked(8, point)
        if candidate is None:
            continue
        if mnt4753_g2.scalar_mul_unchecked(r, candidate) is not None:
            continue  # paranoia: order must divide (and hence equal) r
        mnt4753_g2.set_generator(candidate)
        return


class _LazyG2:
    """Install the MNT G2 generator on first attribute access."""

    _done = False

    @classmethod
    def ensure(cls) -> None:
        if not cls._done:
            _derive_mnt_g2_generator()
            cls._done = True


def mnt4753_g2_ready() -> CurveGroup:
    """The MNT4753-surrogate G2 group with its generator installed."""
    _LazyG2.ensure()
    return mnt4753_g2


class CurvePair:
    """A named (G1, G2, Fr, Fq) bundle as the SNARK layer consumes it."""

    def __init__(self, name: str, g1: CurveGroup, g2_factory, fr, fq,
                 scalar_bits: int):
        self.name = name
        self.g1 = g1
        self._g2_factory = g2_factory
        self.fr = fr
        self.fq = fq
        self.scalar_bits = scalar_bits

    @property
    def g2(self) -> CurveGroup:
        g2 = self._g2_factory()
        if g2._generator is None:
            raise CurveError(f"{self.name}: G2 generator unavailable")
        return g2


CURVES = {
    "ALT-BN128": CurvePair(
        "ALT-BN128", bn128_g1, lambda: bn128_g2,
        ALT_BN128_R, ALT_BN128_Q, scalar_bits=256,
    ),
    "BLS12-381": CurvePair(
        "BLS12-381", bls12_381_g1, lambda: bls12_381_g2,
        BLS12_381_R, BLS12_381_Q, scalar_bits=381,
    ),
    "MNT4753": CurvePair(
        "MNT4753", mnt4753_g1, mnt4753_g2_ready,
        MNT4753_R, MNT4753_Q, scalar_bits=753,
    ),
}
