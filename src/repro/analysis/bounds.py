"""Limb-bound certifier: worst-case magnitude propagation (GZKP §4.3).

The float-limb kernels are only correct while every intermediate stays
*exactly representable*: float64 lanes must never exceed 2^53, int64
lanes never 2^63, and the magic-constant rounding trick needs its
operand inside the constant's binade. Those claims live as comments in
:mod:`repro.backend.numpy_limb` / :mod:`repro.backend.native` /
:mod:`repro.ff.dfp`; this module turns them into machine-checked
certificates.

The certifier is an interval/abstract interpreter over the kernels'
dataflow. Each kernel family is modelled as magnitude arithmetic on
per-row bounds (pure Python ints — no float can round, no int64 can
wrap inside the certifier itself), and every step that the real kernel
performs in float64 or int64 records a :class:`~repro.analysis.report.
BoundCheck` into a tracker that keeps the worst case seen. Four
families are covered:

* ``dfp`` — the base-2^52 Dekker two-product multiplier.
* ``numpy-limb`` — the base-2^22 float64 NTT engine: Stockham sweep
  with per-pass twiddle matmuls, the ``clean_every`` cadence, and the
  egress pipeline.
* ``native-mont`` — the compiled CIOS Montgomery kernels
  (:mod:`repro.backend.native`): u128 accumulator range, scratch
  width, and the canonicality invariants the raw-domain Stockham
  butterflies rest on.
* ``native-jacobian`` — the Montgomery-domain point kernels built on
  those CIOS primitives (one doubling and one addition per coordinate
  field behind the lane loops and the bucket fold, and the
  point-merging tree): the same accumulator/scratch gates, the
  canonicality closure their in-C word compares rely on, exactness of
  those compares as special-case discriminants, machine-checked
  Montgomery-mul counts per point op (exactly the formulas', Karatsuba
  3-mul Fq2 tower) and per merge lane, and the Fermat inversion's
  exponent and precondition.

This module must stay importable from the kernels it certifies (the
runtime cadence guard in ``numpy_limb`` imports
:func:`certified_safe_clean_every`), so it depends only on the standard
library and :mod:`repro.analysis.report`; the field registry is
imported lazily inside :func:`certify_all`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional

from repro.analysis.report import BoundCheck, KernelCertificate

__all__ = [
    "LimbGeometry",
    "limb_geometry",
    "certified_safe_clean_every",
    "certify_dfp",
    "certify_numpy_limb",
    "certify_native_mont",
    "certify_native_jacobian",
    "certify_modulus",
    "certify_all",
]

#: float64 integers are exact strictly below this
F53 = 1 << 53
#: int64 overflow threshold
I63 = 1 << 63
#: no registered field exposes 2-adicity above 32, so no Stockham sweep
#: runs more than 32 passes; the model always covers at least this many
#: and extends to four full clean segments so the cadence's steady
#: state is certified too (a prefix of the simulated schedule covers
#: every shorter sweep).
MIN_SWEEP_PASSES = 32
#: once a simulated bound passes this the violation is already recorded
#: and further growth is pointless (it turns multiplicative)
_ABORT = 1 << 60


# -- geometry mirror -----------------------------------------------------------


@dataclass(frozen=True)
class LimbGeometry:
    """Pure-Python mirror of ``numpy_limb._Geometry`` (same formulas;
    the cross-check test asserts they agree for every registered
    modulus)."""

    p: int
    bits: int
    limb_bits: int
    ld: int
    lg: int
    w32: int
    kp: int
    eg_w32: int
    clean_every: int
    #: largest unsigned value of the top *data* limb of any x < p
    top_data_max: int


def limb_geometry(modulus: int, limb_bits: int = 22) -> LimbGeometry:
    bits = modulus.bit_length()
    ld = (bits + limb_bits - 1) // limb_bits
    if bits > limb_bits * ld - 1:
        ld += 1
    lg = ld + 2
    w32 = (bits + 31) // 32
    shift = limb_bits * lg + 8 - (bits - 1)
    kp = (1 << shift) * modulus
    eg_w32 = (limb_bits * lg + 40) // 32 + 1
    clean_every = max(2, (1 << 53) // (lg << (2 * limb_bits)))
    top_data_max = (modulus - 1) >> (limb_bits * (ld - 1))
    return LimbGeometry(modulus, bits, limb_bits, ld, lg, w32, kp,
                        eg_w32, clean_every, top_data_max)


# -- check tracker -------------------------------------------------------------


class _Tracker:
    """Keeps the worst bound seen per check name, in first-hit order."""

    def __init__(self) -> None:
        self._worst: Dict[str, BoundCheck] = {}
        self._order: List[str] = []

    def hit(self, name: str, bound: int, limit: int, kind: str = "float53",
            detail: str = "") -> None:
        cur = self._worst.get(name)
        if cur is None:
            self._order.append(name)
        if cur is None or bound > cur.bound:
            self._worst[name] = BoundCheck(name, int(bound), int(limit),
                                           kind, detail)

    def checks(self) -> List[BoundCheck]:
        return [self._worst[n] for n in self._order]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self._worst.values())


# -- numpy-limb: magic-constant normalize model --------------------------------


def _normalize_rows(rows: List[int], limb_bits: int, trk: _Tracker,
                    tag: str, absorb_top: bool = False) -> List[int]:
    """Two magic-rounding carry rounds on a per-row magnitude vector.

    Mirrors ``numpy_limb._normalize`` (``absorb_top=False``, the carry
    out of the top guard row is *dropped*, so it must be provably zero)
    and the normalize prefix of ``_limbs_to_ints`` (``absorb_top=True``,
    the top limb re-absorbs its own carry times the base).

    ``(x + MAGIC) - MAGIC`` rounds to the nearest multiple of 2^22 only
    while ``MAGIC + x`` stays inside MAGIC's binade, i.e. |x| <
    2^(51 + limb_bits); the rounded part d satisfies |d| <= |x| + 2^21,
    so the carry |d|/2^22 is bounded by ``(|x| + 2^21) >> 22``.
    """
    half = 1 << (limb_bits - 1)
    magic_safe = 1 << (51 + limb_bits)
    lg = len(rows)
    for _ in range(2):
        trk.hit(
            f"{tag}/magic-window", max(rows), magic_safe, "float53",
            "x + MAGIC must stay inside MAGIC's binade for exact "
            "round-to-multiple-of-base",
        )
        if not absorb_top:
            trk.hit(
                f"{tag}/top-carry-zero", rows[-1], half, "carry",
                "the top guard row must round to zero: its carry is "
                "dropped by _normalize",
            )
        carries = [(r + half) >> limb_bits for r in rows]
        new = [half] * lg
        for i in range(1, lg - 1):
            new[i] = half + carries[i - 1]
        new[-1] = rows[-1] + carries[-2]
        rows = new
    return rows


# -- numpy-limb: Stockham sweep model ------------------------------------------


def _sweep_pass(rows: List[int], tabcap: List[int], limb_bits: int,
                trk: _Tracker) -> List[int]:
    """One butterfly pass: normalize a copy (v), multiply by the twiddle
    constant matrix, add/subtract into the state.

    ``tabcap[r]`` bounds |tab[r, c]| for every column c: balanced limbs
    of values < p occupy rows < ld with magnitude <= 2^21, row ld holds
    at most the balancing carry (<= 1), and the top guard row is zero —
    which is exactly why the state's top row only ever changes through
    normalize carries.
    """
    v = _normalize_rows(rows, limb_bits, trk, "sweep/v-normalize")
    s_v = sum(v)
    v_max = max(v)
    trk.hit(
        "sweep/twiddle-term", max(tabcap) * v_max, F53, "float53",
        "each tab[r,c] * v[c] product must be float-exact",
    )
    tmat = [cap * s_v for cap in tabcap]
    trk.hit(
        "sweep/twiddle-rowsum", max(tmat), F53, "float53",
        "matmul partial sums over the LG columns must stay float-exact",
    )
    out = [r + t for r, t in zip(rows, tmat)]
    trk.hit(
        "sweep/butterfly", max(out), F53, "float53",
        "u +/- t accumulator rows must stay float-exact between cleans",
    )
    return out


def _simulate_sweep(limb_bits: int, lg: int, ld: int, top_data_max: int,
                    clean_every: int, trk: _Tracker,
                    geom: Optional[LimbGeometry] = None) -> None:
    """Run the per-row magnitude model over a worst-case sweep.

    Ingress rows are unsigned base-2^22 limbs of a canonical value; the
    clean schedule mirrors ``_stockham_ntt`` (normalize the state before
    pass i when ``i % clean_every == 0``, i > 0). The simulation covers
    ``max(MIN_SWEEP_PASSES, 4 * clean_every + 4)`` passes — every
    supported NTT length plus four full clean segments, so the
    between-clean steady state is certified, not just the ingress
    transient. When ``geom`` is given the egress pipeline is evaluated
    after *every* pass, so the recorded worst case covers a sweep ending
    at any simulated length.
    """
    half = 1 << (limb_bits - 1)
    mask = (1 << limb_bits) - 1
    rows = [mask] * (ld - 1) + [top_data_max] + [0] * (lg - ld)
    tabcap = [half] * ld + [1] + [0] * (lg - ld - 1)
    if geom is not None:
        _egress_checks(rows, geom, trk)
    for i in range(max(MIN_SWEEP_PASSES, 4 * clean_every + 4)):
        if i and i % clean_every == 0:
            rows = _normalize_rows(rows, limb_bits, trk, "sweep/clean")
        rows = _sweep_pass(rows, tabcap, limb_bits, trk)
        if geom is not None:
            _egress_checks(rows, geom, trk)
        if max(rows) >= _ABORT:
            break  # violation already recorded; growth is multiplicative


# -- numpy-limb: egress model --------------------------------------------------


def _egress_checks(rows: List[int], geom: LimbGeometry,
                   trk: _Tracker) -> None:
    """Model ``_limbs_to_ints``: absorb-top normalize, + k*p offset,
    int64 carry propagation, 32-bit word assembly."""
    lb = geom.limb_bits
    mask = (1 << lb) - 1
    er = _normalize_rows(rows, lb, trk, "egress/normalize",
                         absorb_top=True)
    trk.hit(
        "egress/int64-cast", max(er), F53, "float53",
        "limbs must be exact-integer floats before the int64 cast",
    )
    kp_limbs = [(geom.kp >> (lb * j)) & mask for j in range(geom.lg - 1)]
    kp_limbs.append(geom.kp >> (lb * (geom.lg - 1)))
    neg = sum(er[j] << (lb * j) for j in range(geom.lg))
    trk.hit(
        "egress/kp-positivity", neg, geom.kp + 1, "carry",
        "the k*p offset must dominate the most-negative reachable "
        "accumulator value so the carry loop sees non-negatives",
    )
    carry = 0
    for j in range(geom.lg):
        t = er[j] + kp_limbs[j] + carry
        trk.hit("egress/int64-carry", t, I63, "int64",
                "per-limb accumulator + carry must fit int64")
        carry = t >> lb
    total = neg + geom.kp
    trk.hit(
        "egress/word-capacity", total, 1 << (32 * geom.eg_w32), "carry",
        "the assembled value must fit the egress 32-bit word buffer",
    )


# -- numpy-limb: certificate ---------------------------------------------------


def certify_numpy_limb(name: str, modulus: int,
                       clean_every: Optional[int] = None,
                       limb_bits: int = 22) -> KernelCertificate:
    """Certify the base-2^22 float64 engine for one modulus.

    ``clean_every`` overrides the geometry's cadence — the regression
    fixture passes a deliberately weakened value and the certificate
    must report a float-exactness violation.
    """
    geom = limb_geometry(modulus, limb_bits)
    cadence = geom.clean_every if clean_every is None else clean_every
    trk = _Tracker()
    half = 1 << (limb_bits - 1)
    trk.hit(
        "geom/guard-rows", abs(geom.lg - (geom.ld + 2)), 1, "structure",
        "two guard rows are required so balanced values < p never touch "
        "the top row (twiddle matrices vanish there)",
    )
    trk.hit(
        "geom/top-data-limb", geom.top_data_max, half, "carry",
        "the top data limb of any x < p must stay below 2^21 so "
        "balancing never carries past the first guard row",
    )
    trk.hit(
        "geom/cadence-within-certified", cadence,
        certified_safe_clean_every(limb_bits, geom.lg) + 1, "structure",
        "the configured clean cadence must not exceed the certified "
        "safe bound for this limb geometry",
    )
    _simulate_sweep(limb_bits, geom.lg, geom.ld, geom.top_data_max,
                    cadence, trk, geom=geom)
    return KernelCertificate(
        family="numpy-limb",
        modulus_name=name,
        modulus_bits=geom.bits,
        params={
            "limb_bits": limb_bits,
            "ld": geom.ld,
            "lg": geom.lg,
            "clean_every": cadence,
            "configured_clean_every": geom.clean_every,
            "safe_clean_every": certified_safe_clean_every(limb_bits,
                                                           geom.lg),
            "sweep_passes": max(MIN_SWEEP_PASSES, 4 * cadence + 4),
        },
        checks=trk.checks(),
    )


# -- safe cadence (single source of truth for the runtime guard) ---------------


def _sweep_is_safe(limb_bits: int, lg: int, cadence: int) -> bool:
    """True when a worst-case sweep with this cadence records no
    violation, using modulus-independent conservative row caps (any
    modulus with this lg is dominated)."""
    trk = _Tracker()
    ld = lg - 2
    mask = (1 << limb_bits) - 1
    _simulate_sweep(limb_bits, lg, ld, mask, cadence, trk)
    return trk.ok


@lru_cache(maxsize=None)
def certified_safe_clean_every(limb_bits: int, lg: int) -> int:
    """Largest clean cadence the sweep model certifies for this limb
    geometry. ``numpy_limb._Geometry`` asserts its configured cadence
    against this at construction time — the certifier is the single
    source of truth for the bound."""
    if not _sweep_is_safe(limb_bits, lg, 2):
        raise ValueError(
            f"limb geometry (limb_bits={limb_bits}, lg={lg}) is not "
            "certifiable at any clean cadence"
        )
    lo, hi = 2, 2
    while hi < 4096 and _sweep_is_safe(limb_bits, lg, hi * 2):
        hi *= 2
    lo = hi
    hi = min(hi * 2, 4096)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _sweep_is_safe(limb_bits, lg, mid):
            lo = mid
        else:
            hi = mid
    return lo


# -- DFP (base-2^52 Dekker two-product) ----------------------------------------


def certify_dfp(name: str, modulus: int) -> KernelCertificate:
    """Certify ``DfpMultiplier``: Veltkamp split widths, product range,
    and the |lo| error term of the two-product."""
    bits = modulus.bit_length()
    base_bits = 52
    n_limbs = (bits + base_bits - 1) // base_bits
    limb_max = (1 << base_bits) - 1
    trk = _Tracker()
    trk.hit(
        "dfp/limb", limb_max, F53, "float53",
        "base-2^52 limbs must be exact-integer doubles",
    )
    trk.hit(
        "dfp/split-hi-sig", 26 + 26, 54, "structure",
        "Veltkamp hi halves carry <= 26 significant bits each, so "
        "a_hi * b_hi is exact",
    )
    trk.hit(
        "dfp/split-cross-sig", 27 + 26, 54, "structure",
        "lo halves carry <= 27 significant bits, so every cross "
        "partial product is exact",
    )
    trk.hit(
        "dfp/product", limb_max * limb_max, 1 << (2 * base_bits),
        "carry", "limb products span < 2^104, keeping ulp(hi) <= 2^51",
    )
    # hi = fl(a*b) is an integer multiple of ulp(hi); the remainder
    # lo = a*b - hi is an integer with |lo| <= ulp(hi)/2 <= 2^50.
    trk.hit(
        "dfp/lo-term", 1 << (2 * base_bits - 53), F53, "float53",
        "the two-product error term must itself be an exact-integer "
        "double",
    )
    trk.hit(
        "dfp/limb-count", n_limbs, (bits // base_bits) + 2, "structure",
        "ceil(bits/52) limbs cover the modulus",
    )
    witness_limb = limb_max
    return KernelCertificate(
        family="dfp",
        modulus_name=name,
        modulus_bits=bits,
        params={"base_bits": base_bits, "n_limbs": n_limbs},
        checks=trk.checks(),
        witnesses={
            "two_product": {
                "limb": witness_limb,
                "magnitude": witness_limb * witness_limb,
                "check": "dfp/product",
            }
        },
    )


# -- native CIOS (compiled 64-bit word kernels) --------------------------------


def certify_native_mont(name: str, modulus: int) -> KernelCertificate:
    """Certify the compiled CIOS Montgomery kernels
    (:mod:`repro.backend.native`): u128 accumulator range in both the
    multiply and reduction inner loops, the scratch-width gate, the
    pre-subtract bound that makes one conditional subtract canonical,
    and the canonicality invariants the raw-domain NTT butterflies
    (``mod_add_one``/``mod_sub_one`` on values < p, Montgomery twiddle
    rows < p) depend on.

    The model is exact integer arithmetic on worst-case word values —
    the C kernel's only representability ceilings are the 128-bit
    accumulator and the ``t[MAX_WORDS + 2]`` scratch array, so the
    checks are interval bounds over those two resources.
    """
    # Mirrors native.MAX_WORDS; the cross-check test asserts they agree.
    max_words = 32
    p = modulus
    bits = p.bit_length()
    w = (bits + 63) // 64
    R = 1 << (64 * w)
    M = (1 << 64) - 1  # worst-case 64-bit word
    trk = _Tracker()
    trk.hit(
        "cios/odd-modulus", 1 - (p & 1), 1, "structure",
        "n0inv = -N^-1 mod 2^64 exists only for odd moduli",
    )
    trk.hit(
        "cios/scratch-width", w, max_words - 1, "structure",
        "the loader gates word width at MAX_WORDS - 2 so the "
        "t[MAX_WORDS + 2] scratch always covers indices 0..w+1",
    )
    # Multiply phase: acc = ai*bp[j] + t[j] + carry, all words <= M.
    trk.hit(
        "cios/mul-accumulator", M * M + M + M, 1 << 128, "u128",
        "the multiply inner-loop accumulator must not wrap unsigned "
        "__int128",
    )
    # Reduction phase: acc = m*N[j] + t[j] + carry, m and N[j] <= M.
    trk.hit(
        "cios/reduce-accumulator", M * M + M + M, 1 << 128, "u128",
        "the reduction inner-loop accumulator must not wrap unsigned "
        "__int128",
    )
    # CIOS invariant: with a, b < p the pre-subtract value is
    # t = (a*b + m_total*N) / R for some m_total < R, so
    # t <= ((p-1)^2 + (R-1)*p) / R — strictly below 2p iff p < R.
    pre_sub = ((p - 1) ** 2 + (R - 1) * p) // R
    trk.hit(
        "cios/modulus-below-r", p, R, "carry",
        "p < R = 2^(64w) is what keeps the CIOS output below 2p",
    )
    trk.hit(
        "cios/pre-subtract", pre_sub, 2 * p, "carry",
        "one conditional subtract canonicalizes only if the raw CIOS "
        "output stays below 2p",
    )
    # t occupies at most w words plus one bit: 2p - 1 < 2^(64w + 1).
    trk.hit(
        "cios/extra-word", 2 * p - 1, 1 << (64 * w + 1), "carry",
        "the pre-subtract value must fit the w-word scratch plus the "
        "single overflow word t[w]",
    )
    # Butterfly add/sub operate on canonical inputs: the full sum
    # 2p - 2 fits w words + 1 carry bit and one conditional subtract
    # (or add of N after borrow) restores canonicality.
    trk.hit(
        "butterfly/addsub-range", 2 * p - 2, 2 * p, "carry",
        "mod_add_one/mod_sub_one require canonical inputs so a single "
        "conditional correction restores [0, p)",
    )
    # Montgomery twiddle rows, R^2 rows and power ladders are produced
    # by mont_mul_one, whose conditional subtract makes every output
    # canonical — the invariant that feeds the check above.
    trk.hit(
        "butterfly/twiddle-canonical", p - 1, p, "carry",
        "twiddle tables / constant rows are mont_mul_one outputs and "
        "therefore canonical in [0, p)",
    )
    return KernelCertificate(
        family="native-mont",
        modulus_name=name,
        modulus_bits=bits,
        params={
            "words": w,
            "max_words": max_words,
            "radix_bits": 64,
            "pre_subtract_bound": pre_sub,
        },
        checks=trk.checks(),
    )


# -- native Jacobian point kernels ---------------------------------------------

#: the paper's Jacobian formula mul counts (mirrors
#: ``CurveGroup.PDBL_FQ_MULS`` / ``PADD_FQ_MULS``; the cross-check test
#: asserts they agree so the parity checks below can stay import-free)
_PDBL_FQ_MULS = 7
_PADD_FQ_MULS = 16


class _MontReplay:
    """Montgomery-mul counter for the Jacobian kernels. Every value in
    a kernel is an abstract *canonical* residue: mont_mul_one returns
    canonical outputs whenever the CIOS pre-subtract bound holds, and
    mod_add_one / mod_sub_one are closed over canonical inputs — so
    replaying the op sequence both counts the muls and witnesses that
    no op ever sees a non-canonical operand."""

    def __init__(self) -> None:
        self.muls = 0

    def mul(self, *_args) -> str:
        self.muls += 1
        return "canonical"

    def add(self, *_args) -> str:
        return "canonical"

    sub = add


def _native_dbl_muls(a_is_zero: bool) -> int:
    """mont_mul count of ``jpt_fp_dbl``."""
    m = _MontReplay()
    x, y, z = "x_mont", "y_mont", "z_mont"
    ysq = m.mul(y, y)
    s = m.add(m.mul(x, ysq))  # 4xy^2 via two add-doublings
    mm = m.add(m.mul(x, x))  # 3x^2 via adds
    if not a_is_zero:
        t = m.mul(z, z)
        t = m.mul(t, t)
        mm = m.add(mm, m.mul(t, "a_mont"))
    x3 = m.sub(m.mul(mm, mm), s)
    m.sub(m.mul(mm, m.sub(s, x3)), m.mul(ysq, ysq))  # y3
    m.mul(y, z)  # z3 = 2yz
    return m.muls


def _native_add_muls() -> int:
    """mont_mul count of ``jpt_fp_add``."""
    m = _MontReplay()
    x1, y1, z1, x2, y2, z2 = "x1", "y1", "z1", "x2", "y2", "z2"
    z1q = m.mul(z1, z1)
    z2q = m.mul(z2, z2)
    u1 = m.mul(x1, z2q)
    u2 = m.mul(x2, z1q)
    s1 = m.mul(y1, m.mul(z2q, z2))
    s2 = m.mul(y2, m.mul(z1q, z1))
    h = m.sub(u2, u1)
    r = m.sub(s2, s1)
    hsq = m.mul(h, h)
    hcu = m.mul(hsq, h)
    u1h = m.mul(u1, hsq)
    x3 = m.sub(m.sub(m.mul(r, r), hcu), u1h)
    m.sub(m.mul(r, m.sub(u1h, x3)), m.mul(s1, hcu))  # y3
    m.mul(h, m.mul(z1, z2))  # z3
    return m.muls


def _native_merge_muls() -> Dict[str, int]:
    """mont_mul counts of one chord lane of ``merge_tree``: its combine
    (lam = num * inv, lam^2, lam * (x1 - x3)) and its leg of the round's
    shared batch inversion (the prefix product forward; the lane's
    inverse and the running inverse backward)."""
    m = _MontReplay()
    lam = m.mul("num", "inv")
    x3 = m.sub(m.sub(m.mul(lam, lam), "x1"), "x2")
    m.sub(m.mul(lam, m.sub("x1", x3)), "y1")  # y3
    combine = m.muls
    m = _MontReplay()
    m.mul("pref_prev", "den")  # forward: pref_k = pref_(k-1) * den_k
    m.mul("acc", "pref_prev")  # backward: inv_k = acc * pref_(k-1)
    m.mul("acc", "den")        # acc *= den_k
    return {"combine": combine, "inversion": m.muls}


def _karatsuba_base_muls() -> int:
    """Base-field mont_mul count of one ``fq2_mul_one`` (the tower's
    c0 fold is an add/sub when c0 == 1; the extra c0m mul is accounted
    in ``fq_mul_factor``, not here)."""
    m = _MontReplay()
    t0 = m.mul("a0", "b0")
    t2 = m.mul("a1", "b1")
    t1 = m.mul(m.add("a0", "a1"), m.add("b0", "b1"))
    m.sub(t0, t2)  # r0 (c0 == 1 fold)
    m.sub(m.sub(t1, t0), t2)  # r1
    return m.muls


def certify_native_jacobian(name: str, modulus: int) -> KernelCertificate:
    """Certify the point kernels of :mod:`repro.backend.native`:
    ``jpt_fp_dbl`` / ``jpt_fp_add`` and their Fq2 Karatsuba twins, the
    one doubling and one addition that the lane loops (``jac_dbl_*`` /
    ``jac_add_*``) and the sequential fold (``bucket_fold_*``) run on
    Montgomery rows, and the point-merging tree (``merge_*``).

    They compose exactly three primitives — ``mont_mul_one``,
    ``mod_add_one``, ``mod_sub_one`` — on ``[32]``-word scratch, so
    their safety reduces to the CIOS gates of
    :func:`certify_native_mont` plus three kernel-level invariants:
    (1) canonicality closure, every op's operands stay in [0, p) from
    the rows' ingress to their egress; (2) the in-C word compares
    (z == 0, y == 0, u1 == u2, s1 == s2) are exact special-case
    discriminants, because x -> x*R mod p is a bijection for odd p, so
    the routing and the padd/pdbl tallies are the scalar formulas';
    (3) the per-op Montgomery-mul counts equal the paper's formula
    constants, with no conversion mul on either side — the same
    constants the MSM engine's (k, M) search prices. The merge adds
    (4) a replay of one lane — 3 muls of combine, 3 of batch-inversion
    leg — and (5) the one field inversion per round, Fermat's a^(p-2):
    the inverse for every non-zero a when p is prime, and a is never
    zero — chord lanes have x1 != x2 and tangent lanes y1 != -y2 by
    their routing, so 2y1 != 0, and a lane that is neither stays out of
    the product (parked at one).
    """
    import math as _math

    max_words = 32  # mirrors native.MAX_WORDS (cross-check test)
    p = modulus
    bits = p.bit_length()
    w = (bits + 63) // 64
    R = 1 << (64 * w)
    M = (1 << 64) - 1
    trk = _Tracker()
    trk.hit(
        "odd-modulus", 1 - (p & 1), 1, "structure",
        "the kernels' mont_mul_one needs n0inv = -N^-1 mod 2^64, which "
        "exists only for odd moduli",
    )
    trk.hit(
        "scratch-width", w, max_words - 1, "structure",
        "the jpt structs are [32]-word coordinates like every other "
        "kernel scratch; the loader gates word width at MAX_WORDS - 2",
    )
    trk.hit(
        "mul-accumulator", M * M + M + M, 1 << 128, "u128",
        "the shared CIOS multiply accumulator must not wrap unsigned "
        "__int128",
    )
    trk.hit(
        "reduce-accumulator", M * M + M + M, 1 << 128, "u128",
        "the shared CIOS reduction accumulator must not wrap unsigned "
        "__int128",
    )
    pre_sub = ((p - 1) ** 2 + (R - 1) * p) // R
    trk.hit(
        "pre-subtract", pre_sub, 2 * p, "carry",
        "mont_mul_one's conditional subtract canonicalizes only if the "
        "raw CIOS output stays below 2p — the fact the closure check "
        "rests on",
    )
    trk.hit(
        "mont-closure", p - 1, p, "carry",
        "point rows enter as mont_mul_one outputs (canonical) and every "
        "kernel op (mont mul / canonical add / canonical sub) maps "
        "[0, p) to [0, p), so the in-C z == 0, y == 0, u1 == u2 and "
        "s1 == s2 word compares see one representative per field value",
    )
    trk.hit(
        "discriminant-exact", _math.gcd(R % p, p) - 1 if p > 1
        else 1, 1, "structure",
        "x -> x*R mod p must be a bijection (gcd(R, p) = 1) so the "
        "in-C equality tests on Montgomery words decide exactly the "
        "scalar formulas' u1 == u2 / s1 == s2 / z == 0 branches — the "
        "padd/pdbl tallies are the scalar loop's, never a guess",
    )
    dbl_a0 = _native_dbl_muls(a_is_zero=True)
    dbl_a = _native_dbl_muls(a_is_zero=False)
    add_c = _native_add_muls()
    trk.hit(
        "add-mul-parity", abs(add_c - _PADD_FQ_MULS), 1, "structure",
        "jadd must spend exactly the formula's 16 muls: no conversion",
    )
    trk.hit(
        "dbl-mul-parity", abs(dbl_a0 - _PDBL_FQ_MULS), 1, "structure",
        "jdouble (a = 0) must spend exactly the formula's 7 muls: no "
        "conversion",
    )
    trk.hit(
        "dbl-a-mul-parity", abs(dbl_a - (_PDBL_FQ_MULS + 3)), 1,
        "structure",
        "jdouble (a != 0) adds exactly the z^4 * a term's 3 muls",
    )
    trk.hit(
        "karatsuba-muls", abs(_karatsuba_base_muls() - 3), 1,
        "structure",
        "each Fq2 product must cost exactly 3 base-field muls "
        "(Karatsuba), the ratio the G2 fq_mul_factor prices",
    )
    merge_muls = _native_merge_muls()
    trk.hit(
        "merge-combine-muls", abs(merge_muls["combine"] - 3), 1,
        "structure",
        "a merge lane's combine is lam = num * inv, lam^2 and "
        "lam * (x1 - x3): 3 muls on canonical residues",
    )
    trk.hit(
        "merge-inversion-muls", abs(merge_muls["inversion"] - 3), 1,
        "structure",
        "a lane's leg of the round's shared batch inversion is 3 muls "
        "(prefix product, its inverse, the running inverse)",
    )
    trk.hit(
        "merge-fermat-exponent", p - 2 if p > 2 else R, R, "carry",
        "fp_inv raises to p - 2, derived in C from N into w words: it "
        "must be positive and fit them",
    )
    trk.hit(
        "merge-fermat-prime",
        0 if p > 7 and all(pow(b, p - 1, p) == 1 for b in (2, 3, 5, 7))
        else 1, 1, "structure",
        "a^(p-2) is 1/a for every non-zero a only when p is prime "
        "(Fermat witnesses b^(p-1) == 1, b = 2, 3, 5, 7); the merge "
        "feeds it only non-zero products, dead lanes being parked at "
        "one",
    )
    return KernelCertificate(
        family="native-jacobian",
        modulus_name=name,
        modulus_bits=bits,
        params={
            "words": w,
            "max_words": max_words,
            "radix_bits": 64,
            "pre_subtract_bound": pre_sub,
            "native_muls": {"pdbl": dbl_a0, "pdbl_a": dbl_a, "padd": add_c},
            "karatsuba_base_muls": _karatsuba_base_muls(),
            "merge_muls": merge_muls,
        },
        checks=trk.checks(),
    )


# -- registry sweep ------------------------------------------------------------


def certify_modulus(name: str, modulus: int) -> List[KernelCertificate]:
    """All four family certificates for one modulus."""
    return [
        certify_dfp(name, modulus),
        certify_numpy_limb(name, modulus),
        certify_native_mont(name, modulus),
        certify_native_jacobian(name, modulus),
    ]


def certify_all() -> List[KernelCertificate]:
    """Certificates for every registered modulus (scalar and base
    fields of all three curves)."""
    from repro.ff.params import BASE_FIELDS, SCALAR_FIELDS

    certs: List[KernelCertificate] = []
    seen = set()
    for label, registry in (("Fr", SCALAR_FIELDS), ("Fq", BASE_FIELDS)):
        for curve, field in registry.items():
            if field.modulus in seen:
                continue
            seen.add(field.modulus)
            certs.extend(certify_modulus(f"{curve}.{label}",
                                         field.modulus))
    return certs
