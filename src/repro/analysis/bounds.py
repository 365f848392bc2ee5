"""Limb-bound certifier: worst-case magnitude propagation (GZKP §4.3).

The limb kernels are only correct while every intermediate stays
*exactly representable*: the CIOS kernels' u128 accumulators without
wrap-around, and their canonical-residue invariants intact. Those
claims live as comments in :mod:`repro.backend.native`; this module
turns them into machine-checked certificates.

The certifier is an interval/abstract interpreter over the kernels'
dataflow. Each kernel family is modelled as magnitude arithmetic on
worst-case values (pure Python ints — no float can round, no word can
wrap inside the certifier itself), and every step that the real kernel
performs in machine words records a :class:`~repro.analysis.
report.BoundCheck` into a tracker that keeps the worst case seen. Two
families are covered:

* ``native-mont`` — the compiled CIOS Montgomery kernels
  (:mod:`repro.backend.native`): u128 accumulator range, scratch
  width, and the canonicality invariants the raw-domain Stockham
  butterflies rest on.
* ``native-jacobian`` — the Montgomery-domain point kernels built on
  those CIOS primitives; :func:`certify_native_jacobian` lists its
  gates.
* ``native-pairing`` — the pairing's loops per pairing curve: on the
  optimal-ate curves the degree-d extension product and the line
  generator, replay and final exponentiation on it
  (:func:`certify_native_pairing` lists its gates), on MNT4753 the line
  generator and the Tate replay in Fq2 (:func:`certify_native_tate`).

This module depends only on the standard library and
:mod:`repro.analysis.report`; the field registry is imported lazily
inside :func:`certify_all`, and the kernel source and the guards in
front of the kernels (:mod:`repro.backend.native`, which loads nothing
when imported) inside the functions that read them.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.report import BoundCheck, KernelCertificate

__all__ = [
    "certify_native_mont",
    "certify_native_jacobian",
    "certify_native_pairing",
    "certify_native_tate",
    "certify_modulus",
    "certify_all",
]

# -- check tracker -------------------------------------------------------------


class _Tracker:
    """Keeps the worst bound seen per check name, in first-hit order."""

    def __init__(self) -> None:
        self._worst: Dict[str, BoundCheck] = {}
        self._order: List[str] = []

    def hit(self, name: str, bound: int, limit: int, kind: str,
            detail: str = "") -> None:
        cur = self._worst.get(name)
        if cur is None:
            self._order.append(name)
        if cur is None or bound > cur.bound:
            self._worst[name] = BoundCheck(name, int(bound), int(limit),
                                           kind, detail)

    def checks(self) -> List[BoundCheck]:
        return [self._worst[n] for n in self._order]


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
    """Field-mul count of ``jpt_dbl``."""
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
    """Field-mul count of ``jpt_add``."""
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
    """Field-mul counts of one chord lane of ``merge``: its combine
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


def _native_affine_muls() -> int:
    """Field-mul count of one live lane of ``to_affine``: its leg of the
    shared batch inversion (the prefix product forward; the lane's
    1/z and the running inverse backward), then z^-2, z^-3, x z^-2 and
    y z^-3."""
    m = _MontReplay()
    m.mul("pref_prev", "z")   # forward: pref_k = pref_(k-1) * z_k
    zinv = m.mul("acc", "pref_prev")  # backward: 1/z_k
    m.mul("acc", "z")         # acc *= z_k
    zinv2 = m.mul(zinv, zinv)
    zinv3 = m.mul(zinv2, zinv)
    m.mul("x", zinv2)
    m.mul("y", zinv3)
    return m.muls


def _karatsuba_base_muls() -> int:
    """Base-field mont_mul count of one ``fe_mul`` at d = 2,
    ``fq2_mul_one`` (the tower's
    c0 fold is an add/sub when c0 == 1; the extra c0m mul is accounted
    in ``fq_mul_factor``, not here)."""
    m = _MontReplay()
    t0 = m.mul("a0", "b0")
    t2 = m.mul("a1", "b1")
    t1 = m.mul(m.add("a0", "a1"), m.add("b0", "b1"))
    m.sub(t0, t2)  # r0 (c0 == 1 fold)
    m.sub(m.sub(t1, t0), t2)  # r1
    return m.muls


#: what the windowed sum (``windows``) may call: the certified point
#: bodies and the lane moves around them
_WINDOWS_CALLEES = frozenset({"jpt_set_inf", "jpt_load", "jpt_dbl",
                              "jpt_add", "jpt_store"})


def _foreign_callees(bodies, allowed) -> List[str]:
    """The functions the C bodies named in ``bodies`` call beyond
    ``allowed`` and one another, read from the kernel source itself; a
    body the source lacks is listed as ``<no NAME>``."""
    import re

    from repro.backend.native import _C_SOURCE

    code = re.sub(r"/\*.*?\*/", "", _C_SOURCE, flags=re.S)
    foreign = set()
    for name in bodies:
        body = re.search(rf"^(?:static\s+)?(?:void|int)\s+{name}\(.*?^}}",
                         code, flags=re.S | re.M)
        if body is None:
            foreign.add(f"<no {name}>")
            continue
        calls = set(re.findall(r"\b([A-Za-z_]\w*)\s*\(", body.group(0)))
        foreign |= calls - set(allowed) - set(bodies) - {
            "for", "if", "while", "switch", "return", "sizeof"}
    return sorted(foreign)


def _windows_unguarded_indices() -> int:
    """How many hostile index matrices the guard in front of the
    ``windows`` kernel (``native.window_index``, against a 4-row table)
    lets through: a negative entry, one past the table, a wrong dtype,
    a list, a wrong rank."""
    import numpy as np

    from repro.backend.native import window_index

    hostile = [np.array([[0, -1]], dtype=np.int64),
               np.array([[4, 0]], dtype=np.int64),
               np.array([[0, 1]], dtype=np.int32),
               np.array([[0, 1]], dtype=np.uint64),
               np.array([[0.0, 1.0]]),
               [[0, 1]],
               np.array([0, 1], dtype=np.int64),
               np.zeros((1, 1, 2), dtype=np.int64)]
    passed = 0
    for idx in hostile:
        try:
            window_index(idx, 4)
        except (ValueError, IndexError):
            continue
        passed += 1
    return passed


def certify_native_jacobian(name: str, modulus: int) -> KernelCertificate:
    """Certify the point kernels of :mod:`repro.backend.native`:
    ``jpt_dbl`` / ``jpt_add``, the one doubling and one addition that
    the lane loops (``jac_dbl`` / ``jac_add``), the sequential fold
    (``bucket_fold``) and the windowed sum (``windows``) run on
    Montgomery rows, the point-merging tree (``merge``) and the
    Jacobian -> affine normalisation (``to_affine``). Each is one body
    over the degree-d field ops
    ``fe_add`` / ``fe_sub`` / ``fe_mul`` (d = 1 over Fp, d = 2 over Fq2,
    where ``fe_mul`` is the 3-product Karatsuba), so one certificate
    covers G1 and G2.

    They compose exactly three primitives — ``mont_mul_one``,
    ``mod_add_one``, ``mod_sub_one`` — on ``[64]``-word scratch (d
    coefficients of at most ``MAX_WORDS`` words), so their safety
    reduces to the CIOS gates of :func:`certify_native_mont` plus three
    kernel-level invariants:
    (1) canonicality closure, every op's operands stay in [0, p) from
    the rows' ingress to their egress; (2) the in-C word compares
    (z == 0, y == 0, u1 == u2, s1 == s2) are exact special-case
    discriminants, because x -> x*R mod p is a bijection for odd p, so
    the routing and the padd/pdbl tallies are the scalar formulas';
    (3) the per-op Montgomery-mul counts equal the paper's formula
    constants, with no conversion mul on either side — the same
    constants the MSM engine's (k, M) search prices. The merge adds
    (4) a replay of one lane — 3 muls of combine, 3 of batch-inversion
    leg — and ``to_affine`` one of its live lane — 7 muls; both end in
    (5) one field inversion per call or round, ``fe_inv``, Fermat's
    a^(p-2) (over Fq2 applied to the norm, non-zero for a non-zero
    element): the inverse for every non-zero a when p is prime, and a
    is never zero — chord lanes have x1 != x2 and tangent lanes
    y1 != -y2 by their routing, so 2y1 != 0, a merge lane that is
    neither stays out of the product, and so does a z = 0 lane of
    ``to_affine``. The windowed sum adds (6) no new primitive: its C
    body calls ``jpt_dbl`` and ``jpt_add`` and moves lanes, nothing
    else (read from the source), so (1)–(3) cover it; and (7) it reads
    the table only at rows an index names, every index checked against
    the table's row count before the call — the guard refuses every
    hostile index matrix it is shown.
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
        "the jpt struct's and the field ops' [64]-word coordinates hold "
        "two coefficients of MAX_WORDS words; the loader gates word "
        "width at MAX_WORDS - 2",
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
    affine_muls = _native_affine_muls()
    trk.hit(
        "affine-muls", abs(affine_muls - 7), 1, "structure",
        "a live to_affine lane is 7 muls: 1 prefix product, 2 of the "
        "backward leg, z^-2, z^-3, x z^-2 and y z^-3",
    )
    trk.hit(
        "merge-fermat-exponent", p - 2 if p > 2 else R, R, "carry",
        "fp_inv (the merge's and to_affine's fe_inv) raises to p - 2, "
        "derived in C from N into w words: it must be positive and fit "
        "them",
    )
    trk.hit(
        "merge-fermat-prime",
        0 if p > 7 and all(pow(b, p - 1, p) == 1 for b in (2, 3, 5, 7))
        else 1, 1, "structure",
        "a^(p-2) is 1/a for every non-zero a only when p is prime "
        "(Fermat witnesses b^(p-1) == 1, b = 2, 3, 5, 7); the merge "
        "and to_affine feed it only non-zero products, dead and z = 0 "
        "lanes staying out of them",
    )
    foreign = _foreign_callees(("windows",), _WINDOWS_CALLEES)
    trk.hit(
        "windows-no-new-primitive", len(foreign), 1, "structure",
        "the windowed sum composes jpt_dbl and jpt_add only, so the "
        "gates above cover its arithmetic; it also calls: "
        + (", ".join(foreign) or "nothing else"),
    )
    trk.hit(
        "windows-index-bound", _windows_unguarded_indices(), 1,
        "structure",
        "the windowed sum reads table[idx] with no bound of its own; "
        "window_index must refuse, before any pointer crosses, every "
        "index outside [0, rows) and every matrix that is not an "
        "(n, windows) int64 array",
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
            "affine_muls": affine_muls,
        },
        checks=trk.checks(),
    )


# -- the pairing over the extension product -----------------------------------

#: the extension body: its product, square, reduction, fold and linear
#: map call the Montgomery helpers and the word moves, nothing else
_EXT_BODIES = ("ext_fold", "ext_reduce", "ext_mul", "ext_sqr", "ext_map")
_EXT_CALLEES = frozenset({"mont_mul_one", "mod_add_one", "mont_mul_wide",
                          "mont_redc", "words_zero", "words_copy"})
#: the line generator, shared by every engine: a walk of the certified
#: point bodies jpt_dbl / jpt_add, normalised by the one fe_inv of its
#: batch inversion; it may call those, the degree-d field ops and the
#: word moves
_LINE_LOOPS = ("fe_batch_inv", "miller_lines")
_LINE_CALLEES = frozenset({"fe_sub", "fe_mul", "fe_inv", "jpt_dbl",
                           "jpt_add", "mod_sub_one", "words_zero",
                           "words_copy"})
#: the replays (and the optimal-ate final exponentiation) multiply
#: lines into f: the degree-d field ops, the Montgomery helpers and the
#: word moves, the optimal-ate ones the extension body too; no point
#: body and no inversion
_REPLAY_CALLEES = frozenset({"fe_sub", "fe_mul", "mont_mul_one",
                             "mod_sub_one", "words_zero", "words_copy"})
_PAIRING_REPLAY_CALLEES = _REPLAY_CALLEES | _EXT_CALLEES | set(_EXT_BODIES)


def _loops_foreign(replays, replay_callees) -> List[str]:
    """What the line generator calls beyond :data:`_LINE_CALLEES`, and
    what the ``replays`` call beyond ``replay_callees``."""
    return sorted(set(_foreign_callees(_LINE_LOOPS, _LINE_CALLEES))
                  | set(_foreign_callees(replays, replay_callees)))


def _pairing_unguarded() -> int:
    """How many hostile arguments the guards in front of the pairing
    kernels (``NativeField._pairing_degree`` / ``_pairing_chain`` /
    ``_pairing_bytes`` / ``_pairing_loops``) let through: an extension
    of degree 0 or 13, a hard chain that starts at entry 0, names entry
    16, is empty, has the wrong dtype or is a list, a step schedule
    naming kind 4, a Tate (or psi-less) schedule naming kind 2, and
    stacked line tables of 4w-word rows, of one step too few, or with
    flags of the wrong dtype."""
    import numpy as np

    from repro.backend.native import NativeField as nf

    w, ns = 4, 3
    field = nf(None, (1 << 255) - 19, w)
    tables = np.zeros((1, ns, 6 * w), dtype=np.uint64)
    verts = np.zeros((1, ns), dtype=np.uint8)
    g1 = np.zeros((2, w), dtype=np.uint64)
    hostile = [
        (nf._pairing_degree, np.zeros((13, 4), dtype=np.uint64)),
        (nf._pairing_degree, np.zeros((0, 4), dtype=np.uint64)),
        (nf._pairing_chain, np.array([0, 1], dtype=np.uint8)),
        (nf._pairing_chain, np.array([1, 16], dtype=np.uint8)),
        (nf._pairing_chain, np.array([], dtype=np.uint8)),
        (nf._pairing_chain, np.array([1, 2], dtype=np.int64)),
        (nf._pairing_chain, [1, 2]),
        (lambda s: nf._pairing_bytes(s, 4, "a step schedule"),
         np.array([0, 4], dtype=np.uint8)),
        (lambda s: nf._pairing_bytes(s, 2, "a Tate step schedule"),
         np.array([0, 2], dtype=np.uint8)),
        (lambda t: field._pairing_loops(t, verts, g1, ns),
         np.zeros((1, ns, 4 * w), dtype=np.uint64)),
        (lambda t: field._pairing_loops(t, verts, g1, ns + 1), tables),
        (lambda v: field._pairing_loops(tables, v, g1, ns),
         verts.astype(np.int8)),
    ]
    passed = 0
    for guard, arg in hostile:
        try:
            guard(arg)
        except ValueError:
            continue
        passed += 1
    return passed


def ext_lazy_headroom(modulus: int, degree: int):
    """``(bound, limit)`` of the extension product's unreduced slot: at
    most ``degree`` products of canonical residues, plus the m N 2^(64i)
    that ``mont_redc``'s w rounds add (below R N), against the
    accumulator's 2w + 1 words. The fold constants enter only after the
    reduction, through ``mont_mul_one``, so they add nothing here."""
    w = (modulus.bit_length() + 63) // 64
    R = 1 << (64 * w)
    return (degree * (modulus - 1) ** 2 + (R - 1) * modulus,
            1 << (64 * (2 * w + 1)))


def _schedule_gate(trk: _Tracker, engine, g2_point, doubling: str) -> None:
    """``schedule-is-the-generator``: the engine's step schedule (0 a
    doubling) against the kinds of its python line generator's steps
    over ``g2_point`` (``doubling`` the kind of a doubling step)."""
    sched = engine._schedule
    kinds = [step[0] for step in engine._lines(g2_point)]
    trk.hit(
        "schedule-is-the-generator",
        abs(len(kinds) - len(sched))
        + sum((kind == doubling) != (step == 0)
              for kind, step in zip(kinds, sched)), 1, "structure",
        "a multi-Miller replay is the product of its loops only if "
        "every loop squares at the same steps, and the line generator "
        "walks the python generator's points only if it doubles and "
        "adds where it does: the schedule must be the generator's "
        "doubling/addition sequence",
    )


def certify_native_pairing(name: str, engine, g2_point) -> KernelCertificate:
    """Certify the pairing kernels of :mod:`repro.backend.native` for
    one optimal-ate engine (:class:`~repro.curves.pairing.PairingEngine`;
    ``g2_point`` a G2 point its python line generator is run on):

    (1) ``ext-no-new-primitive`` — the extension body (``ext_mul``,
    ``ext_sqr``, ``ext_reduce``, ``ext_fold``, ``ext_map``) calls the
    Montgomery helpers — ``mont_mul_one``, ``mod_add_one`` and the lazy
    pair ``mont_mul_wide`` / ``mont_redc`` — and the word moves only
    (read from the source); (1b) ``ext-lazy-headroom`` — a product slot
    sums at most d unreduced products of canonical residues, and with
    what the reduction's rounds add it stays inside the 2w + 1
    accumulator words (:func:`ext_lazy_headroom`), so ``mont_redc``
    returns T R^-1 mod p, canonical after its subtractions, and the
    ``native-mont`` gates cover the rest; (2) ``loops-no-new-primitive``
    — the line generator (``miller_lines`` with its ``fe_batch_inv``)
    walks the point bodies ``jpt_dbl`` / ``jpt_add`` the point kernels
    are certified on and normalises with one ``fe_inv``; the replay
    (``miller_replay``) and ``final_exp`` call the extension body, the
    degree-d field ops and the Montgomery helpers, and no point body or
    inversion; all of them the word moves only; (3) ``ext-degree`` and
    ``ext-scratch-width`` — d <= 12 coefficients fit the loops'
    ``[12 * 32]`` element buffers and a product's 2d - 1 accumulators
    its ``acc[23 * 65]`` scratch; (4)
    ``schedule-is-the-generator`` — the engine's step schedule, which
    every loop of a multi-Miller replay shares, is the python line
    generator's sequence of doubling and addition steps, step for step;
    (5) ``hard-chain-is-h`` — run on exponent vectors, the hard chain
    raises m, m^q, m^(q^2), m^(q^3) to exactly the base-q digits of
    h = (q^4 - q^2 + 1)/r; (6) ``pairing-guards`` — the guards in
    front of the kernels refuse every hostile degree, chain and
    schedule they are shown.
    """
    q = engine.params.fq2.base.modulus
    r = engine.params.curve_order
    d = engine.fq12.degree
    w = (q.bit_length() + 63) // 64
    sched, chain = engine._schedule, engine._hard_chain
    trk = _Tracker()
    foreign = _foreign_callees(_EXT_BODIES, _EXT_CALLEES)
    trk.hit(
        "ext-no-new-primitive", len(foreign), 1, "structure",
        "the extension product, square, reduction, fold and map "
        "compose the Montgomery helpers only; they also call: "
        + (", ".join(foreign) or "nothing else"),
    )
    foreign = _loops_foreign(("miller_replay", "final_exp"),
                             _PAIRING_REPLAY_CALLEES)
    bound, limit = ext_lazy_headroom(q, d)
    trk.hit(
        "ext-lazy-headroom", bound, limit, "carry",
        "a product slot's d unreduced products plus mont_redc's m N "
        "must fit the (2w + 1)-word accumulator",
    )
    trk.hit(
        "loops-no-new-primitive", len(foreign), 1, "structure",
        "the line generator, the multi-Miller replay and the final "
        "exponentiation compose the extension body and the certified "
        "fe_* ops only; they also call: "
        + (", ".join(foreign) or "nothing else"),
    )
    trk.hit(
        "ext-degree", d, 13, "structure",
        "an extension element must fit the loops' [12 * 32]-word "
        "buffers: d <= 12 coefficients of at most MAX_WORDS words",
    )
    trk.hit(
        "ext-scratch-width", (2 * d - 1) * (2 * w + 1), 23 * 65 + 1,
        "structure",
        "an extension product's 2d - 1 accumulators of 2w + 1 words must "
        "fit its acc[23 * 65] scratch (and so its 2d - 1 reduced slots "
        "the prod[23 * 32] one)",
    )
    _schedule_gate(trk, engine, g2_point, "sm")
    hard = (q ** 4 - q ** 2 + 1) // r
    exps = [0] * 4
    for t, index in enumerate(chain):
        exps = [(e << (t > 0)) + (index >> k & 1)
                for k, e in enumerate(exps)]
    trk.hit(
        "hard-chain-is-h",
        sum(e != hard // q ** k % q for k, e in enumerate(exps))
        + (not chain or not chain[0]), 1, "structure",
        "the hard part's chain must raise m^(q^k) to the k-th base-q "
        "digit of (q^4 - q^2 + 1)/r, starting at a table entry that "
        "is not 0",
    )
    trk.hit(
        "pairing-guards", _pairing_unguarded(), 1, "structure",
        "the kernels index their table by the chain, size their scratch "
        "by the degree and branch on the schedule with no bound of their "
        "own; the guards must refuse every hostile value first",
    )
    return KernelCertificate(
        family="native-pairing",
        modulus_name=name,
        modulus_bits=q.bit_length(),
        params={
            "words": w,
            "degree": d,
            "fold_terms": sum(1 for c in engine.fq12.modulus_coeffs if c),
            "ext_mul_products": d * d,
            "ext_sqr_products": d * (d + 1) // 2,
            "schedule_steps": len(sched),
            "chain_length": len(chain),
        },
        checks=trk.checks(),
    )


def certify_native_tate(name: str, engine, g2_point) -> KernelCertificate:
    """Certify the pairing kernels of :mod:`repro.backend.native` for
    the MNT4753 Tate engine (:class:`~repro.curves.tate.MntTatePairing`;
    ``g2_point`` a G2 point its python line generator is run on), in
    the ``native-pairing`` family:

    (1) ``loops-no-new-primitive`` — the line generator (``miller_lines``
    with its ``fe_batch_inv``) calls the degree-d field ops and the
    point bodies ``jpt_dbl`` / ``jpt_add`` the ``native-jacobian``
    certificate of the same base field covers, and the Tate replay
    (``tate_replay``) the field ops and the Montgomery helpers, no point
    body or inversion; both the word moves only (read from the source)
    — the batch inversion's one ``fe_inv`` sees only non-zero z's, a
    zero lane staying out of its product;
    (2) ``fq2-scratch-width`` — an Fq2 value, 2w words, fits the loops'
    ``[64]``-word buffers and the ``jpt`` struct's coordinates, and a
    base-field value the replay's ``[32]``-word zero row; (3)
    ``schedule-is-the-generator`` — the schedule, one doubling per bit
    of r after the first and an addition per set bit, is the python
    line generator's sequence; (4) ``pairing-guards`` — as for the
    optimal-ate engines, the Tate schedule and the stacked tables'
    row width included.
    """
    q = engine.q
    w = (q.bit_length() + 63) // 64
    trk = _Tracker()
    foreign = _loops_foreign(("tate_replay",), _REPLAY_CALLEES)
    trk.hit(
        "loops-no-new-primitive", len(foreign), 1, "structure",
        "the line generator, its batch inversion and the Tate replay "
        "compose the certified fe_* ops and point bodies only; they also "
        "call: " + (", ".join(foreign) or "nothing else"),
    )
    trk.hit(
        "fq2-scratch-width", 2 * w, 65, "structure",
        "an Fq2 value's 2w words must fit the loops' [64]-word buffers "
        "and jpt coordinates (and so a base-field value the [32]-word "
        "zero row)",
    )
    _schedule_gate(trk, engine, g2_point, "d")
    trk.hit(
        "pairing-guards", _pairing_unguarded(), 1, "structure",
        "the kernels branch on the schedule and step through the tables "
        "by the loop count with no bound of their own; the guards must "
        "refuse every hostile value first",
    )
    return KernelCertificate(
        family="native-pairing",
        modulus_name=name,
        modulus_bits=q.bit_length(),
        params={
            "words": w,
            "degree": 2,
            "schedule_steps": len(engine._schedule),
            "additions": sum(engine._schedule),
        },
        checks=trk.checks(),
    )


# -- registry sweep ------------------------------------------------------------


def certify_modulus(name: str, modulus: int) -> List[KernelCertificate]:
    """Both family certificates for one modulus."""
    return [
        certify_native_mont(name, modulus),
        certify_native_jacobian(name, modulus),
    ]


def certify_all() -> List[KernelCertificate]:
    """Certificates for every registered modulus (scalar and base
    fields of all three curves), then the pairing kernels' for the two
    optimal-ate curves and for MNT4753's Tate engine."""
    from repro.curves import (bls12_381_g2, bls12_381_pairing, bn128_g2,
                              bn128_pairing, mnt4753_g2_ready,
                              mnt4753_pairing)
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
    for engine, g2 in ((bn128_pairing(), bn128_g2),
                       (bls12_381_pairing(), bls12_381_g2)):
        certs.append(certify_native_pairing(f"{engine.name}.Fq12", engine,
                                            g2.generator))
    certs.append(certify_native_tate("MNT4753.Fq2", mnt4753_pairing(),
                                     mnt4753_g2_ready().generator))
    return certs
