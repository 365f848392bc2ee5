"""Native-kernel struct-of-arrays curve arithmetic for the MSM hot path.

Everything here drives the runtime-compiled C layer of
:mod:`repro.backend.native`; a group those kernels cannot serve
(``REPRO_NATIVE=0``, no compiler, over-wide modulus, a coordinate field
that is neither prime nor Fq2 = Fq[i]/(i^2 + c0)) gets ``None`` back
and :class:`~repro.backend.numpy_limb.NumpyLimbBackend` runs the
inherited scalar loop instead — there is no vectorized middle tier.
:func:`_native_engine` is the one place that decides which native field
serves a group.

* **Resident rows.** Points stay in word rows between calls, in two
  forms. :class:`ResidentPoints` is an affine row as the bucket tree
  reads it — one Montgomery ``(n, w)`` plane per coordinate coefficient
  plus a ``None`` mask; the MSM checkpoint table is a list of them,
  encoded once at setup. :class:`ResidentBuckets` is a Jacobian row as
  the fused point kernels read it — raw canonical x/y/z word rows, z = 0
  for infinity; sub-buckets, buckets and the preprocessing chain's
  temporaries. Both are immutable read-only ``Sequence``s that decode
  only what is read, so code that knows nothing about them still works.
  The int <-> row boundary is crossed in three places only:
  ``_PlaneLanes.load_points`` (affine ingress), the engines' ``rows``
  (Jacobian ingress) and ``vals`` (egress).

* **Batch Jacobian kernels** (:func:`batch_jdouble`, :func:`batch_jadd`,
  :func:`batch_jmixed_add`) run the *same* formulas as
  :class:`~repro.curves.weierstrass.CurveGroup` over bucket rows: raw
  canonical word rows go straight into fused Jacobian kernels
  (Montgomery encode -> formula -> decode all in-kernel, G1 prime-field
  lanes and G2 Fq2 Karatsuba lanes), which return bit-identical
  coordinates plus the Montgomery h/r planes whose zero tests route the
  special lanes. Special cases (infinity, P == Q -> double, P == -Q ->
  infinity) are resolved per lane with masks — rows are canonical, so
  z == 0 / y == 0 are free, and the h/r zero tests are exact because
  x -> x*R mod p is a bijection — keeping op-count parity exact. One
  implementation serves both representations: a python list is lifted
  through the rows' ingress and handed back through their egress.

* **Segmented bucket reduction** (:func:`_segmented_tree` behind
  :func:`accumulate_table_segmented` for a resident table's index
  vectors and :func:`accumulate_buckets_segmented` for python
  ``entries``) replaces the ordered per-entry fold of bucket
  accumulation with a sorted, log-depth tree of *batch-affine*
  additions: entries are stable-sorted by bucket index once, then each
  round pairs adjacent same-bucket lanes and combines every pair with a
  single shared Montgomery batch inversion (one field inversion per
  round, 6 muls per combine instead of the ~11 of a mixed Jacobian
  add). Field lanes are Montgomery-domain word rows (one plane for G1,
  two Karatsuba planes for Fq2). Bucket results are group-equal to the
  scalar fold's ((x, y, 1) Jacobian representatives) and PADD/PDBL
  totals match the scalar schedule — see
  :meth:`repro.backend.base.ComputeBackend.accumulate_buckets` for the
  exact contract.

* **Bucket fold** (:func:`bucket_reduce`): the ordered running-suffix
  fold as one sequential C call that routes its own special cases and
  returns its own tallies.
"""

from __future__ import annotations

from collections.abc import Sequence as _Sequence
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backend import coverage as _coverage
from repro.backend.native import get_native_field
from repro.curves.fieldops import ExtFieldOps, IntFieldOps

try:  # keep importable without numpy (mirrors numpy_limb)
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

__all__ = [
    "MIN_VECTOR_LANES",
    "SEGMENTED_MIN_ENTRIES",
    "ResidentPoints",
    "ResidentBuckets",
    "native_point_op_muls",
    "vectorizes",
    "resident_points",
    "batch_to_jacobian",
    "batch_from_jacobian",
    "batch_jdouble",
    "batch_jadd",
    "batch_jmixed_add",
    "accumulate_buckets_segmented",
    "accumulate_table_segmented",
    "bucket_reduce",
]

#: below this many lanes the per-call ingress/egress overhead outweighs
#: any batching win; callers fall back to the scalar loop
MIN_VECTOR_LANES = 16

#: below this many entries the sorted tree's setup costs more than the
#: scalar fold it replaces
SEGMENTED_MIN_ENTRIES = 64


def _native_engine(group, prime_cls, fq2_cls):
    """The one "which native field serves this group" rule: prime-field
    coordinates run over their own modulus, Fq2 = Fq[i]/(i^2 + c0)
    lanes over the base field's; anything else — or no loaded kernels
    for that modulus (``get_native_field`` is None without a compiler,
    numpy or under ``REPRO_NATIVE=0``) — has no native engine."""
    o = group.ops
    if isinstance(o, IntFieldOps):
        cls, modulus = prime_cls, o.field.modulus
    elif (isinstance(o, ExtFieldOps) and o.field.degree == 2
          and o.field.modulus_coeffs[1] == 0):
        cls, modulus = fq2_cls, o.field.base.modulus
    else:
        return None
    nf = get_native_field(modulus)
    return None if nf is None else cls(group, nf)


# -- resident rows -------------------------------------------------------------


class _ResidentRow(_Sequence):
    """What the two resident forms share: a read-only ``Sequence`` over
    word rows. ``len`` is free, a slice is another row over views of the
    same planes, and reading an element, iterating or comparing decodes
    exactly what is read — never into a cache, since a decoded copy
    kept beside the rows would be the python table the rows replace.
    Rows are marked read-only and no op writes into an operand, so
    aliased operands and handing an operand back unchanged are safe."""

    __slots__ = ()
    __hash__ = None

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._take(index)
        return self._item(range(len(self))[index])

    def _item(self, i: int):
        return self._take(slice(i, i + 1)).tolist()[0]

    def __iter__(self):
        return iter(self.tolist())

    def __eq__(self, other):
        if isinstance(other, (list, tuple, _ResidentRow)):
            return self.tolist() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.eng.group.name} n={len(self)}>"


class ResidentPoints(_ResidentRow):
    """A row of affine points as the bucket tree reads them: one
    ``(n, w)`` plane of canonical Montgomery residues per coordinate
    coefficient (``X``/``Y`` are 1-tuples for G1, 2-tuples for Fq2)
    plus a mask for the ``None`` lanes. The checkpoint table is made of
    these; it is public proving-key data and may live on a context."""

    __slots__ = ("eng", "X", "Y", "inf")

    def __init__(self, eng, X, Y, inf):
        for plane in (*X, *Y, inf):
            plane.flags.writeable = False
        self.eng, self.X, self.Y, self.inf = eng, X, Y, inf

    def __len__(self) -> int:
        return self.inf.shape[0]

    def _take(self, sl):
        return ResidentPoints(self.eng, tuple(pl[sl] for pl in self.X),
                              tuple(pl[sl] for pl in self.Y), self.inf[sl])

    def _item(self, i: int):
        if self.inf[i]:
            return None
        # one point: two python Montgomery reductions beat a kernel call
        nf, o = self.eng.nf, self.eng.group.ops
        return (o.from_coeffs(tuple(nf.decode_one(pl[i]) for pl in self.X)),
                o.from_coeffs(tuple(nf.decode_one(pl[i]) for pl in self.Y)))

    def tolist(self) -> List:
        pts = self.eng.decode(self.X, self.Y)
        for i in _np.flatnonzero(self.inf):
            pts[i] = None
        return pts


class ResidentBuckets(_ResidentRow):
    """A row of Jacobian points as the fused point kernels read them:
    raw canonical word rows ``x``/``y``/``z`` — ``(n, w)`` for G1,
    packed ``(n, 2w)`` for Fq2 — with z = 0 marking infinity.
    Sub-buckets, buckets and the preprocessing chain's temporaries are
    these; bucket contents are witness-derived, so a row lives exactly
    as long as the call that made it and is never cached."""

    __slots__ = ("eng", "x", "y", "z")

    def __init__(self, eng, x, y, z):
        for plane in (x, y, z):
            plane.flags.writeable = False
        self.eng, self.x, self.y, self.z = eng, x, y, z

    def __len__(self) -> int:
        return self.z.shape[0]

    def _take(self, index):
        return ResidentBuckets(self.eng, self.x[index], self.y[index],
                               self.z[index])

    def tolist(self) -> List:
        vals = self.eng.vals
        return list(zip(vals(self.x), vals(self.y), vals(self.z)))


# -- native Jacobian engines (raw rows in, raw rows out) -----------------------


class _JacNativeG1:
    """Prime-field Jacobian lanes over the fused native kernels: raw
    canonical word rows in, raw canonical rows out. Montgomery
    encode/decode happens *inside* the C point kernels; the add
    variants also return the h/r zero masks for the caller's
    special-lane routing. ``rows``/``vals`` are the int <-> row ingress
    and egress of :class:`ResidentBuckets`."""

    def __init__(self, group, nf):
        self.group = group
        self.nf = nf
        consts = group.formula_constants()
        self._a_row = (None if consts["a_is_zero"]
                       else nf.encode_const(consts["a"]))

    def rows(self, vals):
        return self.nf.words_from_ints(vals)

    def vals(self, arr):
        return self.nf.ints_from_words(arr)

    def is_zero(self, arr):
        return self.nf.is_zero(arr)

    def tile(self, value: int, n: int):
        """n raw rows of the field's 0 or 1."""
        arr = _np.zeros((n, self.nf.w), dtype="<u8")
        arr[:, 0] = value
        return arr

    def mont(self, arr):
        """Raw rows -> the tree's Montgomery planes."""
        return (self.nf.to_mont(arr),)

    def raw(self, planes):
        """The tree's Montgomery planes -> raw rows."""
        return self.nf.from_mont(planes[0])

    def jdouble(self, x, y, z):
        return self.nf.jac_dbl(x, y, z, self._a_row)

    def jadd(self, x1, y1, z1, x2, y2, z2):
        nf = self.nf
        ox, oy, oz, oh, orr = nf.jac_add(x1, y1, z1, x2, y2, z2)
        return ox, oy, oz, nf.is_zero(oh), nf.is_zero(orr)

    def jmadd(self, x1, y1, z1, x2, y2):
        nf = self.nf
        ox, oy, oz, oh, orr = nf.jac_madd(x1, y1, z1, x2, y2)
        return ox, oy, oz, nf.is_zero(oh), nf.is_zero(orr)

    def fold(self, x, y, z):
        """The sequential C bucket fold: raw bucket rows in, the raw
        ``(3, w)`` rows of the one Jacobian total and the fold's own
        padd/pdbl tallies out."""
        nf = self.nf
        out, n_padd, n_pdbl = nf.bucket_fold(
            nf.to_mont(x), nf.to_mont(y), nf.to_mont(z), self._a_row)
        return nf.from_mont(out), n_padd, n_pdbl


class _JacNativeFq2:
    """Fq2 = Fq[i]/(i^2 + c0) Jacobian lanes: packed (n, 2w) word rows
    ([c0 words | c1 words] per lane) through the Karatsuba fq2 kernels.
    Same raw-in/raw-out contract as :class:`_JacNativeG1`."""

    def __init__(self, group, nf):
        self.group = group
        self.nf = nf
        self.field = group.ops.field
        c0 = self.field.modulus_coeffs[0]
        self._c0_row = None if c0 == 1 else nf.encode_const(c0)
        consts = group.formula_constants()
        if consts["a_is_zero"]:
            self._a_row = None
        else:
            a0, a1 = consts["a"].coeffs
            self._a_row = _np.ascontiguousarray(
                _np.concatenate([nf.encode_const(a0), nf.encode_const(a1)]))

    def rows(self, vals):
        nf = self.nf
        return _np.ascontiguousarray(_np.concatenate(
            [nf.words_from_ints([v.coeffs[0] for v in vals]),
             nf.words_from_ints([v.coeffs[1] for v in vals])], axis=1))

    def vals(self, arr):
        nf, w = self.nf, self.nf.w
        c0s = nf.ints_from_words(_np.ascontiguousarray(arr[:, :w]))
        c1s = nf.ints_from_words(_np.ascontiguousarray(arr[:, w:]))
        element = self.field.element
        return [element([a, b]) for a, b in zip(c0s, c1s)]

    def is_zero(self, arr):
        return self.nf.is_zero(arr)

    def tile(self, value: int, n: int):
        arr = _np.zeros((n, 2 * self.nf.w), dtype="<u8")
        arr[:, 0] = value
        return arr

    def mont(self, arr):
        nf, w = self.nf, self.nf.w
        return nf.to_mont(arr[:, :w]), nf.to_mont(arr[:, w:])

    def raw(self, planes):
        nf = self.nf
        return _np.concatenate([nf.from_mont(planes[0]),
                                nf.from_mont(planes[1])], axis=1)

    def jdouble(self, x, y, z):
        return self.nf.jac2_dbl(x, y, z, self._a_row, self._c0_row)

    def jadd(self, x1, y1, z1, x2, y2, z2):
        nf = self.nf
        ox, oy, oz, oh, orr = nf.jac2_add(x1, y1, z1, x2, y2, z2,
                                          self._c0_row)
        return ox, oy, oz, nf.is_zero(oh), nf.is_zero(orr)

    def jmadd(self, x1, y1, z1, x2, y2):
        nf = self.nf
        ox, oy, oz, oh, orr = nf.jac2_madd(x1, y1, z1, x2, y2, self._c0_row)
        return ox, oy, oz, nf.is_zero(oh), nf.is_zero(orr)

    def fold(self, x, y, z):
        nf, w = self.nf, self.nf.w

        def halves(packed, convert):  # a packed (n, 2w) row is two w-rows
            flat = _np.ascontiguousarray(packed).reshape(-1, w)
            return convert(flat).reshape(packed.shape)

        out, n_padd, n_pdbl = nf.bucket_fold2(
            halves(x, nf.to_mont), halves(y, nf.to_mont),
            halves(z, nf.to_mont), self._a_row, self._c0_row)
        return halves(out, nf.from_mont), n_padd, n_pdbl


def _jac_engine(group):
    """The native Jacobian lane engine for this group, or None when
    the compiled kernels cannot serve it."""
    return _native_engine(group, _JacNativeG1, _JacNativeFq2)


def native_point_op_muls(group) -> Optional[Dict[str, int]]:
    """Base-field-mul cost per point op on the native Jacobian floor —
    the formula muls plus the fused encode/decode conversions each
    kernel performs — or None when this group cannot run native. The
    autotuner prices its (k, M) search with these so the knee reflects
    the kernels the pipeline actually runs; every (k, M) choice is
    bit-identity-preserving, so this shifts only throughput."""
    if _jac_engine(group) is None:
        return None
    consts = group.formula_constants()
    dbl_extra = 0 if consts["a_is_zero"] else 3  # z^2, (z^2)^2, *a
    return {
        # conversions: jdouble encodes 3 rows + decodes 3; jadd 6 + 3;
        # jmixed 5 + 3 (counting per coordinate row, Fq2 scales by the
        # engine's existing fq_mul_factor)
        "pdbl": consts["pdbl_fq_muls"] + dbl_extra + 6,
        "padd": consts["padd_fq_muls"] + 9,
        "pmixed": consts["pmixed_fq_muls"] + 8,
    }


# -- batch Jacobian kernels ----------------------------------------------------
#
# One implementation each, over bucket rows. A python list of Jacobian
# tuples is lifted through the rows' ingress and the result handed back
# through their egress; a resident operand keeps the result resident.


def _lift_buckets(eng, pts) -> ResidentBuckets:
    if isinstance(pts, ResidentBuckets):
        return pts
    return ResidentBuckets(eng, eng.rows([p[0] for p in pts]),
                           eng.rows([p[1] for p in pts]),
                           eng.rows([p[2] for p in pts]))


def _infinity_rows(eng, n: int):
    """n lanes of the scalar formulas' infinity, (1, 1, 0)."""
    return eng.tile(1, n), eng.tile(1, n), eng.tile(0, n)


def _book(group, n_padd: int, n_pdbl: int = 0) -> None:
    if n_padd:
        group._count("padd", n_padd)
    if n_pdbl:
        group._count("pdbl", n_pdbl)


def _jdouble_rows(group, eng, p: ResidentBuckets) -> ResidentBuckets:
    act = _np.flatnonzero(~(eng.is_zero(p.z) | eng.is_zero(p.y)))
    if act.size == len(p):
        out = eng.jdouble(p.x, p.y, p.z)
    else:
        out = _infinity_rows(eng, len(p))  # scalar early return: no counts
        if act.size:
            for dst, src in zip(out, eng.jdouble(p.x[act], p.y[act],
                                                 p.z[act])):
                dst[act] = src
    _book(group, int(act.size), int(act.size))  # scalar jdouble counts both
    return ResidentBuckets(eng, *out)


def _route_added(group, eng, p, out, idx, res, hz, rz) -> None:
    """Write the add/mixed-add kernel outputs ``res`` of lanes ``idx``
    into ``out``, routing the masked special lanes exactly like the
    scalar formulas: h == 0 and r == 0 is P == Q (the self-counting
    double), h == 0 alone is P == -Q (infinity, count-free); the normal
    lanes' padds are bulk-counted."""
    for dst, src in zip(out, res):
        dst[idx] = src
    if hz.any():
        cancel = idx[hz & ~rz]
        for dst, src in zip(out, _infinity_rows(eng, cancel.size)):
            dst[cancel] = src
        same = idx[hz & rz]
        if same.size:
            doubled = _jdouble_rows(group, eng, p._take(same))
            for dst, src in zip(out, (doubled.x, doubled.y, doubled.z)):
                dst[same] = src
    _book(group, int(hz.size - hz.sum()))


def _jadd_rows(group, eng, p: ResidentBuckets,
               q: ResidentBuckets) -> ResidentBuckets:
    pinf, qinf = eng.is_zero(p.z), eng.is_zero(q.z)
    # infinity + Q = Q and P + infinity = P, both count-free
    out = tuple(_np.where(pinf[:, None], b, a)
                for a, b in zip((p.x, p.y, p.z), (q.x, q.y, q.z)))
    idx = _np.flatnonzero(~(pinf | qinf))
    if idx.size:
        *res, hz, rz = eng.jadd(p.x[idx], p.y[idx], p.z[idx],
                                q.x[idx], q.y[idx], q.z[idx])
        _route_added(group, eng, p, out, idx, res, hz, rz)
    return ResidentBuckets(eng, *out)


def _jmadd_rows(group, eng, p: ResidentBuckets, qx, qy,
                qnone) -> ResidentBuckets:
    pinf = eng.is_zero(p.z)
    out = (_np.array(p.x), _np.array(p.y), _np.array(p.z))  # P + None = P
    lift = _np.flatnonzero(pinf & ~qnone)  # infinity + Q = to_jacobian(Q)
    if lift.size:
        for dst, src in zip(out, (qx[lift], qy[lift],
                                  eng.tile(1, lift.size))):
            dst[lift] = src
    idx = _np.flatnonzero(~(pinf | qnone))
    if idx.size:
        *res, hz, rz = eng.jmadd(p.x[idx], p.y[idx], p.z[idx],
                                 qx[idx], qy[idx])
        _route_added(group, eng, p, out, idx, res, hz, rz)
    return ResidentBuckets(eng, *out)


def vectorizes(*rows: Sequence) -> bool:
    """Whether a batch op over these rows leaves the scalar loop: a
    resident row always stays on the kernels, a python list once it
    clears ``MIN_VECTOR_LANES``."""
    return (len(rows[0]) >= MIN_VECTOR_LANES
            or any(isinstance(r, ResidentBuckets) for r in rows))


def _engine_or_note(group):
    """The Jacobian engine with the coverage tally noted either way."""
    eng = _jac_engine(group)
    _coverage.note("jacobian", "fallback" if eng is None else "native")
    return eng


def batch_jdouble(group, points: Sequence) -> Optional[Sequence]:
    """SoA doubling of every point; bit-identical to
    ``[group.jdouble(p) for p in points]`` including op counts. None
    (caller runs that scalar loop) when the group has no native
    engine."""
    eng = _engine_or_note(group)
    if eng is None:
        return None
    p = _lift_buckets(eng, points)
    out = _jdouble_rows(group, eng, p)
    return out if p is points else out.tolist()


def batch_jadd(group, ps: Sequence, qs: Sequence) -> Optional[Sequence]:
    """SoA pairwise Jacobian addition; bit-identical to the scalar
    loop (None without a native engine, as :func:`batch_jdouble`).
    Doubling lanes (u1 == u2, s1 == s2) go through the doubling kernel
    and are counted as the scalar ``jdouble`` counts itself."""
    eng = _engine_or_note(group)
    if eng is None:
        return None
    p, q = _lift_buckets(eng, ps), _lift_buckets(eng, qs)
    out = _jadd_rows(group, eng, p, q)
    return out if p is ps or q is qs else out.tolist()


def batch_jmixed_add(group, ps: Sequence, qs: Sequence) -> Optional[List]:
    """SoA pairwise Jacobian += affine addition over python lists;
    bit-identical to the scalar loop (same special-case routing and
    None contract as :func:`batch_jadd`)."""
    eng = _engine_or_note(group)
    if eng is None:
        return None
    zero = group.ops.zero
    qnone = _np.fromiter((q is None for q in qs), dtype=bool, count=len(qs))
    qx = eng.rows([zero if q is None else q[0] for q in qs])
    qy = eng.rows([zero if q is None else q[1] for q in qs])
    return _jmadd_rows(group, eng, _lift_buckets(eng, ps), qx, qy,
                       qnone).tolist()


def bucket_reduce(group, buckets: Sequence):
    """Bucket-reduction sum_j (j+1)*B_j in one call into the sequential
    C fold — ``running += B_j; total += running``, last bucket first,
    the formulas, operand order and special-case routing of
    :func:`repro.msm.pippenger.bucket_reduce` — booking the fold's own
    padd/pdbl tallies through ``group._count``. A python list is lifted
    through the bucket rows' ingress into the same kernel. None without
    a native engine."""
    eng = _engine_or_note(group)
    if eng is None:
        return None
    b = _lift_buckets(eng, buckets)
    raw, n_padd, n_pdbl = eng.fold(b.x, b.y, b.z)
    _book(group, n_padd, n_pdbl)
    x, y, z = eng.vals(raw)
    o = group.ops
    return (o.one, o.one, o.zero) if o.is_zero(z) else (x, y, z)


# -- affine <-> Jacobian over resident rows ------------------------------------


def resident_points(group, points: Sequence) -> Optional[ResidentPoints]:
    """Affine points (``None`` = infinity) -> a :class:`ResidentPoints`
    row, the table's one ingress; an already-resident row comes back as
    the same object. None without a native engine."""
    if isinstance(points, ResidentPoints):
        return points
    eng = _lane_engine(group)
    if eng is None:
        return None
    inf = _np.fromiter((p is None for p in points), dtype=bool,
                       count=len(points))
    if inf.any():
        zero = group.ops.zero
        points = [(zero, zero) if p is None else p for p in points]
    X, Y = eng.load_points(points)
    return ResidentPoints(eng, X, Y, inf)


def batch_to_jacobian(group, points: ResidentPoints
                      ) -> Optional[ResidentBuckets]:
    """``to_jacobian`` of a resident affine row as bucket rows (z = 1,
    or (1, 1, 0) on the ``None`` lanes)."""
    eng = _jac_engine(group)
    if eng is None:
        return None
    n = len(points)
    x, y, z = eng.raw(points.X), eng.raw(points.Y), eng.tile(1, n)
    dead = _np.flatnonzero(points.inf)
    if dead.size:
        for dst, src in zip((x, y, z), _infinity_rows(eng, dead.size)):
            dst[dead] = src
    return ResidentBuckets(eng, x, y, z)


def batch_from_jacobian(group, jps: ResidentBuckets
                        ) -> Optional[ResidentPoints]:
    """``from_jacobian`` of a bucket row as a resident affine row: one
    batch inversion of the z plane (a single field inversion) instead
    of one per point, then x/z^2 and y/z^3 on Montgomery planes."""
    eng = _lane_engine(group)
    if eng is None:
        return None
    inf = jps.eng.is_zero(jps.z)
    X, Y, Z = (jps.eng.mont(plane) for plane in (jps.x, jps.y, jps.z))
    dead = _np.flatnonzero(inf)
    if dead.size:  # park infinity lanes at one: every row must invert
        eng.set_rows(Z, dead, eng.ones(int(dead.size)))
    if len(jps):
        zinv = eng.invert(Z)
        zinv2 = eng.mul(zinv, zinv)
        X = eng.mul(X, zinv2)
        Y = eng.mul(Y, eng.mul(zinv2, zinv))
    return ResidentPoints(eng, X, Y, inf)


# -- segmented bucket reduction (native Montgomery lanes) ----------------------


class _PlaneLanes:
    """Coordinate vectors as tuples of (n, w) Montgomery word planes
    (one plane for G1, two for Fq2), plus the structural helpers the
    tree needs. Subclasses supply the field arithmetic; point I/O is
    shared via the ops' ``coeffs``/``from_coeffs`` SoA adapters."""

    nplanes = 1

    def load_points(self, pts):
        o = self.group.ops
        nf = self.nf
        xs = [o.coeffs(p[0]) for p in pts]
        ys = [o.coeffs(p[1]) for p in pts]
        X = tuple(nf.encode([c[k] for c in xs]) for k in range(self.nplanes))
        Y = tuple(nf.encode([c[k] for c in ys]) for k in range(self.nplanes))
        return X, Y

    def decode(self, X, Y):
        o = self.group.ops
        nf = self.nf
        xp = [nf.decode(pl) for pl in X]
        yp = [nf.decode(pl) for pl in Y]
        return [
            (o.from_coeffs(tuple(p[i] for p in xp)),
             o.from_coeffs(tuple(p[i] for p in yp)))
            for i in range(len(xp[0]))
        ]

    @staticmethod
    def nrows(c) -> int:
        return c[0].shape[0]

    @staticmethod
    def gather(c, idx):
        """Rows ``idx`` (a slice, a bool mask or an index array) of
        every plane, contiguous. ``take``/``compress`` move whole rows
        several times faster than fancy indexing does."""
        if isinstance(idx, slice):
            return tuple(_np.ascontiguousarray(pl[idx]) for pl in c)
        if idx.dtype == bool:
            return tuple(_np.compress(idx, pl, axis=0) for pl in c)
        return tuple(_np.take(pl, idx, axis=0) for pl in c)

    @staticmethod
    def set_rows(dst, idx, src) -> None:
        for d, s in zip(dst, src):
            d[idx] = s

    @staticmethod
    def concat(a, b):
        return tuple(_np.concatenate([x, y]) for x, y in zip(a, b))

    @staticmethod
    def interleave(a, b):
        outs = []
        for x, y in zip(a, b):
            out = _np.empty((2 * x.shape[0], x.shape[1]), dtype=x.dtype)
            out[0::2] = x
            out[1::2] = y
            outs.append(out)
        return tuple(outs)

    def combine(self, num, inv, lx, rx, ly):
        """Chord/tangent combine for one pair round: lam = num*inv,
        x3 = lam^2 - lx - rx, y3 = lam*(lx - x3) - ly."""
        lam = self.mul(num, inv)
        x3 = self.sub(self.sub(self.mul(lam, lam), lx), rx)
        y3 = self.sub(self.mul(lam, self.sub(lx, x3)), ly)
        return x3, y3

    def invert(self, dens):
        """Montgomery batch inversion via a pairwise product tree: one
        real field inversion at the root (in Python), multiplications
        everywhere else. Every input row must be invertible (callers
        park dead/special lanes at one)."""
        n = self.nrows(dens)
        cur = dens
        stack = []
        while self.nrows(cur) > 1:
            m = self.nrows(cur)
            if m & 1:
                cur = self.concat(cur, self.ones(1))
                m += 1
            ev = self.gather(cur, slice(0, m, 2))
            od = self.gather(cur, slice(1, m, 2))
            stack.append((ev, od))
            cur = self.mul(ev, od)
        inv = self.inv_root(cur)
        for ev, od in reversed(stack):
            # an odd level was padded with a one: drop that lane's
            # inverse so both kernel operands have this level's rows
            inv = self.gather(inv, slice(0, self.nrows(ev)))
            left = self.mul(inv, od)
            right = self.mul(inv, ev)
            inv = self.interleave(left, right)
        return self.gather(inv, slice(0, n))


class _G1Lanes(_PlaneLanes):
    """Prime-field lanes over the runtime-compiled Montgomery kernels."""

    def __init__(self, group, nf):
        self.group = group
        self.nf = nf
        consts = group.formula_constants()
        self._a_zero = consts["a_is_zero"]
        if not self._a_zero:
            self._a_row = nf.encode_const(consts["a"])

    def mul(self, a, b):
        return (self.nf.mul(a[0], b[0]),)

    def add(self, a, b):
        return (self.nf.add(a[0], b[0]),)

    def sub(self, a, b):
        return (self.nf.sub(a[0], b[0]),)

    def eq(self, a, b):
        return self.nf.rows_equal(a[0], b[0])

    def is_zero(self, a):
        return self.nf.is_zero(a[0])

    def ones(self, n):
        arr = _np.empty((n, self.nf.w), dtype=_np.uint64)
        arr[:] = self.nf.mont_one
        return (arr,)

    def add_a(self, c):
        if self._a_zero:
            return c
        tile = _np.empty_like(c[0])
        tile[:] = self._a_row
        return (self.nf.add(c[0], tile),)

    def inv_root(self, c):
        v = self.nf.decode_one(c[0][0])
        return (self.nf.encode_const(pow(v, -1, self.nf.p))[None, :],)

    def combine(self, num, inv, lx, rx, ly):
        x3, y3 = self.nf.affine_combine(num[0], inv[0], lx[0], rx[0],
                                        ly[0])
        return (x3,), (y3,)

    def invert(self, dens):
        # one prime-field plane: the sequential in-C prefix-product
        # trick beats the log-depth tree (2 kernel calls, no per-level
        # gather/interleave traffic)
        return (self.nf.batch_inverse(dens[0]),)


class _ExtLanes(_PlaneLanes):
    """Fq2 = Fq[i]/(i^2 + c0) lanes: Karatsuba over two base-field
    planes (3 base muls per Fq2 mul)."""

    nplanes = 2

    def __init__(self, group, nf):
        self.group = group
        self.nf = nf
        self.field = group.ops.field
        c0 = self.field.modulus_coeffs[0]
        self._c0_is_one = c0 == 1
        if not self._c0_is_one:
            self._c0_row = nf.encode_const(c0)
        consts = group.formula_constants()
        self._a_zero = consts["a_is_zero"]
        if not self._a_zero:
            a0, a1 = consts["a"].coeffs
            self._a_rows = (nf.encode_const(a0), nf.encode_const(a1))

    def mul(self, a, b):
        nf = self.nf
        t0 = nf.mul(a[0], b[0])
        t2 = nf.mul(a[1], b[1])
        t1 = nf.mul(nf.add(a[0], a[1]), nf.add(b[0], b[1]))
        t1 = nf.sub(nf.sub(t1, t0), t2)
        if self._c0_is_one:
            r0 = nf.sub(t0, t2)
        else:
            tile = _np.empty_like(t2)
            tile[:] = self._c0_row
            r0 = nf.sub(t0, nf.mul(t2, tile))
        return (r0, t1)

    def add(self, a, b):
        return (self.nf.add(a[0], b[0]), self.nf.add(a[1], b[1]))

    def sub(self, a, b):
        return (self.nf.sub(a[0], b[0]), self.nf.sub(a[1], b[1]))

    def eq(self, a, b):
        return self.nf.rows_equal(a[0], b[0]) & self.nf.rows_equal(a[1], b[1])

    def is_zero(self, a):
        return self.nf.is_zero(a[0]) & self.nf.is_zero(a[1])

    def ones(self, n):
        c0 = _np.empty((n, self.nf.w), dtype=_np.uint64)
        c0[:] = self.nf.mont_one
        return (c0, _np.zeros((n, self.nf.w), dtype=_np.uint64))

    def add_a(self, c):
        if self._a_zero:
            return c
        outs = []
        for plane, row in zip(c, self._a_rows):
            tile = _np.empty_like(plane)
            tile[:] = row
            outs.append(self.nf.add(plane, tile))
        return tuple(outs)

    def inv_root(self, c):
        a0 = self.nf.decode_one(c[0][0])
        a1 = self.nf.decode_one(c[1][0])
        inv = self.field.element([a0, a1]).inverse()
        return tuple(self.nf.encode_const(c)[None, :] for c in inv.coeffs)


def _lane_engine(group):
    """The native Montgomery-plane lane engine (the bucket tree's and
    :class:`ResidentPoints`' arithmetic) for this group, or None."""
    return _native_engine(group, _G1Lanes, _ExtLanes)


def _segmented_tree(eng, group, curb, X, Y, fold_flagged):
    """The sorted log-depth batch-affine tree, shared by both
    front-ends: ``curb`` holds the entries' bucket ids in ascending
    order and ``X``/``Y`` their Montgomery planes in the same order.

    Buckets that receive the same x-coordinate more than once are
    handed to ``fold_flagged(ids)`` — the front-end folds their entries
    scalar-first in original entry order — and leave the tree (the
    pre-pass below says why); each round pairs adjacent lanes of the
    same bucket and combines all pairs with one shared batch inversion. P == Q
    lanes use the tangent slope (a doubling), P == -Q lanes cancel to a
    dead lane that revives from its right neighbour next round —
    detection is exact because the Montgomery lanes stay canonical.
    Books the rounds' PADD/PDBL totals and returns ``(ids, X, Y)`` of
    the surviving lanes, at most one per bucket."""
    # Buckets fed the same x-coordinate twice (a duplicated or negated
    # base — rare, but real proving keys do repeat bases) go through
    # the exact scalar fold: no reassociated schedule can reproduce the
    # ordered fold's equality events on such multisets, and the count
    # contract demands it (see ComputeBackend.accumulate_buckets).
    # Montgomery rows are canonical, so equal x <=> equal word rows.
    # Fast pre-pass: a 64-bit digest of (bucket, x). Equal bucket and
    # equal x imply equal digest, so a genuine duplicate always lands
    # adjacent in the sorted digests — a miss is impossible, and the
    # all-distinct common case skips the expensive full-width word sort
    # entirely (one plain sort of 64-bit keys; a cross-bucket digest
    # collision only costs that exact sort, which then finds nothing).
    dig = curb.astype(_np.uint64)
    mix = _np.uint64(0x9E3779B97F4A7C15)
    for pl in X:
        for j in range(pl.shape[1]):
            dig = dig * mix + pl[:, j]
    sd = _np.sort(dig)
    flagged = None
    if (sd[:-1] == sd[1:]).any():
        # Digest hit (real duplicate or hash collision): confirm with
        # the exact full-width sort over the Montgomery word columns.
        xcols = tuple(col for pl in X for col in pl.T) + (curb,)
        ordx = _np.lexsort(xcols)
        sc = curb[ordx]
        adj = sc[:-1] == sc[1:]
        eqx = adj.copy()
        for pl in X:
            sp = pl[ordx]
            eqx &= (sp[:-1] == sp[1:]).all(axis=1)
        if eqx.any():
            flagged = _np.unique(sc[:-1][eqx])
    if flagged is not None:
        keep0 = ~_np.isin(curb, flagged)
        X = eng.gather(X, keep0)
        Y = eng.gather(Y, keep0)
        curb = curb[keep0]
        fold_flagged(flagged)
    alive = _np.ones(curb.shape[0], dtype=bool)
    n_padd = 0
    n_pdbl = 0
    while eng.nrows(X) > 1:
        m = eng.nrows(X)
        # run detection over the sorted bucket ids (one pass, no loops)
        same = _np.zeros(m, dtype=bool)
        same[:-1] = curb[:-1] == curb[1:]
        newrun = _np.ones(m, dtype=bool)
        newrun[1:] = curb[1:] != curb[:-1]
        starts = _np.flatnonzero(newrun)
        run_id = _np.cumsum(newrun) - 1
        pos_in_run = _np.arange(m) - starts[run_id]
        is_left = (pos_in_run % 2 == 0) & same
        li = _np.flatnonzero(is_left)
        if li.size == 0:
            break  # all remaining lanes target distinct buckets
        ri = li + 1
        aL = alive[li]
        aR = alive[ri]
        both = aL & aR
        lx, ly = eng.gather(X, li), eng.gather(Y, li)
        rx, ry = eng.gather(X, ri), eng.gather(Y, ri)
        x_eq = eng.eq(lx, rx) & both
        cancel = x_eq & eng.is_zero(eng.add(ly, ry))
        dbl = x_eq & ~cancel
        work = (both & ~x_eq) | dbl
        den = eng.sub(rx, lx)
        num = eng.sub(ry, ly)
        di = _np.flatnonzero(dbl)
        if di.size:
            dx = eng.gather(lx, di)
            dy = eng.gather(ly, di)
            eng.set_rows(den, di, eng.add(dy, dy))  # 2y (y != 0: not a cancel)
            sq = eng.mul(dx, dx)
            eng.set_rows(num, di, eng.add_a(eng.add(eng.add(sq, sq), sq)))
        nw = _np.flatnonzero(~work)
        if nw.size:
            eng.set_rows(den, nw, eng.ones(int(nw.size)))
        inv = eng.invert(den)
        x3, y3 = eng.combine(num, inv, lx, rx, ly)
        wi = _np.flatnonzero(work)
        if wi.size:
            eng.set_rows(X, li[wi], eng.gather(x3, wi))
            eng.set_rows(Y, li[wi], eng.gather(y3, wi))
        ci = _np.flatnonzero(~aL & aR)
        if ci.size:  # dead left lane adopts its (alive) right neighbour
            eng.set_rows(X, li[ci], eng.gather(rx, ci))
            eng.set_rows(Y, li[ci], eng.gather(ry, ci))
        alive[li] = (aL | aR) & ~cancel
        n_padd += int(work.sum())
        n_pdbl += int(dbl.sum())
        keep = _np.ones(m, dtype=bool)
        keep[ri] = False
        X = eng.gather(X, keep)
        Y = eng.gather(Y, keep)
        alive = alive[keep]
        curb = curb[keep]
    _book(group, n_padd, n_pdbl)
    fin = _np.flatnonzero(alive)
    return curb[fin], eng.gather(X, fin), eng.gather(Y, fin)


def accumulate_buckets_segmented(group, buckets: List,
                                 entries: Sequence[Tuple[int, object]]
                                 ) -> Optional[List]:
    """Sorted log-depth batch-affine bucket accumulation over python
    ``(bucket index, affine point)`` entries (:func:`_segmented_tree`
    behind the ``load_points`` ingress).

    Returns None (caller falls back to the scalar fold) when the batch
    is too small to pay for the setup — silently, it is a size choice —
    or when the group has no native engine, which coverage records as a
    ``jacobian`` fallback.

    Surviving lanes land in ``buckets`` as (x, y, 1) Jacobian
    representatives (group-equal to the scalar fold; merged with the
    self-counting ``jadd`` when the incoming bucket is not
    infinity)."""
    items = [(idx, pt) for idx, pt in entries if pt is not None]
    if len(items) < SEGMENTED_MIN_ENTRIES:
        return None
    eng = _lane_engine(group)
    if eng is None:
        _coverage.note("jacobian", "fallback")
        return None
    _coverage.note("jacobian", "native")
    idxs = _np.fromiter((i for i, _ in items), dtype=_np.int64, count=len(items))
    order = _stable_argsort(idxs, len(buckets))
    X, Y = eng.load_points([items[int(k)][1] for k in order])

    def fold_flagged(flagged):
        flagset = {int(b) for b in flagged}
        for idx, pt in items:
            if idx in flagset:
                buckets[idx] = group.jmixed_add(buckets[idx], pt)

    ids, X, Y = _segmented_tree(eng, group, idxs[order], X, Y, fold_flagged)
    if ids.size:
        o = group.ops
        one = o.one
        for b, (x, y) in zip(ids.tolist(), eng.decode(X, Y)):
            init = buckets[b]
            if o.is_zero(init[2]):
                # scalar path's first assignment is count-free too
                buckets[b] = (x, y, one)
            else:
                buckets[b] = group.jadd(init, (x, y, one))  # counts padd
    return buckets


def _stable_argsort(keys, bound: int):
    """Stable argsort of int64 keys. Keys that all lie in [0, bound)
    are sorted in the narrowest unsigned dtype that holds them: up to
    16 bits (bucket and table-row numbers almost always are) numpy's
    stable sort is a radix sort instead of a comparison sort."""
    if keys.size and 0 <= int(keys.min()) and int(keys.max()) < bound:
        keys = keys.astype(_np.min_scalar_type(bound - 1))
    return _np.argsort(keys, kind="stable")


def _gather_table(eng, table, rows, cols):
    """Montgomery planes of the points ``table[rows[j]][cols[j]]``,
    grouped by table row: returns ``(X, Y, by_row)`` where lane i of
    the planes is entry ``by_row[i]``. One contiguous ``take`` per
    table row and plane."""
    if rows.size and not 0 <= int(rows.min()) <= int(rows.max()) < len(table):
        raise IndexError("checkpoint-table row index out of range")
    by_row = _stable_argsort(rows, len(table))
    src = cols[by_row]
    first = table[0]
    out = tuple(_np.empty((rows.size, pl.shape[1]), dtype=pl.dtype)
                for pl in first.X + first.Y)
    start = 0
    for row, end in zip(table, _np.cumsum(
            _np.bincount(rows, minlength=len(table))).tolist()):
        if end > start:
            for dst, plane in zip(out, row.X + row.Y):
                dst[start:end] = _np.take(plane, src[start:end], axis=0)
        start = end
    return out[:eng.nplanes], out[eng.nplanes:], by_row


def accumulate_table_segmented(group, table: Sequence, n_slots: int,
                               slot_idx, row_idx, col_idx
                               ) -> Optional[ResidentBuckets]:
    """Point-merging straight off a resident checkpoint table: entry j
    adds ``table[row_idx[j]][col_idx[j]]`` into bucket ``slot_idx[j]``
    of a fresh all-infinity row of ``n_slots`` buckets, returned as
    :class:`ResidentBuckets`. The index vectors stand in for the
    ``entries`` list of :func:`accumulate_buckets_segmented` — gather
    table rows, run :func:`_segmented_tree`, scatter the survivors — so
    no python point exists between the table and the bucket rows,
    except in buckets fed one x twice, whose few points are decoded for
    the exact scalar fold in entry order.

    Returns None (caller runs the ordered ``jmixed_add`` loop) below
    ``SEGMENTED_MIN_ENTRIES`` — silently, a size choice; the loop then
    decodes only the points it reads — and, noted as a ``jacobian``
    fallback, without a native engine or for a table that is not made
    of :class:`ResidentPoints` rows."""
    slots = _np.asarray(slot_idx, dtype=_np.int64)
    if slots.size < SEGMENTED_MIN_ENTRIES:
        return None
    eng = _lane_engine(group)
    if eng is None or not all(isinstance(r, ResidentPoints) for r in table):
        _coverage.note("jacobian", "fallback")
        return None
    _coverage.note("jacobian", "native")
    jeng = _jac_engine(group)
    rows = _np.asarray(row_idx, dtype=_np.int64)
    cols = _np.asarray(col_idx, dtype=_np.int64)
    if any(r.inf.any() for r in table):  # a None point adds nothing
        keep = ~_np.stack([r.inf for r in table])[rows, cols]
        slots, rows, cols = slots[keep], rows[keep], cols[keep]
    # Tree order: by bucket, and within a bucket by table row — any
    # order will do there, since buckets fed one x twice leave the tree.
    X, Y, by_row = _gather_table(eng, table, rows, cols)
    order = _stable_argsort(slots[by_row], n_slots)
    X, Y = eng.gather(X, order), eng.gather(Y, order)
    order = by_row[order]
    folded = {}

    def fold_flagged(flagged):
        o = group.ops
        infinity = (o.one, o.one, o.zero)
        for j in _np.flatnonzero(_np.isin(slots, flagged)).tolist():
            s = int(slots[j])
            folded[s] = group.jmixed_add(folded.get(s, infinity),
                                         table[rows[j]][cols[j]])

    ids, X, Y = _segmented_tree(eng, group, slots[order], X, Y, fold_flagged)
    x, y, z = _infinity_rows(jeng, n_slots)
    if ids.size:  # count-free, like the scalar fold's first assignment
        x[ids], y[ids], z[ids] = jeng.raw(X), jeng.raw(Y), jeng.tile(
            1, ids.size)
    if folded:
        ids = _np.fromiter(folded, dtype=_np.int64, count=len(folded))
        for k, dst in enumerate((x, y, z)):
            dst[ids] = jeng.rows([p[k] for p in folded.values()])
    return ResidentBuckets(jeng, x, y, z)
