"""Native-kernel struct-of-arrays curve arithmetic for the MSM hot path.

Everything here drives the runtime-compiled C layer of
:mod:`repro.backend.native`; a group those kernels cannot serve
(``REPRO_NATIVE=0``, no compiler, over-wide modulus, a coordinate field
that is neither prime nor Fq2 = Fq[i]/(i^2 + c0)) gets ``None`` back
and :class:`~repro.backend.numpy_limb.NumpyLimbBackend` runs the
inherited scalar loop instead — there is no vectorized middle tier.
:func:`_native_engine` is the one place that decides which native field
serves a group.

* **Batch Jacobian kernels** (:func:`batch_jdouble`, :func:`batch_jadd`,
  :func:`batch_jmixed_add`) run the *same* formulas as
  :class:`~repro.curves.weierstrass.CurveGroup` over struct-of-arrays
  lanes: raw canonical word rows go straight into fused Jacobian
  kernels (Montgomery encode -> formula -> decode all in-kernel, G1
  prime-field lanes and G2 Fq2 Karatsuba lanes), which return
  bit-identical coordinates plus the Montgomery h/r planes whose zero
  tests route the special lanes. Special cases (infinity, P == Q ->
  double, P == -Q -> infinity) are detected per lane — input
  coordinates are canonical, so z == 0 / y == 0 / q is None are free,
  and the h/r zero tests are exact because x -> x*R mod p is a
  bijection — and those rare lanes are patched with the self-counting
  scalar formulas, keeping op-count parity exact.

* **Segmented bucket reduction** (:func:`accumulate_buckets_segmented`)
  replaces the ordered per-entry fold of bucket accumulation with a
  sorted, log-depth tree of *batch-affine* additions: entries are
  stable-sorted by bucket index once, then each round pairs adjacent
  same-bucket lanes and combines every pair with a single shared
  Montgomery batch inversion (one field inversion per round, 6 muls per
  combine instead of the ~11 of a mixed Jacobian add). Field lanes are
  Montgomery-domain word rows (one plane for G1, two Karatsuba planes
  for Fq2). Bucket results are group-equal to the scalar fold's
  (written as (x, y, 1) Jacobian representatives) and PADD/PDBL totals
  match the scalar schedule — see
  :meth:`repro.backend.base.ComputeBackend.accumulate_buckets` for the
  exact contract.
"""

from __future__ import annotations

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
    "native_point_op_muls",
    "batch_jdouble",
    "batch_jadd",
    "batch_jmixed_add",
    "accumulate_buckets_segmented",
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


# -- native Jacobian engines (raw rows in, raw rows out) -----------------------


class _JacNativeG1:
    """Prime-field Jacobian lanes over the fused native kernels: raw
    canonical int coordinates in, raw canonical ints out. Montgomery
    encode/decode happens *inside* the C kernels, so the Python side
    only packs/unpacks word rows; the add variants also return the
    h/r zero masks for the caller's special-lane routing."""

    def __init__(self, group, nf):
        self.group = group
        self.nf = nf
        consts = group.formula_constants()
        self._a_row = (None if consts["a_is_zero"]
                       else nf.encode_const(consts["a"]))

    def _rows(self, vals):
        return self.nf.words_from_ints(vals)

    def _ints(self, arr):
        return self.nf.ints_from_words(arr)

    def jdouble(self, pts):
        ox, oy, oz = self.nf.jac_dbl(
            self._rows([p[0] for p in pts]),
            self._rows([p[1] for p in pts]),
            self._rows([p[2] for p in pts]), self._a_row)
        return self._ints(ox), self._ints(oy), self._ints(oz)

    def jadd(self, ps, qs):
        nf = self.nf
        ox, oy, oz, oh, orr = nf.jac_add(
            self._rows([p[0] for p in ps]),
            self._rows([p[1] for p in ps]),
            self._rows([p[2] for p in ps]),
            self._rows([q[0] for q in qs]),
            self._rows([q[1] for q in qs]),
            self._rows([q[2] for q in qs]))
        return (self._ints(ox), self._ints(oy), self._ints(oz),
                nf.is_zero(oh), nf.is_zero(orr))

    def jmadd(self, ps, qs):
        nf = self.nf
        ox, oy, oz, oh, orr = nf.jac_madd(
            self._rows([p[0] for p in ps]),
            self._rows([p[1] for p in ps]),
            self._rows([p[2] for p in ps]),
            self._rows([q[0] for q in qs]),
            self._rows([q[1] for q in qs]))
        return (self._ints(ox), self._ints(oy), self._ints(oz),
                nf.is_zero(oh), nf.is_zero(orr))


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

    def _rows(self, vals):
        nf = self.nf
        return _np.ascontiguousarray(_np.concatenate(
            [nf.words_from_ints([v.coeffs[0] for v in vals]),
             nf.words_from_ints([v.coeffs[1] for v in vals])], axis=1))

    def _elems(self, arr):
        nf, w = self.nf, self.nf.w
        c0s = nf.ints_from_words(_np.ascontiguousarray(arr[:, :w]))
        c1s = nf.ints_from_words(_np.ascontiguousarray(arr[:, w:]))
        element = self.field.element
        return [element([a, b]) for a, b in zip(c0s, c1s)]

    def jdouble(self, pts):
        ox, oy, oz = self.nf.jac2_dbl(
            self._rows([p[0] for p in pts]),
            self._rows([p[1] for p in pts]),
            self._rows([p[2] for p in pts]), self._a_row, self._c0_row)
        return self._elems(ox), self._elems(oy), self._elems(oz)

    def jadd(self, ps, qs):
        nf = self.nf
        ox, oy, oz, oh, orr = nf.jac2_add(
            self._rows([p[0] for p in ps]),
            self._rows([p[1] for p in ps]),
            self._rows([p[2] for p in ps]),
            self._rows([q[0] for q in qs]),
            self._rows([q[1] for q in qs]),
            self._rows([q[2] for q in qs]), self._c0_row)
        return (self._elems(ox), self._elems(oy), self._elems(oz),
                nf.is_zero(oh), nf.is_zero(orr))

    def jmadd(self, ps, qs):
        nf = self.nf
        ox, oy, oz, oh, orr = nf.jac2_madd(
            self._rows([p[0] for p in ps]),
            self._rows([p[1] for p in ps]),
            self._rows([p[2] for p in ps]),
            self._rows([q[0] for q in qs]),
            self._rows([q[1] for q in qs]), self._c0_row)
        return (self._elems(ox), self._elems(oy), self._elems(oz),
                nf.is_zero(oh), nf.is_zero(orr))


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


def batch_jdouble(group, points: Sequence) -> Optional[List]:
    """SoA doubling of every point; bit-identical to
    ``[group.jdouble(p) for p in points]`` including op counts. None
    (caller runs that scalar loop) when the group has no native
    engine."""
    eng = _jac_engine(group)
    if eng is None:
        _coverage.note("jacobian", "fallback")
        return None
    o = group.ops
    results: List = [None] * len(points)
    act: List[int] = []
    for i, (_x, y, z) in enumerate(points):
        if o.is_zero(z) or o.is_zero(y):
            results[i] = (o.one, o.one, o.zero)  # scalar early return: no counts
        else:
            act.append(i)
    if not act:
        return results
    _coverage.note("jacobian", "native")
    xi, yi, zi = eng.jdouble([points[i] for i in act])
    for k, i in enumerate(act):
        results[i] = (xi[k], yi[k], zi[k])
    group._count("pdbl", len(act))
    group._count("padd", len(act))  # scalar jdouble counts both
    return results


def _patch_masked_lanes(group, results, act, ps, xi, yi, zi, hz, rz):
    """Write back native add/mixed-add outputs, routing the masked
    special lanes exactly like the scalar formulas: h == 0 and r == 0
    is P == Q (the self-counting double), h == 0 alone is P == -Q
    (infinity, count-free), and bulk-count the normal lanes' padds."""
    o = group.ops
    n_normal = 0
    for k, i in enumerate(act):
        if hz[k]:
            if rz[k]:
                results[i] = group.jdouble(ps[i])  # counts pdbl + padd
            else:
                results[i] = (o.one, o.one, o.zero)  # P + (-P): no counts
        else:
            results[i] = (xi[k], yi[k], zi[k])
            n_normal += 1
    group._count("padd", n_normal)


def batch_jadd(group, ps: Sequence, qs: Sequence) -> Optional[List]:
    """SoA pairwise Jacobian addition; bit-identical to the scalar
    loop (None without a native engine, as :func:`batch_jdouble`).
    Doubling lanes (u1 == u2, s1 == s2) are patched with the
    self-counting scalar ``jdouble`` so counts stay exact."""
    eng = _jac_engine(group)
    if eng is None:
        _coverage.note("jacobian", "fallback")
        return None
    o = group.ops
    n = len(ps)
    results: List = [None] * n
    act: List[int] = []
    for i in range(n):
        if o.is_zero(ps[i][2]):
            results[i] = qs[i]
        elif o.is_zero(qs[i][2]):
            results[i] = ps[i]
        else:
            act.append(i)
    if not act:
        return results
    _coverage.note("jacobian", "native")
    xi, yi, zi, hz, rz = eng.jadd([ps[i] for i in act],
                                  [qs[i] for i in act])
    _patch_masked_lanes(group, results, act, ps, xi, yi, zi, hz, rz)
    return results


def batch_jmixed_add(group, ps: Sequence, qs: Sequence) -> Optional[List]:
    """SoA pairwise Jacobian += affine addition; bit-identical to the
    scalar loop (same special-case routing and None contract as
    :func:`batch_jadd`)."""
    eng = _jac_engine(group)
    if eng is None:
        _coverage.note("jacobian", "fallback")
        return None
    o = group.ops
    n = len(ps)
    results: List = [None] * n
    act: List[int] = []
    for i in range(n):
        if qs[i] is None:
            results[i] = ps[i]
        elif o.is_zero(ps[i][2]):
            results[i] = group.to_jacobian(qs[i])
        else:
            act.append(i)
    if not act:
        return results
    _coverage.note("jacobian", "native")
    xi, yi, zi, hz, rz = eng.jmadd([ps[i] for i in act],
                                   [qs[i] for i in act])
    _patch_masked_lanes(group, results, act, ps, xi, yi, zi, hz, rz)
    return results


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
        return tuple(_np.ascontiguousarray(pl[idx]) for pl in c)

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
        return (self.nf.encode([pow(v, -1, self.nf.p)]),)

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
        return (self.nf.encode([inv.coeffs[0]]), self.nf.encode([inv.coeffs[1]]))


def accumulate_buckets_segmented(group, buckets: List,
                                 entries: Sequence[Tuple[int, object]]
                                 ) -> Optional[List]:
    """Sorted log-depth batch-affine bucket accumulation.

    Returns None (caller falls back to the scalar fold) when the batch
    is too small to pay for the setup — silently, it is a size choice —
    or when the group has no native engine, which coverage records as a
    ``jacobian`` fallback.

    Entries are stable-sorted by bucket index; buckets that receive the
    same x-coordinate more than once are folded scalar-first (the
    ordered fold's equality events cannot be reproduced by any
    reassociation — see the count contract on
    ``ComputeBackend.accumulate_buckets``); each remaining round pairs
    adjacent lanes of the same bucket and combines all pairs with one
    shared batch inversion. P == Q lanes use the tangent slope (a
    doubling), P == -Q lanes cancel to a dead lane that revives from
    its right neighbour next round — detection is exact because the
    Montgomery lanes stay canonical. Surviving lanes land in
    ``buckets`` as (x, y, 1) Jacobian representatives (group-equal to
    the scalar fold; merged with the self-counting ``jadd`` when the
    incoming bucket is not infinity)."""
    items = [(idx, pt) for idx, pt in entries if pt is not None]
    if len(items) < SEGMENTED_MIN_ENTRIES:
        return None
    eng = _native_engine(group, _G1Lanes, _ExtLanes)
    if eng is None:
        _coverage.note("jacobian", "fallback")
        return None
    _coverage.note("jacobian", "native")
    idxs = _np.fromiter((i for i, _ in items), dtype=_np.int64, count=len(items))
    order = _np.argsort(idxs, kind="stable")
    curb = idxs[order]
    pts = [items[int(k)][1] for k in order]
    X, Y = eng.load_points(pts)
    # Buckets fed the same x-coordinate twice (a duplicated or negated
    # base — rare, but real proving keys do repeat bases) go through
    # the exact scalar fold: no reassociated schedule can reproduce the
    # ordered fold's equality events on such multisets, and the count
    # contract demands it (see ComputeBackend.accumulate_buckets).
    # Montgomery rows are canonical, so equal x <=> equal word rows.
    # Fast pre-pass: sort by (bucket, 64-bit x digest). Equal x implies
    # equal digest, so a genuine duplicate always lands adjacent here —
    # a miss is impossible, and the all-distinct common case skips the
    # expensive full-width word sort entirely.
    dig = curb.astype(_np.uint64)
    mix = _np.uint64(0x9E3779B97F4A7C15)
    for pl in X:
        for j in range(pl.shape[1]):
            dig = dig * mix + pl[:, j]
    ordd = _np.lexsort((dig, curb))
    sc = curb[ordd]
    sd = dig[ordd]
    flagged = None
    if ((sc[:-1] == sc[1:]) & (sd[:-1] == sd[1:])).any():
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
        flagset = {int(b) for b in flagged}
        keep0 = ~_np.isin(curb, flagged)
        X = eng.gather(X, keep0)
        Y = eng.gather(Y, keep0)
        curb = curb[keep0]
        for idx, pt in items:
            if idx in flagset:
                buckets[idx] = group.jmixed_add(buckets[idx], pt)
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
    group._count("padd", n_padd)
    group._count("pdbl", n_pdbl)
    fin = _np.flatnonzero(alive)
    if fin.size:
        coords = eng.decode(eng.gather(X, fin), eng.gather(Y, fin))
        o = group.ops
        one = o.one
        for lane, (x, y) in zip(fin, coords):
            b = int(curb[lane])
            init = buckets[b]
            if o.is_zero(init[2]):
                # scalar path's first assignment is count-free too
                buckets[b] = (x, y, one)
            else:
                buckets[b] = group.jadd(init, (x, y, one))  # counts padd
    return buckets
