"""Native-kernel struct-of-arrays curve arithmetic for the MSM hot path.

Everything here drives the runtime-compiled C layer of
:mod:`repro.backend.native`; a group those kernels cannot serve
(``REPRO_NATIVE=0``, no compiler, over-wide modulus, a coordinate field
that is neither prime nor Fq2 = Fq[i]/(i^2 + c0)) gets ``None`` back
and :class:`~repro.backend.numpy_limb.NumpyLimbBackend` runs the
inherited scalar loop instead — there is no vectorized middle tier.
:func:`_native_engine` is the one place that decides which native field
serves a group, and the engine it returns (:class:`_Lanes`, carrying
the coordinate field's degree d: 1 for prime-field coordinates, 2 for
Fq2) is that group's whole arithmetic: the int boundary and the point
kernels' calls. Every point formula — doubling, addition, the bucket
fold, the merge and Jacobian -> affine — is one C body over degree-d
field ops, so G1 and G2 run the same code.

* **Resident rows.** Points stay in word rows between calls, always as
  canonical **Montgomery** residues, a coordinate's d coefficients
  packed side by side ([c0 words | c1 words] for Fq2).
  :class:`ResidentPoints` is an affine row — packed x/y rows plus a
  ``None`` mask, whose lanes hold (0, 0); the MSM checkpoint table is a
  list of them, encoded once at setup. :class:`ResidentBuckets` is a
  Jacobian row — x/y/z rows, z = 0 for infinity; sub-buckets, buckets
  and the preprocessing chain's temporaries. The two share their
  layout, so nothing converts or repacks when a point moves between
  the table, the merge and the point kernels.
  Both are immutable read-only ``Sequence``s that decode only what is
  read, so code that knows nothing about them still works. The
  int <-> row boundary — and with it the raw <-> Montgomery one — is
  crossed in two places only: the engine's ``rows`` (ingress) and
  ``vals`` (egress).

* **Batch Jacobian kernels** (:func:`batch_jdouble`, :func:`batch_jadd`)
  are one C call each over bucket rows: a per-lane loop over the same
  ``jpt_dbl``/``jpt_add`` the bucket fold uses, which *are*
  :class:`~repro.curves.weierstrass.CurveGroup`'s formulas on
  Montgomery residues. Special cases (infinity, P == Q -> double,
  P == -Q -> infinity) are routed in C per lane on canonical words and
  the kernel returns the padd/pdbl tallies the scalar formulas would
  have booked, so coordinates and op counts are bit-identical to the
  scalar loop. A python list is lifted through the rows' ingress and
  handed back through their egress.

* **Jacobian -> affine** (:func:`batch_from_jacobian`): one C call
  (``to_affine``) with one shared field inversion per row.

* **Point-merging** (:func:`_merge_tree` behind
  :func:`accumulate_table_segmented` for a resident table's index
  vectors and :func:`accumulate_buckets_segmented` for python
  ``entries``) replaces the ordered per-entry fold of bucket
  accumulation with a sorted, log-depth tree of *batch-affine*
  additions, run by one C call (``merge``): entries are
  stable-sorted by bucket index once, then each round pairs adjacent
  same-bucket lanes and combines every pair with a single shared
  Montgomery batch inversion (one field inversion per round, ≈ 6 muls
  per combine instead of the 11 of a mixed Jacobian add). Bucket
  results are group-equal to the scalar fold's ((x, y, 1)
  Jacobian representatives) and PADD/PDBL totals match the scalar
  schedule — see
  :meth:`repro.backend.base.ComputeBackend.accumulate_buckets` for the
  exact contract.

* **Bucket fold** (:func:`bucket_reduce`): the ordered running-suffix
  fold as one sequential C call over the same ``jpt_*`` functions.
"""

from __future__ import annotations

from collections.abc import Sequence as _Sequence
from typing import List, Optional, Sequence, Tuple

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
    "vectorizes",
    "resident_points",
    "gather_points",
    "batch_to_jacobian",
    "batch_from_jacobian",
    "batch_jdouble",
    "batch_jadd",
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


def _native_engine(group):
    """The one "which native field serves this group" rule: prime-field
    coordinates run over their own modulus (d = 1), Fq2 = Fq[i]/(i^2 +
    c0) lanes over the base field's (d = 2); anything else — or no
    loaded kernels for that modulus (``get_native_field`` is None
    without a compiler, numpy or under ``REPRO_NATIVE=0``) — has no
    native engine."""
    o = group.ops
    if isinstance(o, IntFieldOps):
        d, modulus = 1, o.field.modulus
    elif (isinstance(o, ExtFieldOps) and o.field.degree == 2
          and o.field.modulus_coeffs[1] == 0):
        d, modulus = 2, o.field.base.modulus
    else:
        return None
    nf = get_native_field(modulus)
    return None if nf is None else _Lanes(group, nf, d)


# -- resident rows -------------------------------------------------------------


class _ResidentRow(_Sequence):
    """What the two resident forms share: a read-only ``Sequence`` over
    packed word rows. ``len`` is free, a slice is another row over views
    of the same planes, and reading an element, iterating or comparing
    decodes exactly what is read — never into a cache, since a decoded
    copy kept beside the rows would be the python table the rows
    replace. Rows are marked read-only and no op writes into an
    operand, so aliased operands and handing an operand back unchanged
    are safe. A subclass's planes are its slots after ``eng``, each
    with one entry per point."""

    __slots__ = ()
    __hash__ = None

    def __init__(self, eng, *planes):
        for plane in planes:
            plane.flags.writeable = False
        self.eng = eng
        for slot, plane in zip(self.__slots__[1:], planes):
            setattr(self, slot, plane)

    def __len__(self) -> int:
        return getattr(self, self.__slots__[-1]).shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._take(index)
        return self._item(range(len(self))[index])

    def _take(self, index):
        return type(self)(self.eng, *(getattr(self, slot)[index]
                                      for slot in self.__slots__[1:]))

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
    """A row of affine points as the bucket tree reads them: packed word
    rows ``x``/``y`` of canonical **Montgomery** residues, as
    :class:`ResidentBuckets` lays them out, plus a mask for the ``None``
    lanes, whose x and y rows are zero. The checkpoint table is made of
    these; it is public proving-key data and may live on a context."""

    __slots__ = ("eng", "x", "y", "inf")

    def _item(self, i: int):
        if self.inf[i]:
            return None
        # one point: python Montgomery reductions beat a kernel call
        return self.eng.val_one(self.x[i]), self.eng.val_one(self.y[i])

    def tolist(self) -> List:
        pts = list(zip(self.eng.vals(self.x), self.eng.vals(self.y)))
        for i in _np.flatnonzero(self.inf):
            pts[i] = None
        return pts


class ResidentBuckets(_ResidentRow):
    """A row of Jacobian points as the point kernels read them: word
    rows ``x``/``y``/``z`` of canonical **Montgomery** residues —
    ``(n, w)`` for G1, packed ``(n, 2w)`` ([c0 words | c1 words] per
    lane) for Fq2 — with z = 0 marking infinity. Sub-buckets, buckets
    and the preprocessing chain's temporaries are these; bucket
    contents are witness-derived, so a row lives exactly as long as the
    call that made it and is never cached."""

    __slots__ = ("eng", "x", "y", "z")

    def tolist(self) -> List:
        # one egress for all three coordinates
        n = len(self)
        vals = self.eng.vals(_np.concatenate([self.x, self.y, self.z]))
        return list(zip(vals[:n], vals[n:2 * n], vals[2 * n:]))


# -- batch Jacobian kernels ----------------------------------------------------
#
# Each is lift -> one kernel call -> booked tallies, over bucket rows. A
# python list of Jacobian tuples is lifted through the rows' ingress and
# the result handed back through their egress; a resident operand keeps
# the result resident.


def _lift_buckets(eng, pts) -> ResidentBuckets:
    if isinstance(pts, ResidentBuckets):
        return pts
    # one ingress for all three coordinates, as tolist's one egress
    n = len(pts)
    rows = eng.rows([p[k] for k in range(3) for p in pts])
    return ResidentBuckets(eng, rows[:n], rows[n:2 * n], rows[2 * n:])


def _book(group, n_padd: int, n_pdbl: int = 0) -> None:
    if n_padd:
        group._count("padd", n_padd)
    if n_pdbl:
        group._count("pdbl", n_pdbl)


def vectorizes(*rows: Sequence) -> bool:
    """Whether a batch op over these rows leaves the scalar loop: a
    resident row always stays on the kernels, a python list once it
    clears ``MIN_VECTOR_LANES``."""
    return (len(rows[0]) >= MIN_VECTOR_LANES
            or any(isinstance(r, ResidentBuckets) for r in rows))


def _engine_or_note(group):
    """The native engine with the coverage tally noted either way."""
    eng = _native_engine(group)
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
    out = ResidentBuckets(eng, *eng.point_op("dbl", p))
    return out if p is points else out.tolist()


def batch_jadd(group, ps: Sequence, qs: Sequence) -> Optional[Sequence]:
    """SoA pairwise Jacobian addition of two equal-length rows;
    bit-identical to the scalar loop (None without a native engine, as
    :func:`batch_jdouble`). Doubling lanes (u1 == u2, s1 == s2) take
    the doubling in C and are counted as the scalar ``jdouble`` counts
    itself; the rows may be the same object."""
    eng = _engine_or_note(group)
    if eng is None:
        return None
    p, q = _lift_buckets(eng, ps), _lift_buckets(eng, qs)
    out = ResidentBuckets(eng, *eng.point_op("add", p, q))
    return out if p is ps or q is qs else out.tolist()


def bucket_reduce(group, buckets: Sequence):
    """Bucket-reduction sum_j (j+1)*B_j in one call into the sequential
    C fold — ``running += B_j; total += running``, last bucket first,
    the formulas, operand order and special-case routing of
    :func:`repro.msm.pippenger.bucket_reduce`, bit for bit — booking
    the fold's own padd/pdbl tallies through ``group._count``. A python
    list is lifted through the bucket rows' ingress into the same
    kernel. None without a native engine."""
    eng = _engine_or_note(group)
    if eng is None:
        return None
    return ResidentBuckets(
        eng, *eng.point_op("fold", _lift_buckets(eng, buckets)))[0]


# -- affine <-> Jacobian over resident rows ------------------------------------


def resident_points(group, points: Sequence) -> Optional[ResidentPoints]:
    """Affine points (``None`` = infinity) -> a :class:`ResidentPoints`
    row, the table's one ingress; an already-resident row comes back as
    the same object. None without a native engine."""
    if isinstance(points, ResidentPoints):
        return points
    eng = _native_engine(group)
    if eng is None:
        return None
    inf = _np.fromiter((p is None for p in points), dtype=bool,
                       count=len(points))
    if inf.any():
        zero = group.ops.zero
        points = [(zero, zero) if p is None else p for p in points]
    return ResidentPoints(eng, eng.rows([p[0] for p in points]),
                          eng.rows([p[1] for p in points]), inf)


def gather_points(row: ResidentPoints, idx) -> ResidentPoints:
    """Lane j of the result is ``row[idx[j]]``: one ``take`` per
    coordinate row and one of the ``None`` mask."""
    idx = _np.asarray(idx, dtype=_np.int64)
    return ResidentPoints(row.eng, *(_np.take(plane, idx, axis=0)
                                     for plane in (row.x, row.y, row.inf)))


def batch_to_jacobian(group, points: ResidentPoints
                      ) -> Optional[ResidentBuckets]:
    """``to_jacobian`` of a resident affine row as bucket rows (z = 1,
    or (1, 1, 0) on the ``None`` lanes): the table's rows as they are,
    no arithmetic."""
    eng = _native_engine(group)
    if eng is None:
        return None
    x, y, z = points.x, points.y, _np.tile(eng.one, (len(points), 1))
    if points.inf.any():
        dead = points.inf[:, None]
        x, y = _np.where(dead, z, x), _np.where(dead, z, y)
        z = _np.where(dead, _np.zeros_like(z), z)
    return ResidentBuckets(eng, x, y, z)


def batch_from_jacobian(group, jps: ResidentBuckets
                        ) -> Optional[ResidentPoints]:
    """``from_jacobian`` of a bucket row as a resident affine row: one C
    call (``point_op("affine")``) that shares a single field inversion
    among all live lanes and writes x/z^2, y/z^3, and (0, 0) for an
    infinite lane — :func:`resident_points`' byte form of ``None``."""
    eng = _native_engine(group)
    if eng is None:
        return None
    x, y = eng.point_op("affine", jps)
    return ResidentPoints(eng, x, y, ~jps.z.any(axis=1))


# -- the native engine (Montgomery lanes) --------------------------------------


class _Lanes:
    """One group's arithmetic on the native field ``nf``, everything in
    the Montgomery domain: a coordinate is ``d`` base-field coefficients
    (1 for G1, 2 for Fq2) packed side by side in one word row, the
    layout every point kernel takes. The engine holds the int boundary
    (:meth:`rows`/:meth:`vals`), the curve's constant rows and the
    point-kernel call; the kernels do all the arithmetic."""

    def __init__(self, group, nf, d):
        self.group, self.nf, self.d = group, nf, d
        consts = group.formula_constants()
        a_row = (None if consts["a_is_zero"] else _np.concatenate(
            [nf.encode_const(c) for c in group.ops.coeffs(consts["a"])]))
        c0 = 1 if d == 1 else group.ops.field.modulus_coeffs[0]
        #: the curve's Montgomery constant rows as the point kernels
        #: take them: a packed (None = a == 0) and c0 (None = c0 == 1,
        #: always over Fp)
        self.curve_rows = (a_row, None if c0 == 1 else nf.encode_const(c0))
        #: the packed Montgomery one: z of an affine point, x and y of
        #: the formulas' infinity (1, 1, 0)
        self.one = _np.concatenate(
            [nf.mont_one] + [_np.zeros_like(nf.mont_one)] * (d - 1))

    def rows(self, vals):
        """The ingress: coordinate-field values -> packed Montgomery
        rows."""
        n, d = len(vals), self.d
        if d > 1:  # a prime-field value is its own one coefficient
            coeffs = self.group.ops.coeffs
            vals = [c for v in vals for c in coeffs(v)]
        return self.nf.encode(vals).reshape(n, d * self.nf.w)

    def vals(self, arr):
        """The egress: packed Montgomery rows -> coordinate-field
        values."""
        d = self.d
        flat = self.nf.decode(
            _np.ascontiguousarray(arr).reshape(-1, self.nf.w))
        if d == 1:
            return flat
        from_coeffs = self.group.ops.from_coeffs
        return [from_coeffs(flat[i:i + d]) for i in range(0, len(flat), d)]

    def val_one(self, row):
        """One packed row -> its value, in python."""
        w = self.nf.w
        return self.group.ops.from_coeffs(
            [self.nf.decode_one(row[k * w:(k + 1) * w])
             for k in range(self.d)])

    def point_op(self, op: str, *rows: ResidentBuckets):
        """One point kernel call (``NativeField.point_op``) over bucket
        rows, its padd/pdbl tallies booked once: the result planes."""
        out, n_padd, n_pdbl = self.nf.point_op(
            op, self.d, [pl for r in rows for pl in (r.x, r.y, r.z)],
            *self.curve_rows)
        _book(self.group, n_padd, n_pdbl)
        return out


def _merge_tree(eng, group, ids, X, Y, fold_flagged):
    """Point-merging, shared by both front-ends: ``ids`` holds the
    entries' bucket ids in ascending order and ``X``/``Y`` their packed
    Montgomery rows in the same order.

    Buckets that receive the same x-coordinate more than once are
    handed to ``fold_flagged(buckets)`` — the front-end folds their entries
    scalar-first in original entry order — and leave the tree (the
    pre-pass below says why). Everything else is one C call
    (``NativeField.point_op("merge")``): the sorted log-depth tree of
    batch-affine additions, each round pairing adjacent lanes of one
    bucket and combining all pairs with one shared batch inversion;
    P == Q lanes take the tangent (a doubling), P == -Q lanes cancel to
    a dead lane that revives from its right neighbour next round —
    detection is exact because the Montgomery lanes stay canonical.
    Books the tree's PADD/PDBL totals and returns ``(ids, X, Y)`` of
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
    dig = ids.astype(_np.uint64)
    mix = _np.uint64(0x9E3779B97F4A7C15)
    for col in X.T:
        dig *= mix
        dig += col
    sd = _np.sort(dig)
    if (sd[:-1] == sd[1:]).any():
        # Digest hit (real duplicate or hash collision): confirm with
        # the exact full-width sort over the Montgomery word columns.
        ordx = _np.lexsort((*X.T, ids))
        sc = ids[ordx]
        sx = X[ordx]
        eqx = (sc[:-1] == sc[1:]) & (sx[:-1] == sx[1:]).all(axis=1)
        if eqx.any():
            flagged = _np.unique(sc[:-1][eqx])
            keep = ~_np.isin(ids, flagged)
            ids, X, Y = ids[keep], X[keep], Y[keep]
            fold_flagged(flagged)
    out, n_padd, n_pdbl = eng.nf.point_op("merge", eng.d, (X, Y),
                                          *eng.curve_rows, ids=ids)
    _book(group, n_padd, n_pdbl)
    return out


def accumulate_buckets_segmented(group, buckets: List,
                                 entries: Sequence[Tuple[int, object]]
                                 ) -> Optional[List]:
    """Sorted log-depth batch-affine bucket accumulation over python
    ``(bucket index, affine point)`` entries (:func:`_merge_tree` behind
    the ``rows`` ingress).

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
    eng = _engine_or_note(group)
    if eng is None:
        return None
    idxs = _np.fromiter((i for i, _ in items), dtype=_np.int64, count=len(items))
    order = _stable_argsort(idxs, len(buckets))
    pts = [items[int(k)][1] for k in order]
    X, Y = eng.rows([p[0] for p in pts]), eng.rows([p[1] for p in pts])

    def fold_flagged(flagged):
        flagset = {int(b) for b in flagged}
        for idx, pt in items:
            if idx in flagset:
                buckets[idx] = group.jmixed_add(buckets[idx], pt)

    ids, X, Y = _merge_tree(eng, group, idxs[order], X, Y, fold_flagged)
    if ids.size:
        o = group.ops
        one = o.one
        for b, x, y in zip(ids.tolist(), eng.vals(X), eng.vals(Y)):
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


def _table_lanes(eng, table, rows, cols, order):
    """Packed Montgomery rows of the points ``table[rows[j]][cols[j]]``
    for j in ``order``: the table's rows stacked, then one ``take`` for
    x and one for y."""
    sizes = _np.array([len(r) for r in table], dtype=_np.int64)
    if rows.size and not (0 <= int(rows.min()) and int(rows.max()) < len(table)
                          and 0 <= int(cols.min())
                          and (cols < sizes[rows]).all()):
        raise IndexError("checkpoint-table index out of range")
    flat = (_np.cumsum(sizes) - sizes)[rows[order]] + cols[order]
    return tuple(
        _np.take(_np.concatenate([getattr(r, c) for r in table]), flat,
                 axis=0)
        for c in ("x", "y"))


def accumulate_table_segmented(group, table: Sequence, n_slots: int,
                               slot_idx, row_idx, col_idx
                               ) -> Optional[ResidentBuckets]:
    """Point-merging straight off a resident checkpoint table: entry j
    adds ``table[row_idx[j]][col_idx[j]]`` into bucket ``slot_idx[j]``
    of a fresh all-infinity row of ``n_slots`` buckets, returned as
    :class:`ResidentBuckets`. The index vectors stand in for the
    ``entries`` list of :func:`accumulate_buckets_segmented` — gather
    table rows, run :func:`_merge_tree`, scatter the survivors — so
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
    eng = _native_engine(group)
    if eng is None or not all(isinstance(r, ResidentPoints) for r in table):
        _coverage.note("jacobian", "fallback")
        return None
    _coverage.note("jacobian", "native")
    rows = _np.asarray(row_idx, dtype=_np.int64)
    cols = _np.asarray(col_idx, dtype=_np.int64)
    if any(r.inf.any() for r in table):  # a None point adds nothing
        keep = ~_np.stack([r.inf for r in table])[rows, cols]
        slots, rows, cols = slots[keep], rows[keep], cols[keep]
    # Tree order: by bucket, and within a bucket by table row — any
    # order will do there, since buckets fed one x twice leave the tree.
    order = _stable_argsort(rows, len(table))
    order = order[_stable_argsort(slots[order], n_slots)]
    X, Y = _table_lanes(eng, table, rows, cols, order)
    folded = {}

    def fold_flagged(flagged):
        o = group.ops
        infinity = (o.one, o.one, o.zero)
        for j in _np.flatnonzero(_np.isin(slots, flagged)).tolist():
            s = int(slots[j])
            folded[s] = group.jmixed_add(folded.get(s, infinity),
                                         table[rows[j]][cols[j]])

    ids, X, Y = _merge_tree(eng, group, slots[order], X, Y, fold_flagged)
    # every bucket starts as the scalar fold's infinity, (1, 1, 0); the
    # survivors land as (x, y, 1), their merged rows as they are
    one = _np.tile(eng.one, (n_slots, 1))
    x, y, z = one.copy(), one.copy(), _np.zeros_like(one)
    if ids.size:  # count-free, like the scalar fold's first assignment
        x[ids], y[ids], z[ids] = X, Y, one[ids]
    if folded:
        ids = _np.fromiter(folded, dtype=_np.int64, count=len(folded))
        for k, dst in enumerate((x, y, z)):
            dst[ids] = eng.rows([p[k] for p in folded.values()])
    return ResidentBuckets(eng, x, y, z)
