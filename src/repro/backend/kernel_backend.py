"""KernelBackend: the compiled C kernels behind the backend protocol.

:func:`repro.backend.get_backend` hands this backend out under the name
``numpy`` only while the kernels of :mod:`repro.backend.native` load;
otherwise ``numpy`` *is* the ``python`` backend. Inside it one dispatch
rule holds for every op: it runs on word rows when its field has a
:class:`~repro.backend.native.NativeField` and the batch clears its size
floor (``_lift``'s ``floor`` for field vectors, :data:`MIN_VECTOR_LANES`
for point rows, :data:`SEGMENTED_MIN_ENTRIES` for point-merging; a
resident operand always clears it), and takes the inherited scalar loop
otherwise. ``digit_entries`` is vectorized with numpy unconditionally,
``digits_matrix`` from ``MIN_VECTOR_LANES`` scalars up, and
``window_sum`` runs its one C call at any lane count. Results and op
counts are the ``python`` backend's.

* **Resident forms.** This module is the only place ints become word
  rows and word rows become ints. A field vector is a
  :class:`ResidentVector` — ``(n, w)`` rows of *raw* canonical residues.
  A point row is a :class:`ResidentPoints` (affine: packed x/y rows and
  a ``None`` mask; the MSM checkpoint table is a list of them) or a
  :class:`ResidentBuckets` (Jacobian: x/y/z rows, z = 0 for infinity;
  sub-buckets, buckets and the preprocessing chain's temporaries). Point
  rows hold canonical **Montgomery** residues, a coordinate's d
  coefficients packed side by side ([c0 words | c1 words] for Fq2), and
  share their layout, so nothing repacks when a point moves between the
  table, the merge and the point kernels. All three are immutable
  read-only ``Sequence``s, so code that knows nothing about them still
  works; every op is type-preserving over them (resident in, resident
  out; ints in, ints out).

* **Curve ops.** :func:`_native_engine` is the one place that decides
  which native field serves a group, and its :class:`_Lanes` engine
  (degree d: 1 for prime-field coordinates, 2 for Fq2 = Fq[i]/(i^2 +
  c0)) is that group's int boundary and kernel call. Every point
  formula — doubling, addition, the bucket fold, the windowed sum, the
  merge and Jacobian -> affine — is one C body over degree-d field ops,
  so G1 and G2 run the same code. The kernels route every special lane
  (infinity, P == Q, P == -Q) as the scalar formulas do and return the
  padd/pdbl tallies those would have booked, so coordinates and op
  counts are bit-identical to the scalar loop.

* **Point-merging** (:func:`_merge_tree` behind
  :meth:`KernelBackend.accumulate_table` and
  :meth:`KernelBackend.accumulate_buckets`) replaces the ordered
  per-entry fold with a sorted, log-depth tree of batch-affine
  additions in one C call: each round pairs adjacent same-bucket lanes
  and shares one field inversion among all pairs. Buckets are
  group-equal to the ordered fold's ((x, y, 1) representatives) with
  its PADD/PDBL totals — the contract of
  :meth:`repro.backend.base.ComputeBackend.accumulate_buckets`.
"""

from __future__ import annotations

from collections.abc import Sequence as _Sequence
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as _np

from repro.analysis.declass import declassify
from repro.backend import coverage
from repro.backend.base import ComputeBackend
from repro.backend.native import get_native_field
from repro.errors import CurveError

__all__ = ["KernelBackend", "ResidentVector", "ResidentPoints",
           "ResidentBuckets", "MIN_VECTOR_LANES", "SEGMENTED_MIN_ENTRIES"]

#: below this many lanes a python point row's ingress/egress outweighs
#: any batching win, and the op keeps the scalar loop
MIN_VECTOR_LANES = 16

#: below this many entries the sorted tree's setup costs more than the
#: scalar fold it replaces
SEGMENTED_MIN_ENTRIES = 64


# -- resident vectors ----------------------------------------------------------


class ResidentVector(_Sequence):
    """A field vector held as the native kernels hold it: ``(n, w)``
    little-endian uint64 rows of *raw* (not Montgomery) residues, every
    row canonical in [0, p).

    The seven vector ops hand one back whenever they are handed one, so
    a chain of calls (the POLY stage's seven NTTs and eleven pointwise
    passes) converts ints to rows once on the way in and rows to ints
    once on the way out. It is immutable — the rows are marked
    read-only and no op writes into an operand — so aliased operands
    (``vmul(v, v)``) and returning an operand unchanged (the size-1 NTT)
    are both safe. Read as a ``Sequence[int]`` it decodes once, on
    first access.
    """

    __slots__ = ("nf", "rows", "_ints")

    def __init__(self, nf, rows: "_np.ndarray"):
        rows.flags.writeable = False
        self.nf = nf
        self.rows = rows
        self._ints: Optional[List[int]] = None

    def _decoded(self) -> List[int]:
        """The single egress: raw rows -> canonical ints, once."""
        if self._ints is None:
            self._ints = self.nf.ints_from_words(self.rows)
        return self._ints

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, index):
        return self._decoded()[index]

    def __iter__(self):
        return iter(self._decoded())

    def __eq__(self, other):
        if isinstance(other, ResidentVector):
            # canonical rows: equal values are equal words
            return (self.nf.p == other.nf.p
                    and _np.array_equal(self.rows, other.rows))
        if isinstance(other, (list, tuple)):
            return self._decoded() == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return (f"<ResidentVector n={len(self)} "
                f"p~2^{self.nf.p.bit_length()}>")


# -- resident point rows -------------------------------------------------------


class _ResidentRow(_Sequence):
    """What the two resident point forms share: a read-only ``Sequence``
    over packed word rows. ``len`` is free, a slice is another row over
    views of the same planes, and reading an element, iterating or
    comparing decodes exactly what is read — never into a cache, since a
    decoded copy kept beside the rows would be the python table the rows
    replace. A subclass's planes are its slots after ``eng``, each with
    one entry per point."""

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
    rows ``x``/``y`` of canonical Montgomery residues, laid out as
    :class:`ResidentBuckets`, plus a mask for the ``None`` lanes, whose x
    and y rows are zero. The checkpoint table is made of these; it is
    public proving-key data and may live on a context."""

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
    rows ``x``/``y``/``z`` of canonical Montgomery residues — ``(n, w)``
    for G1, packed ``(n, 2w)`` for Fq2 — with z = 0 marking infinity.
    Bucket contents are witness-derived, so a row lives exactly as long
    as the call that made it and is never cached."""

    __slots__ = ("eng", "x", "y", "z")

    def tolist(self) -> List:
        # one egress for all three coordinates
        n = len(self)
        vals = self.eng.vals(_np.concatenate([self.x, self.y, self.z]))
        return list(zip(vals[:n], vals[n:2 * n], vals[2 * n:]))


def _lift_buckets(eng, pts) -> ResidentBuckets:
    """A Jacobian row as bucket rows: a resident row as it is, a python
    list through one ingress for all three coordinates."""
    if isinstance(pts, ResidentBuckets):
        return pts
    n = len(pts)
    rows = eng.rows([p[k] for k in range(3) for p in pts])
    return ResidentBuckets(eng, rows[:n], rows[n:2 * n], rows[2 * n:])


# -- the native engine (Montgomery lanes) --------------------------------------


def _native_engine(group):
    """The one "which native field serves this group" rule: prime-field
    coordinates run over their own modulus (d = 1), Fq2 = Fq[i]/(i^2 +
    c0) lanes over the base field's (d = 2); anything else — or no
    :class:`~repro.backend.native.NativeField` for that modulus — has no
    native engine."""
    from repro.curves.fieldops import ExtFieldOps, IntFieldOps  # a cycle

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


def _book(group, n_padd: int, n_pdbl: int = 0) -> None:
    if n_padd:
        group._count("padd", n_padd)
    if n_pdbl:
        group._count("pdbl", n_pdbl)


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

    def point_op(self, op: str, *rows: ResidentBuckets, **kernel_args):
        """One point kernel call (``NativeField.point_op``, which takes
        the windowed sum's ``ids`` and ``doublings`` as ``kernel_args``)
        over bucket rows, its padd/pdbl tallies booked once: the result
        planes."""
        out, n_padd, n_pdbl = self.nf.point_op(
            op, self.d, [pl for r in rows for pl in (r.x, r.y, r.z)],
            *self.curve_rows, **kernel_args)
        _book(self.group, n_padd, n_pdbl)
        return out


# -- point-merging ---------------------------------------------------------------


def _tree_entries(ids, X, fold_flagged):
    """Which point-merging entries the tree takes, shared by both
    front-ends: ``ids`` holds the entries' bucket ids in ascending order
    and ``X`` their packed Montgomery x rows in the same order. Returns
    ``None`` when the tree takes them all, else the mask of those it
    takes.

    Buckets that receive the same x-coordinate more than once are
    handed to ``fold_flagged(buckets)`` — the front-end folds their
    entries scalar-first in original entry order — and leave the tree.
    A front-end then drops its x rows and reads x and y for the kept
    entries only, so a bucket fed one x twice costs no more memory than
    a merge without one."""
    # Buckets fed the same x-coordinate twice (a duplicated or negated
    # base — rare, but real proving keys do repeat bases) go through
    # the exact scalar fold: no reassociated schedule can reproduce the
    # ordered fold's equality events on such multisets, and the count
    # contract demands it (see ComputeBackend.accumulate_buckets).
    # Montgomery rows are canonical, so equal x <=> equal word rows.
    # Fast pre-pass: a 64-bit digest of (bucket, x). Equal bucket and
    # equal x imply equal digest, so a genuine duplicate always lands
    # adjacent in the sorted digests — a miss is impossible, and the
    # all-distinct common case skips the full-width word sort entirely
    # (one plain sort of 64-bit keys); a digest hit sorts only the
    # entries whose digest repeats, so a duplicate or a cross-bucket
    # collision costs a handful of rows, never a copy of all of them.
    dig = ids.astype(_np.uint64)
    mix = _np.uint64(0x9E3779B97F4A7C15)
    for col in X.T:
        dig *= mix
        dig += col
    sd = _np.sort(dig)
    repeated = sd[1:][sd[:-1] == sd[1:]]
    if not repeated.size:
        return None
    # Digest hit (real duplicate or hash collision): confirm with the
    # exact full-width sort over those entries' Montgomery word columns.
    hit = _np.flatnonzero(_np.isin(dig, repeated))
    sc, sx = ids[hit], X[hit]
    ordx = _np.lexsort((*sx.T, sc))
    sc, sx = sc[ordx], sx[ordx]
    eqx = (sc[:-1] == sc[1:]) & (sx[:-1] == sx[1:]).all(axis=1)
    if not eqx.any():
        return None
    flagged = _np.unique(sc[:-1][eqx])
    fold_flagged(flagged)
    return ~_np.isin(ids, flagged)


def _merge_tree(eng, group, ids, X, Y):
    """Point-merging over the entries :func:`_tree_entries` kept:
    ``ids`` holds their bucket ids in ascending order and ``X``/``Y``
    their packed Montgomery rows in the same order. One C call
    (``NativeField.point_op("merge")``): P == Q lanes take the tangent,
    P == -Q lanes cancel to a dead lane that revives from its right
    neighbour next round — detection is exact because the Montgomery
    lanes stay canonical. Books the tree's PADD/PDBL totals and returns
    ``(ids, X, Y)`` of the surviving lanes, at most one per bucket."""
    out, n_padd, n_pdbl = eng.nf.point_op("merge", eng.d, (X, Y),
                                          *eng.curve_rows, ids=ids)
    _book(group, n_padd, n_pdbl)
    return out


def _stable_argsort(keys, bound: int):
    """Stable argsort of int64 keys. Keys that all lie in [0, bound)
    are sorted in the narrowest unsigned dtype that holds them: up to
    16 bits (bucket and table-row numbers almost always are) numpy's
    stable sort is a radix sort instead of a comparison sort."""
    if keys.size and 0 <= int(keys.min()) and int(keys.max()) < bound:
        keys = keys.astype(_np.min_scalar_type(bound - 1))
    return _np.argsort(keys, kind="stable")


def _table_index(table, rows, cols):
    """The position of every point ``table[rows[j]][cols[j]]`` in the
    table's rows laid end to end, every index checked first."""
    sizes = _np.array([len(r) for r in table], dtype=_np.int64)
    if rows.size and not (0 <= int(rows.min()) and int(rows.max()) < len(table)
                          and 0 <= int(cols.min())
                          and (cols < sizes[rows]).all()):
        raise IndexError("checkpoint-table index out of range")
    return (_np.cumsum(sizes) - sizes)[rows] + cols


def _table_lanes(table, flat, coord: str):
    """Packed Montgomery rows of coordinate ``coord`` (``"x"`` or
    ``"y"``) of the table's points at ``flat`` (:func:`_table_index`):
    the table's rows stacked, then one ``take``."""
    return _np.take(_np.concatenate([getattr(r, coord) for r in table]),
                    flat, axis=0)


# -- the backend ---------------------------------------------------------------


class KernelBackend(ComputeBackend):
    """Every op on the compiled kernels under the module's one dispatch
    rule; the inherited scalar loop below a size floor or for a field
    without a :class:`~repro.backend.native.NativeField`."""

    name = "numpy"
    fuses_ntt_sweeps = True

    # -- resident vectors --------------------------------------------------------

    @staticmethod
    def _rows_of(nf, values: Sequence[int]) -> "_np.ndarray":
        """The single ingress: any ints (negative, >= p) -> canonical
        raw rows. A resident vector already is its rows."""
        if isinstance(values, ResidentVector):
            return values.rows
        p = nf.p
        return nf.words_from_ints([v % p for v in values])

    def resident(self, field, values: Sequence[int]):
        """A :class:`ResidentVector` when this modulus has a native
        field (an already-resident vector is returned as is), the
        reduced list otherwise."""
        if isinstance(values, ResidentVector):
            return values
        nf = get_native_field(field.modulus)
        if nf is None:
            return super().resident(field, values)
        return ResidentVector(nf, self._rows_of(nf, values))

    def _lift(self, field, family: str, floor: Optional[int], *operands):
        """Route one vector op. Returns ``(nf, rows, wrap)`` — the
        native field, one raw-row array per operand, and the wrapper
        that turns result rows into what the caller was handed — or
        ``None`` when the op belongs to the inherited scalar loop.

        Any resident operand keeps the op resident (and ``wrap`` builds
        a :class:`ResidentVector`). An all-int call converts only when
        it has at least ``floor`` elements (``None``: never — the op's
        C time cannot repay the conversions) and the modulus has a
        native field; ``wrap`` is then the egress to a list. A dispatch
        to the kernels is noted in ``coverage`` under ``family``."""
        held = [v for v in operands if isinstance(v, ResidentVector)]
        if held:
            nf = held[0].nf
            wrap = partial(ResidentVector, nf)
        else:
            if floor is None or len(operands[0]) < floor:
                return None
            nf = get_native_field(field.modulus)
            if nf is None:
                return None
            wrap = nf.ints_from_words
        coverage.note(family)
        return nf, [self._rows_of(nf, v) for v in operands], wrap

    # -- fused NTT sweeps -------------------------------------------------------

    def ntt(self, field, values: Sequence[int], omega: Optional[int] = None,
            counter=None) -> List[int]:
        """The native Stockham sweep when :meth:`_lift` hands back rows,
        the inherited sweep (which counts for itself) otherwise."""
        from repro.ntt.reference import _check_size

        n = len(values)
        log_n = _check_size(n)
        if n == 1 and isinstance(values, ResidentVector):
            return values  # the identity
        lifted = self._lift(field, "ntt", 2, values)
        if lifted is None:
            return super().ntt(field, values, omega, counter)
        if omega is None:
            omega = field.root_of_unity(n)
        if counter is not None:
            # Identical totals to the scalar sweep's per-iteration counts.
            counter.count("butterfly", (n // 2) * log_n)
            counter.count("fr_mul", (n // 2) * log_n)
            counter.count("fr_add", n * log_n)
        nf, (rows,), wrap = lifted
        return wrap(nf.ntt_rows(field, rows, omega))

    def intt(self, field, values: Sequence[int], counter=None) -> List[int]:
        """Inverse sweep; the 1/N scale runs through :meth:`vscale` with
        the reference's fr_mul count. Int callers are lifted once
        around both steps."""
        from repro.ntt.reference import _check_size

        n = len(values)
        _check_size(n)
        vec = self.resident(field, values)
        out = self.ntt(field, vec, omega=field.inv_root_of_unity(n),
                       counter=counter)
        if counter is not None:
            counter.count("fr_mul", n)
        out = self.vscale(field, out, field.inv(n))
        return out if vec is values else self.ints(out)

    # -- batch field arithmetic -------------------------------------------------

    def vadd(self, field, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        """Resident operands: one ``mod_add_batch``. Int operands keep
        the scalar loop: two ingresses and an egress around one modular
        add cost 7-10x the loop they would replace (DESIGN.md)."""
        self._check_pair(xs, ys)
        lifted = self._lift(field, "pointwise", None, xs, ys)
        if lifted is None:
            return super().vadd(field, xs, ys)
        nf, (a, b), wrap = lifted
        return wrap(nf.add(a, b))

    def vsub(self, field, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        """Resident operands: one ``mod_sub_batch``; int operands keep
        the scalar loop (see :meth:`vadd`)."""
        self._check_pair(xs, ys)
        lifted = self._lift(field, "pointwise", None, xs, ys)
        if lifted is None:
            return super().vsub(field, xs, ys)
        nf, (a, b), wrap = lifted
        return wrap(nf.sub(a, b))

    def vmul_powers(self, field, xs: Sequence[int], g: int) -> List[int]:
        """Coset scaling: raw rows times the cached Montgomery ladder —
        one CIOS mul per element, ladder built by one sequential C
        sweep."""
        lifted = self._lift(field, "pointwise", 2, xs)
        if lifted is None:
            return super().vmul_powers(field, xs, g)
        nf, (a,), wrap = lifted
        return wrap(nf.mul(a, nf.mont_ladder(g, a.shape[0])))

    def vmul(self, field, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        """Pointwise product: two batched CIOS muls (x*y*R^-1, then
        fold by R^2)."""
        self._check_pair(xs, ys)
        lifted = self._lift(field, "pointwise", 1, xs, ys)
        if lifted is None:
            return super().vmul(field, xs, ys)
        nf, (a, b), wrap = lifted
        return wrap(nf.mul_raw(a, b))

    def vscale(self, field, xs: Sequence[int], k: int) -> List[int]:
        """Whole-vector scale by one constant: a broadcast native mul
        against the Montgomery row of k (the inverse NTT's 1/N scale and
        the quotient's z_inv scale)."""
        lifted = self._lift(field, "pointwise", 2, xs)
        if lifted is None:
            return super().vscale(field, xs, k)
        nf, (a,), wrap = lifted
        return wrap(nf.mul_const(a, nf.encode_const(k)))

    # -- scalar front-end -------------------------------------------------------

    @declassify("MSM scalar front-end (vectorized): digit matrices "
                "feed bucket routing, GZKP's public workload shape "
                "(Figure 6)")
    def digits_matrix(self, scalars: Sequence[int], scalar_bits: int,
                      window: int) -> "_np.ndarray":
        """All windows of all scalars at once: the scalar vector becomes
        one little-endian 32-bit word matrix, and each window column is
        two word lanes shifted and masked — no per-(scalar, window)
        Python loop. Returns an ``(n, windows)`` int64 array whose rows
        equal :func:`repro.msm.windows.scalar_digits` exactly."""
        from repro.msm.windows import num_windows

        w = num_windows(scalar_bits, window)
        n = len(scalars)
        if n == 0:
            return _np.zeros((0, w), dtype=_np.int64)
        if window > 30 or n < MIN_VECTOR_LANES:
            # Two 32-bit word lanes cover any window <= 30 without
            # overflowing int64; wider windows take the scalar loop, and
            # so do a few scalars, whose one pass per window costs more
            # than their python shifts.
            return _np.array(super().digits_matrix(scalars, scalar_bits,
                                                   window), dtype=_np.int64)
        # Cover every bit any window reads (the top window may reach
        # past scalar_bits), plus one guard word for the two-lane reads.
        w32 = (max(scalar_bits, w * window) + 31) // 32
        try:
            buf = b"".join(s.to_bytes(4 * w32, "little") for s in scalars)
        except OverflowError:
            # Negative (raises MsmError downstream) or oversized
            # scalars: delegate to the exact scalar path.
            return _np.array(super().digits_matrix(scalars, scalar_bits,
                                                   window), dtype=_np.int64)
        words = _np.frombuffer(buf, dtype="<u4").reshape(n, w32)
        words = _np.concatenate(
            [words.astype(_np.int64),
             _np.zeros((n, 1), dtype=_np.int64)], axis=1,
        )
        mask = (1 << window) - 1
        out = _np.empty((n, w), dtype=_np.int64)
        for t in range(w):
            wi, r = divmod(t * window, 32)
            acc = words[:, wi] >> r
            if r + window > 32:
                acc = acc | (words[:, wi + 1] << (32 - r))
            _np.bitwise_and(acc, mask, out=out[:, t])
        return out

    def digit_entries(self, digits, window: int, interval: int):
        """Index arithmetic on whole vectors over the non-zero digits
        only; row-major ``nonzero`` order is the scalar loop's exact
        entry order. Returns int64 arrays."""
        dm = _np.ascontiguousarray(digits, dtype=_np.int64)
        flat = _np.flatnonzero(dm)
        nz_i, nz_t = _np.divmod(flat, dm.shape[1])
        blocks = nz_t // interval
        slot_idx = ((nz_t - blocks * interval) * ((1 << window) - 1)
                    + dm.ravel()[flat] - 1)
        return slot_idx, blocks, nz_i

    # -- resident point rows ------------------------------------------------------
    # Lifting to Jacobian does no arithmetic, so a python list stays a
    # python list there: only a resident row has word rows to move.

    def resident_points(self, group, points: Sequence) -> Sequence:
        """A :class:`ResidentPoints` row when the group has a native
        engine (an already-resident row is returned as is), a plain list
        otherwise."""
        if isinstance(points, ResidentPoints):
            return points
        eng = _native_engine(group)
        if eng is None:
            return super().resident_points(group, points)
        inf = _np.fromiter((p is None for p in points), dtype=bool,
                           count=len(points))
        if inf.any():
            zero = group.ops.zero
            points = [(zero, zero) if p is None else p for p in points]
        return ResidentPoints(eng, eng.rows([p[0] for p in points]),
                              eng.rows([p[1] for p in points]), inf)

    def batch_to_jacobian(self, group, points: Sequence) -> Sequence:
        """A resident affine row as bucket rows (z = 1, or (1, 1, 0) on
        the ``None`` lanes): the table's rows as they are, no
        arithmetic."""
        if not isinstance(points, ResidentPoints):
            return super().batch_to_jacobian(group, points)
        eng = points.eng
        x, y, z = points.x, points.y, _np.tile(eng.one, (len(points), 1))
        if points.inf.any():
            dead = points.inf[:, None]
            x, y = _np.where(dead, z, x), _np.where(dead, z, y)
            z = _np.where(dead, _np.zeros_like(z), z)
        return ResidentBuckets(eng, x, y, z)

    def batch_from_jacobian(self, group, points: Sequence) -> Sequence:
        """One C call (``point_op("affine")``) that shares a single
        field inversion among all live lanes and writes x/z^2, y/z^3,
        and (0, 0) for an infinite lane — :meth:`resident_points`' byte
        form of ``None``. A bucket row comes back as a resident affine
        row, a python list as a list."""
        eng = self._engine_for(group, points)
        if eng is None:
            return super().batch_from_jacobian(group, points)
        jps = _lift_buckets(eng, points)
        x, y = eng.point_op("affine", jps)
        out = ResidentPoints(eng, x, y, ~jps.z.any(axis=1))
        return out if jps is points else out.tolist()

    # -- batch curve ops (Jacobian) ---------------------------------------------

    @staticmethod
    def _engine_for(group, *rows):
        """The engine a batch op over these Jacobian rows runs on, or
        None for the inherited loop: a resident row's own, whatever its
        length; the group's once a python row clears
        ``MIN_VECTOR_LANES``."""
        eng = next((r.eng for r in rows if isinstance(r, ResidentBuckets)),
                   None)
        if eng is None and len(rows[0]) >= MIN_VECTOR_LANES:
            eng = _native_engine(group)
        if eng is not None:
            coverage.note("jacobian")
        return eng

    @staticmethod
    def _point_rows(eng, op: str, *rows, **kernel_args) -> Sequence:
        """One lane-wise point kernel over the rows, as the kind of row
        it was handed: resident if any operand was."""
        lifted = [_lift_buckets(eng, r) for r in rows]
        out = ResidentBuckets(eng, *eng.point_op(op, *lifted,
                                                 **kernel_args))
        if any(a is b for a, b in zip(lifted, rows)):
            return out
        return out.tolist()

    def batch_jdouble(self, group, points: Sequence) -> Sequence:
        eng = self._engine_for(group, points)
        if eng is None:
            return super().batch_jdouble(group, points)
        return self._point_rows(eng, "dbl", points)

    def batch_jadd(self, group, ps: Sequence, qs: Sequence) -> Sequence:
        """Doubling lanes (u1 == u2, s1 == s2) take the doubling in C
        and are counted as the scalar ``jdouble`` counts itself; the
        rows may be the same object."""
        self._check_pair(ps, qs, CurveError)
        eng = self._engine_for(group, ps, qs)
        if eng is None:
            return super().batch_jadd(group, ps, qs)
        return self._point_rows(eng, "add", ps, qs)

    def batch_jmixed_add(self, group, ps: Sequence, qs: Sequence) -> List:
        """The affine operands lifted to Jacobian (z = 1) into the
        ``jadd`` kernel: ``jmixed_add`` *is* ``jadd`` with z2 = 1 —
        same u/s/h/r values, same routing, same single padd — so there
        is no mixed-add kernel. A ``None`` lifts to p's own x/y with
        z = 0: ``jadd`` hands p back for it, and when p is infinite too
        hands back q — which is then p again, as ``jmixed_add``
        returns."""
        self._check_pair(ps, qs, CurveError)
        eng = self._engine_for(group, ps)
        if eng is None:
            return super().batch_jmixed_add(group, ps, qs)
        o = group.ops
        return self._point_rows(eng, "add", ps, [
            (p[0], p[1], o.zero) if q is None else (q[0], q[1], o.one)
            for p, q in zip(ps, qs)])

    def bucket_reduce(self, group, buckets: Sequence):
        """One call into the sequential C fold — ``running += B_j;
        total += running``, last bucket first, the formulas, operand
        order and special-case routing of
        :func:`repro.msm.pippenger.bucket_reduce`, bit for bit — with
        the fold's own padd/pdbl tallies booked."""
        eng = self._engine_for(group, buckets)
        if eng is None:
            return super().bucket_reduce(group, buckets)
        return ResidentBuckets(
            eng, *eng.point_op("fold", _lift_buckets(eng, buckets)))[0]

    def window_sum(self, group, table: Sequence, idx, doublings: int):
        """One C call (``point_op("windows")``) runs every lane's whole
        window loop — at any lane count, since one kernel call per
        doubling round would cost more than python's own ``jdouble``.
        A python table is lifted for the call, and the sums then come
        back as a python list."""
        eng = (table.eng if isinstance(table, ResidentBuckets)
               else _native_engine(group))
        if eng is None:
            return super().window_sum(group, table, idx, doublings)
        coverage.note("jacobian")
        return self._point_rows(eng, "windows", table, ids=idx,
                                doublings=doublings)

    # -- point-merging ----------------------------------------------------------

    def accumulate_buckets(self, group, buckets: List,
                           entries: Sequence[Tuple[int, object]]) -> List:
        """:func:`_merge_tree` over python ``(bucket index, affine
        point)`` entries. Surviving lanes land in ``buckets`` as
        (x, y, 1) Jacobian representatives, merged with the
        self-counting ``jadd`` when the incoming bucket is not
        infinity."""
        items = [(idx, pt) for idx, pt in entries if pt is not None]
        eng = (_native_engine(group)
               if len(items) >= SEGMENTED_MIN_ENTRIES else None)
        if eng is None:
            return super().accumulate_buckets(group, buckets, entries)
        coverage.note("jacobian")
        idxs = _np.fromiter((i for i, _ in items), dtype=_np.int64,
                            count=len(items))
        order = _stable_argsort(idxs, len(buckets))
        pts = [items[int(k)][1] for k in order]
        X = eng.rows([p[0] for p in pts])

        def fold_flagged(flagged):
            flagset = {int(b) for b in flagged}
            for idx, pt in items:
                if idx in flagset:
                    buckets[idx] = group.jmixed_add(buckets[idx], pt)

        tree = _tree_entries(idxs[order], X, fold_flagged)
        if tree is not None:  # the full rows go before the kept are read
            del X
            order = order[tree]
            pts = [p for p, kept in zip(pts, tree.tolist()) if kept]
            X = eng.rows([p[0] for p in pts])
        ids, X, Y = _merge_tree(eng, group, idxs[order], X,
                                eng.rows([p[1] for p in pts]))
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

    def accumulate_table(self, group, table: Sequence, n_slots: int,
                         slot_idx, row_idx, col_idx) -> Sequence:
        """Point-merging straight off the checkpoint table, returned as
        :class:`ResidentBuckets`: gather the entries' table lanes, run
        :func:`_merge_tree`, scatter the survivors — no python point
        exists between the table and the bucket rows, except in buckets
        fed one x twice, whose few points are decoded for the exact
        scalar fold in entry order. Python table rows are made resident
        first, and then the buckets come back as a python list."""
        slots = _np.asarray(slot_idx, dtype=_np.int64)
        eng = (_native_engine(group)
               if slots.size >= SEGMENTED_MIN_ENTRIES else None)
        if eng is None:
            return super().accumulate_table(
                group, table, n_slots,
                *(_np.asarray(v).tolist()
                  for v in (slot_idx, row_idx, col_idx)))
        coverage.note("jacobian")
        resident = all(isinstance(row, ResidentPoints) for row in table)
        table = [self.resident_points(group, row) for row in table]
        rows = _np.asarray(row_idx, dtype=_np.int64)
        cols = _np.asarray(col_idx, dtype=_np.int64)
        if any(r.inf.any() for r in table):  # a None point adds nothing
            keep = ~_np.stack([r.inf for r in table])[rows, cols]
            slots, rows, cols = slots[keep], rows[keep], cols[keep]
        # Tree order: by bucket, and within a bucket by table row — any
        # order will do there, since buckets fed one x twice leave the tree.
        order = _stable_argsort(rows, len(table))
        order = order[_stable_argsort(slots[order], n_slots)]
        flat = _table_index(table, rows, cols)[order]
        X = _table_lanes(table, flat, "x")
        folded = {}

        def fold_flagged(flagged):
            o = group.ops
            infinity = (o.one, o.one, o.zero)
            for j in _np.flatnonzero(_np.isin(slots, flagged)).tolist():
                s = int(slots[j])
                folded[s] = group.jmixed_add(folded.get(s, infinity),
                                             table[rows[j]][cols[j]])

        tree = _tree_entries(slots[order], X, fold_flagged)
        if tree is not None:  # the full rows go before the kept are read
            del X
            order, flat = order[tree], flat[tree]
            X = _table_lanes(table, flat, "x")
        ids, X, Y = _merge_tree(eng, group, slots[order], X,
                                _table_lanes(table, flat, "y"))
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
        out = ResidentBuckets(eng, x, y, z)
        return out if resident else out.tolist()
