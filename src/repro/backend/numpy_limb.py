"""NumpyLimbBackend: the native kernels behind the backend protocol.

Its class docstring states the one dispatch rule. numpy supplies the row
plumbing and the vectorized MSM digit front-end, not an arithmetic tier:
"limb" names the float-limb NTT this module once held (DESIGN.md,
"Compute backends"). Results and op counts are the ``python`` backend's.
"""

from __future__ import annotations

from collections.abc import Sequence as _Sequence
from functools import partial
from typing import List, Optional, Sequence

from repro.analysis.declass import declassify
from repro.backend import coverage as _coverage
from repro.backend.base import ComputeBackend
from repro.backend.native import get_native_field
from repro.errors import CurveError

try:  # numpy ships with the repo's environment, but stay importable without
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

__all__ = ["NumpyLimbBackend", "ResidentVector", "numpy_available"]


def numpy_available() -> bool:
    return _np is not None


# -- resident vectors ----------------------------------------------------------


class ResidentVector(_Sequence):
    """A field vector held as the native kernels hold it: ``(n, w)``
    little-endian uint64 rows of *raw* (not Montgomery) residues, every
    row canonical in [0, p).

    This is :class:`NumpyLimbBackend`'s resident form. The seven vector
    ops hand one back whenever they are handed one, so a chain of calls
    (the POLY stage's seven NTTs and eleven pointwise passes) converts
    ints to rows once on the way in and rows to ints once on the way
    out. It is immutable — the rows are marked read-only and no op
    writes into an operand — so aliased operands (``vmul(v, v)``) and
    returning an operand unchanged (the size-1 NTT) are both safe.

    It is also a read-only ``Sequence[int]``: code that knows nothing
    about it (another backend, a user's NTT engine) reads canonical
    ints, decoded once on first access. Without kernels ``resident()``
    is the base class's reduced list.
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


# -- the backend ---------------------------------------------------------------


class NumpyLimbBackend(ComputeBackend):
    """One dispatch rule for every op: the native C kernel when one is
    loaded for this modulus/group (:mod:`repro.backend.native`, driven
    for curve ops through :mod:`repro.backend.numpy_curve`), otherwise
    the inherited scalar loop, with no exception. ``digits_matrix`` is
    vectorized unconditionally. Small batches stay on the scalar
    loops.

    The field ops run on :class:`ResidentVector` rows and are
    type-preserving over them (:meth:`_lift`): an int caller gets
    ``egress(op(ingress(x)))`` through the same code a resident caller
    runs, and this class is the only place ints become word rows
    (:meth:`_rows_of`) or word rows become ints
    (``NativeField.ints_from_words``). The curve ops do the same over
    :mod:`repro.backend.numpy_curve`'s two resident point rows (affine
    table rows, Jacobian bucket rows), whose int boundary lives
    there."""

    name = "numpy"
    fuses_ntt_sweeps = True

    def __init__(self):
        if _np is None:  # pragma: no cover - exercised only without numpy
            raise RuntimeError(
                "NumpyLimbBackend requires numpy; install it or use "
                "REPRO_BACKEND=python"
            )

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
        """A :class:`ResidentVector` when the kernels are loaded for
        this modulus (an already-resident vector is returned as is),
        the reduced list otherwise."""
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
        C time cannot repay the conversions) and the kernels are
        loaded; ``wrap`` is then the egress to a list. Notes the
        coverage tally as a dispatch decision; a batch below its floor
        is a size choice and stays silent."""
        held = [v for v in operands if isinstance(v, ResidentVector)]
        if held:
            nf = held[0].nf
            wrap = partial(ResidentVector, nf)
        else:
            if floor is None or len(operands[0]) < floor:
                return None
            nf = get_native_field(field.modulus)
            if nf is None:
                _coverage.note(family, "fallback")
                return None
            wrap = nf.ints_from_words
        _coverage.note(family, "native")
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
        """Inverse sweep; the 1/N scale runs through :meth:`vscale`
        (native broadcast mul when available) with the reference's
        fr_mul count. Int callers are lifted once around both steps."""
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
        sweep — when the kernels are loaded, scalar loop otherwise."""
        lifted = self._lift(field, "pointwise", 2, xs)
        if lifted is None:
            return super().vmul_powers(field, xs, g)
        nf, (a,), wrap = lifted
        return wrap(nf.mul(a, nf.mont_ladder(g, a.shape[0])))

    def vmul(self, field, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        """Pointwise product: two batched CIOS muls (x*y*R^-1, then
        fold by R^2) when the kernels are loaded, scalar loop
        otherwise."""
        self._check_pair(xs, ys)
        lifted = self._lift(field, "pointwise", 1, xs, ys)
        if lifted is None:
            return super().vmul(field, xs, ys)
        nf, (a, b), wrap = lifted
        return wrap(nf.mul_raw(a, b))

    def vscale(self, field, xs: Sequence[int], k: int) -> List[int]:
        """Whole-vector scale by one constant: a broadcast native mul
        against the Montgomery row of k when the kernels are loaded
        (the inverse NTT's 1/N scale and the quotient's z_inv scale),
        scalar loop otherwise."""
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
        if window > 30:
            # Two 32-bit word lanes cover any window <= 30 without
            # overflowing int64; wider windows take the scalar loop.
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

    # -- batch curve ops --------------------------------------------------------
    # numpy_curve returns None (and notes the coverage fallback) when
    # the group has no native engine; below the lane/entry thresholds
    # the scalar loop is a size choice and stays silent. A resident row
    # stays on the kernels whatever its length, and its read-only
    # Sequence behaviour keeps every inherited loop correct for it.

    def resident_points(self, group, points: Sequence) -> Sequence:
        """A :class:`~repro.backend.numpy_curve.ResidentPoints` row when
        the kernels serve this group (an already-resident row is
        returned as is), a plain list otherwise."""
        from repro.backend import numpy_curve as _nc

        out = _nc.resident_points(group, points)
        return super().resident_points(group, points) if out is None else out

    def gather_points(self, row: Sequence, idx: Sequence[int]) -> Sequence:
        """A resident row gathers its word planes by the index vector;
        a list takes the inherited comprehension."""
        from repro.backend import numpy_curve as _nc

        if isinstance(row, _nc.ResidentPoints):
            return _nc.gather_points(row, idx)
        return super().gather_points(row, idx)

    def batch_to_jacobian(self, group, points: Sequence) -> Sequence:
        from repro.backend import numpy_curve as _nc

        if isinstance(points, _nc.ResidentPoints):
            out = _nc.batch_to_jacobian(group, points)
            if out is not None:
                return out
        return super().batch_to_jacobian(group, points)

    def batch_from_jacobian(self, group, points: Sequence) -> Sequence:
        from repro.backend import numpy_curve as _nc

        if isinstance(points, _nc.ResidentBuckets):
            out = _nc.batch_from_jacobian(group, points)
            if out is not None:
                return out
        return super().batch_from_jacobian(group, points)

    def batch_jdouble(self, group, points: Sequence) -> Sequence:
        from repro.backend import numpy_curve as _nc

        if _nc.vectorizes(points):
            out = _nc.batch_jdouble(group, points)
            if out is not None:
                return out
        return super().batch_jdouble(group, points)

    def batch_jadd(self, group, ps: Sequence, qs: Sequence) -> Sequence:
        from repro.backend import numpy_curve as _nc

        self._check_pair(ps, qs, CurveError)
        if _nc.vectorizes(ps, qs):
            out = _nc.batch_jadd(group, ps, qs)
            if out is not None:
                return out
        return super().batch_jadd(group, ps, qs)

    def batch_jmixed_add(self, group, ps: Sequence, qs: Sequence) -> List:
        """The affine operands lifted to Jacobian (z = 1) into the
        ``jadd`` kernel: ``jmixed_add`` *is* ``jadd`` with z2 = 1 —
        same u/s/h/r values, same routing, same single padd — so there
        is no mixed-add kernel. A ``None`` lifts to p's own x/y with
        z = 0: ``jadd`` hands p back for it, and when p is infinite too
        hands back q — which is then p again, as ``jmixed_add``
        returns."""
        from repro.backend import numpy_curve as _nc

        self._check_pair(ps, qs, CurveError)
        if len(ps) >= _nc.MIN_VECTOR_LANES:
            o = group.ops
            out = _nc.batch_jadd(group, ps, [
                (p[0], p[1], o.zero) if q is None else (q[0], q[1], o.one)
                for p, q in zip(ps, qs)])
            if out is not None:
                return out
        return super().batch_jmixed_add(group, ps, qs)

    def accumulate_buckets(self, group, buckets: List, entries) -> List:
        from repro.backend import numpy_curve as _nc

        out = _nc.accumulate_buckets_segmented(group, buckets, entries)
        if out is None:
            return super().accumulate_buckets(group, buckets, entries)
        return out

    def accumulate_table(self, group, table: Sequence, n_slots: int,
                         slot_idx, row_idx, col_idx) -> Sequence:
        from repro.backend import numpy_curve as _nc

        out = _nc.accumulate_table_segmented(group, table, n_slots,
                                             slot_idx, row_idx, col_idx)
        if out is None:
            return super().accumulate_table(
                group, table, n_slots,
                *(_np.asarray(v).tolist()
                  for v in (slot_idx, row_idx, col_idx)))
        return out

    def bucket_reduce(self, group, buckets: Sequence):
        """One call into the sequential C fold (2 ``jadd``s per bucket,
        special cases routed in C, tallies booked here) when the
        kernels serve this group; the inherited ordered loop
        otherwise."""
        from repro.backend import numpy_curve as _nc

        if _nc.vectorizes(buckets):
            out = _nc.bucket_reduce(group, buckets)
            if out is not None:
                return out
        return super().bucket_reduce(group, buckets)
