"""The :class:`ComputeBackend` protocol: batch field and curve ops.

Every hot path in the reproduction (NTT butterfly sweeps, MSM bucket
accumulation, polynomial pointwise passes) expresses its inner loop as a
*batch* operation against a backend instead of a per-element Python
loop. A backend changes *how* the math runs, never *what* is computed or
counted: all implementations must be bit-exact against the reference
int path, and op-count emission stays at the call sites (or, for the
fused NTT sweeps, is reproduced exactly by the backend).

This base class is itself a complete backend: every method has a
pure-Python default that preserves today's exact evaluation order, so
:class:`~repro.backend.pybackend.PythonBackend` is simply this class
with a name. :mod:`repro.backend.kernel_backend` overrides a method only
where it has a kernel that beats this loop — an override must beat the
loop it overrides.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.declass import declassify
from repro.errors import CurveError, FieldError
from repro.ff.opcount import count

__all__ = ["ComputeBackend"]


class ComputeBackend:
    """Batch compute interface shared by NTT, MSM and polynomial paths.

    Field ops take a :class:`~repro.ff.primefield.PrimeField` and a
    vector that is either a sequence of ints or this backend's
    *resident vector* (:meth:`resident`). The seven vector ops —
    :meth:`ntt`, :meth:`intt`, :meth:`vadd`, :meth:`vsub`, :meth:`vmul`,
    :meth:`vscale`, :meth:`vmul_powers` — return the representation
    they were handed: ints in, a ``list`` of canonical ints out;
    resident in, resident out.

    Curve ops take a :class:`~repro.curves.weierstrass.CurveGroup` and
    rows of its points, each either a python list of point tuples or
    one of this backend's two *resident rows*: an affine row
    (:meth:`resident_points`; the MSM checkpoint table is made of
    them) and a Jacobian bucket row (what :meth:`accumulate_table`,
    :meth:`batch_to_jacobian`, :meth:`batch_jdouble` and
    :meth:`batch_jadd` return when handed resident rows). They are
    type-preserving in the same way — lists in, a ``list`` out — and
    here both resident forms *are* plain lists. Methods never mutate
    their inputs unless documented (:meth:`accumulate_buckets` mutates
    the bucket list in place, matching the MSM engines' usage).
    """

    name = "abstract"
    #: True when :meth:`ntt` runs a fused whole-vector sweep that the
    #: batched executor may substitute for its per-group schedule.
    fuses_ntt_sweeps = False

    # -- resident vectors --------------------------------------------------------

    def resident(self, field, values: Sequence[int]):
        """``values`` reduced mod p in the form this backend's kernels
        keep between calls — the one ingress of a chain of vector ops.
        Here that form is the canonical ``list`` itself; a backend with
        a kernel-side layout returns an immutable ``Sequence[int]`` over
        it, and returns an already-resident vector as the same object
        (so ``be.resident(field, v) is v`` tells a caller it was handed
        one)."""
        p = field.modulus
        return [v % p for v in values]

    def ints(self, vec: Sequence[int]) -> List[int]:
        """A fresh ``list`` of the canonical ints of a vector — the one
        egress of a chain of vector ops."""
        return list(vec)

    # -- batch field arithmetic -------------------------------------------------

    @staticmethod
    def _check_pair(xs: Sequence, ys: Sequence, error=FieldError) -> None:
        """Two operands of a pairwise op (field vectors, or point rows
        with ``error=CurveError``) must be equally long."""
        if len(xs) != len(ys):
            raise error(f"length mismatch: {len(xs)} vs {len(ys)}")

    def vadd(self, field, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        self._check_pair(xs, ys)
        p = field.modulus
        return [(a + b) % p for a, b in zip(xs, ys)]

    def vsub(self, field, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        self._check_pair(xs, ys)
        p = field.modulus
        return [(a - b) % p for a, b in zip(xs, ys)]

    def vmul(self, field, xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        self._check_pair(xs, ys)
        p = field.modulus
        return [a * b % p for a, b in zip(xs, ys)]

    def vneg(self, field, xs: Sequence[int]) -> List[int]:
        p = field.modulus
        return [(-a) % p for a in xs]

    def vscale(self, field, xs: Sequence[int], k: int) -> List[int]:
        p = field.modulus
        k %= p
        return [a * k % p for a in xs]

    def vmul_powers(self, field, xs: Sequence[int], g: int) -> List[int]:
        """Element i scaled by g^i (coset scaling of the POLY stage)."""
        p = field.modulus
        out = []
        acc = 1
        for v in xs:
            out.append(v * acc % p)
            acc = acc * g % p
        return out

    def batch_inv(self, field, xs: Sequence[int]) -> List[int]:
        """Montgomery's trick: one inversion plus 3(n-1) multiplications."""
        return field.batch_inv(xs)

    # -- scalar front-end -------------------------------------------------------

    @declassify("MSM scalar front-end: the digit matrix feeds bucket "
                "routing, which GZKP treats as public workload "
                "shape (Figure 6)")
    def digits_matrix(self, scalars: Sequence[int], scalar_bits: int,
                      window: int) -> Sequence[Sequence[int]]:
        """Base-2^k digit matrix of a whole scalar vector: row i holds
        :func:`repro.msm.windows.scalar_digits` of ``scalars[i]``
        (least-significant window first).

        This is the MSM scalar front-end — every windowed engine starts
        here. The return value is any row-iterable matrix whose rows
        equal the per-scalar digit lists (the numpy backend returns an
        ``(n, windows)`` int64 array; callers that can exploit the array
        form duck-type on ``.nonzero``). Digit values are always exactly
        those of the scalar loop."""
        from repro.msm.windows import scalar_digits

        return [scalar_digits(s, scalar_bits, window) for s in scalars]

    def digit_entries(self, digits, window: int, interval: int):
        """The non-zero digits of a :meth:`digits_matrix` result as
        GZKP point-merging entries, in the scalar loop's order (scalar
        by scalar, window by window): index vectors ``(slot_idx,
        row_idx, col_idx)`` where the digit d of scalar i at window
        t = row * interval + w reads checkpoint-table point
        ``table[row][i]`` into sub-bucket ``w * (2^window - 1) + d - 1``.
        Lists here; a backend whose digit matrix is an array returns
        arrays."""
        n_buckets = (1 << window) - 1
        slot_idx, row_idx, col_idx = [], [], []
        for i, row in enumerate(digits):
            for t, d in enumerate(row):
                if d:
                    block, residual = divmod(t, interval)
                    slot_idx.append(residual * n_buckets + d - 1)
                    row_idx.append(block)
                    col_idx.append(i)
        return slot_idx, row_idx, col_idx

    # -- fused NTT sweeps -------------------------------------------------------

    def ntt(self, field, values: Sequence[int],
            omega: Optional[int] = None) -> List[int]:
        """Full forward butterfly sweep, natural order in and out.

        Byte-identical to :func:`repro.ntt.reference.ntt` (which is the
        default route into this method), including the op counts it
        emits: per iteration N/2 butterflies, N/2 fr_muls, N fr_adds.
        Raises :class:`~repro.errors.NttError` unless ``len(values)`` is
        a power of two; size 1 is the identity.
        """
        from repro.ntt.reference import _check_size, _ntt_inplace

        _check_size(len(values))
        a = [v % field.modulus for v in values]
        if omega is None:
            omega = field.root_of_unity(len(a))
        _ntt_inplace(field, a, omega)
        return a

    def intt(self, field, values: Sequence[int]) -> List[int]:
        """Inverse sweep including the 1/N scale (counts fr_mul N)."""
        from repro.ntt.reference import _check_size

        n = len(values)
        _check_size(n)
        a = self.ntt(field, values, omega=field.inv_root_of_unity(n))
        n_inv = field.inv(n)
        p = field.modulus
        for i in range(n):
            a[i] = a[i] * n_inv % p
        count("fr_mul", n)
        return a

    # -- resident point rows ------------------------------------------------------

    def resident_points(self, group, points: Sequence) -> Sequence:
        """A row of affine points (``None`` = infinity) in the form this
        backend's kernels keep between calls — the one ingress of a
        checkpoint table, at setup. Here that form is a plain ``list``;
        a backend with a kernel-side layout returns an immutable
        read-only ``Sequence`` over it (indexing, slicing, iterating
        and ``==`` decode just what is read), and returns an
        already-resident row as the same object."""
        return list(points)

    def batch_to_jacobian(self, group, points: Sequence) -> Sequence:
        """``group.to_jacobian`` of every point of an affine row, as a
        Jacobian row of the same kind (list in, list out)."""
        return [group.to_jacobian(p) for p in points]

    def batch_from_jacobian(self, group, points: Sequence) -> Sequence:
        """``group.from_jacobian`` of every point of a Jacobian row, as
        an affine row of the same kind. One inversion is shared across
        the row (Montgomery's trick); the affine coordinates are
        unique, so the result is the per-point loop's."""
        return group.batch_normalize(points)

    # -- batch curve ops (Jacobian) ---------------------------------------------

    def batch_jdouble(self, group, points: Sequence) -> Sequence:
        """One doubling of every point (a fold step of the MSM engines).

        Overrides must be bit-identical to this loop, including the op
        counts ``group`` emits (special-case lanes are routed exactly
        as the scalar formulas route them), and hand a resident bucket
        row back for a resident bucket row."""
        return [group.jdouble(p) for p in points]

    def batch_jadd(self, group, ps: Sequence, qs: Sequence) -> Sequence:
        """Pairwise Jacobian addition of two equal-length point rows
        (same bit-identity and type-preservation contract as
        :meth:`batch_jdouble`; the rows may be the same object).
        Rows of different lengths raise
        :class:`~repro.errors.CurveError`."""
        self._check_pair(ps, qs, CurveError)
        return [group.jadd(p, q) for p, q in zip(ps, qs)]

    def batch_jmixed_add(self, group, ps: Sequence, qs: Sequence) -> List:
        """Pairwise Jacobian += affine addition (same bit-identity
        contract as :meth:`batch_jdouble`, same length check as
        :meth:`batch_jadd`)."""
        self._check_pair(ps, qs, CurveError)
        return [group.jmixed_add(p, q) for p, q in zip(ps, qs)]

    def window_sum(self, group, table: Sequence, idx, doublings: int):
        """A windowed scalar multiplication per lane over one shared
        Jacobian table (a list, or this backend's resident bucket row):
        lane i starts at infinity and, for each window t from the last
        column of ``idx`` down to the first, doubles ``doublings`` times
        and adds ``table[idx[i, t]]``. Returns the Jacobian row of the
        lanes' sums, of the table's kind. ``idx`` is an ``(n, windows)``
        int64 numpy array whose every entry names a table row —
        :func:`repro.backend.native.window_index` refuses anything else,
        here as at the C boundary.

        This default is that loop on the scalar ``jdouble`` / ``jadd``,
        counting through ``group``; an override returns the same points
        with the same padd/pdbl totals (a doubling or an addition onto
        infinity is count-free, as the scalar formulas make it)."""
        from repro.backend.native import window_index

        idx = window_index(idx, len(table))
        o = group.ops
        out = []
        for lane in idx.tolist():
            acc = (o.one, o.one, o.zero)
            for t in reversed(lane):
                for _ in range(doublings):
                    acc = group.jdouble(acc)
                acc = group.jadd(acc, table[t])
            out.append(acc)
        return out

    def accumulate_buckets(self, group, buckets: List,
                           entries: Sequence[Tuple[int, object]]) -> List:
        """Point-merging over python points: fold (bucket index, affine
        point) entries into the python list ``buckets`` in place and
        return it — the front-end of the window-per-thread engines
        (:class:`~repro.msm.pippenger.SubMsmPippenger`); GZKP's own
        merge reads a checkpoint table through :meth:`accumulate_table`
        under the same contract.

        This default folds in the engines' original scalar order.
        Overrides MAY reassociate the per-bucket sums (e.g. the
        segmented tree of :mod:`repro.backend.kernel_backend`) under this
        contract:

        * each resulting bucket is *group-equal* to the ordered fold's,
          but may be any Jacobian representative — e.g. (x, y, 1) — so
          downstream consumers must compare points via
          ``group.from_jacobian`` (every in-repo consumer already
          normalizes before use);
        * PADD/PDBL totals must match the ordered fold exactly. A
          reassociated schedule meets different equality events than
          the fold when a bucket receives the same x-coordinate twice
          (a duplicated or negated base — real proving keys do repeat
          bases), so overrides detect such buckets up front and route
          them through this scalar fold verbatim. The one remaining
          divergence window is an entry colliding with a *partial sum*
          of its bucket — a discrete-log event for honest inputs, which
          the repo's own keys cannot hit.
        """
        for idx, point in entries:
            buckets[idx] = group.jmixed_add(buckets[idx], point)
        return buckets

    def accumulate_table(self, group, table: Sequence, n_slots: int,
                         slot_idx: Sequence[int], row_idx: Sequence[int],
                         col_idx: Sequence[int]) -> Sequence:
        """Point-merging off a checkpoint table: entry j adds the affine
        point ``table[row_idx[j]][col_idx[j]]`` into bucket
        ``slot_idx[j]`` of a fresh row of ``n_slots`` infinity buckets,
        which is returned (a Jacobian row of the table rows' kind: a
        ``list`` here, a resident bucket row from a backend whose table
        rows are resident). The index vectors are what
        :meth:`digit_entries` produces.

        This default is the ordered ``jmixed_add`` loop in entry order;
        overrides may reassociate under exactly the contract of
        :meth:`accumulate_buckets` (group-equal buckets, PADD/PDBL
        totals of the ordered fold)."""
        o = group.ops
        buckets = [(o.one, o.one, o.zero)] * n_slots
        for slot, row, col in zip(slot_idx, row_idx, col_idx):
            buckets[slot] = group.jmixed_add(buckets[slot], table[row][col])
        return buckets

    def bucket_reduce(self, group, buckets: Sequence):
        """Bucket-reduction: sum of (j+1) * buckets[j] over a row of
        Jacobian buckets (a list or a resident bucket row), returned as
        one Jacobian point tuple.

        This is the exact ordered running-suffix fold of
        :func:`repro.msm.pippenger.bucket_reduce` (2 jadds per bucket),
        counting on the active op-count scope as the fold always has. An
        override must beat this loop (DESIGN.md, "Compute backends",
        records the scan that did not and the sequential C fold that
        does) and MAY return any group-equal Jacobian representative
        (every consumer normalizes via ``group.from_jacobian``), with
        PADD/PDBL totals identical to this fold's, including its
        data-dependent skips when an operand is the point at infinity
        and its doubling/cancellation routing when two operands share
        an x."""
        from repro.msm.pippenger import bucket_reduce

        return bucket_reduce(group, buckets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
