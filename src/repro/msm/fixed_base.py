"""Fixed-base scalar multiplication on the compute backend's point rows.

GZKP's checkpoint preprocessing (§4.1, Algorithm 1:
``P_{i,t} = 2^(t*k) * P_i``) trades doublings for a table because the
point vector is fixed. Its purest case is *one* fixed base and many
scalars — the trusted setup's ``s * G`` per query element, the prover's
``r * delta`` masking terms — where the table is Algorithm 1 at one
point and interval M = 1, widened by the digit: ``T[t][d] =
d * 2^(t*k) * B``. A scalar's multiple is then one table read per
window and an addition; no doubling is ever done per scalar.

There is one body, written against the :class:`~repro.backend.base.
ComputeBackend` batch API exactly as :meth:`GzkpMsm.preprocess` is: the
reference backend runs it as list loops, a backend with resident rows
keeps the table and the n-lane accumulator in Montgomery word rows.
:meth:`CurveGroup.scalar_mul` stays the reference the tests compare
against.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.declass import declassify
from repro.backend import get_backend
from repro.curves.weierstrass import AffinePoint, CurveGroup
from repro.msm.windows import num_windows

__all__ = ["FixedBaseTable", "fixed_base_mul"]

#: widest window the rule considers (2^16 table rows per window)
_MAX_WINDOW = 16


def _window_for(scalar_bits: int, serves: int) -> int:
    """The one place the window k is decided, from what a table's
    builder observes: how wide its scalars are and how many it will
    serve. Each of the ``2^k - 2`` multiples of a window costs one
    addition to make and about one more to normalise and lay out (the
    doubling chain is ``scalar_bits`` long whatever k is); every scalar
    served costs one addition per window; k minimises the sum."""
    def additions(k: int) -> int:
        return num_windows(scalar_bits, k) * (2 * ((1 << k) - 2) + serves)

    return min(range(1, _MAX_WINDOW + 1), key=additions)


def _columns(digits):
    """The window columns of a ``digits_matrix`` result: the transpose
    of the ``(n, windows)`` array, or of the list of digit rows."""
    return digits.T if hasattr(digits, "T") else zip(*digits)


class FixedBaseTable:
    """The window table of one base, ``T[t][d] = d * 2^(t*k) * B`` for
    every window t of an order-sized scalar and digit d < 2^k, as one
    affine row of the backend's resident form per window (``T[t][0]``
    is the point at infinity).

    ``serves`` is how many scalars the builder expects to put through
    the table; with the scalar width it fixes the window
    (:func:`_window_for`). The table holds only multiples of a public
    point, so it may outlive a call — a prover keeps its two beside its
    MSM contexts.
    """

    def __init__(self, group: CurveGroup, base: AffinePoint, serves: int,
                 backend=None):
        self.group = group
        self.backend = get_backend(backend)
        self.scalar_bits = group.order.bit_length()
        self.window = _window_for(self.scalar_bits, serves)
        #: T[t] per window t; empty for the point at infinity, whose
        #: every multiple is the point at infinity
        self.rows = [] if base is None else self._build(base)

    def _build(self, base: AffinePoint) -> List[Sequence[AffinePoint]]:
        group, backend, k = self.group, self.backend, self.window
        # Window bases 2^(t*k) * B: one doubling chain, a single lane.
        jp = group.to_jacobian(base)
        chain = [jp]
        for _ in range(1, num_windows(self.scalar_bits, k)):
            for _ in range(k):
                jp = group.jdouble(jp)
            chain.append(jp)
        affine = [backend.resident_points(group,
                                          group.batch_normalize(chain))]
        # Multiples d * 2^(t*k) * B with the windows as lanes: row d is
        # row d - 1 plus row 1 (d = 2 takes the addition's doubling
        # route), normalised as it is made so that one Jacobian row is
        # alive at a time.
        row = ones = backend.batch_to_jacobian(group, affine[0])
        for _ in range(2, 1 << k):
            row = backend.batch_jadd(group, row, ones)
            affine.append(backend.batch_from_jacobian(group, row))
        # Transposed into T[t][0 .. 2^k): one ingress of the whole
        # table, then a slice of it per window.
        size = 1 << k
        table = backend.resident_points(group, [
            p for column in zip(*affine) for p in (None, *column)])
        return [table[t:t + size] for t in range(0, len(table), size)]

    @declassify("fixed-base window gather: which table row a lane reads "
                "is chosen by a digit of its scalar, and keygen's "
                "scalars are toxic waste, the prover's its zk masks — "
                "not the MSM's public workload shape. Accepted here on "
                "its own terms: the per-bit ladder this replaces "
                "(CurveGroup.scalar_mul) already branches on every "
                "secret bit and returns early on a zero scalar, so the "
                "gather is not a new leak class; the constant-pattern "
                "alternative reads all 2^k rows of every window; and "
                "the products s*B hide s behind a discrete log "
                "(DESIGN.md section 7)")
    def multiples(self, scalars: Sequence[int]) -> List[AffinePoint]:
        """``[group.scalar_mul(s, base) for s in scalars]``: the scalars
        reduced mod the group order, every window of every scalar from
        one ``digits_matrix`` call, then per window one gather of
        ``T[t][digit]`` and one n-lane addition. A zero scalar gathers
        only the point at infinity and comes back ``None``."""
        if not self.rows or not scalars:
            return [None] * len(scalars)
        group, backend = self.group, self.backend
        order = group.order
        digits = backend.digits_matrix([s % order for s in scalars],
                                       self.scalar_bits, self.window)
        acc = None
        for row, column in zip(self.rows, _columns(digits)):
            term = backend.batch_to_jacobian(
                group, backend.gather_points(row, column))
            acc = term if acc is None else backend.batch_jadd(group, acc,
                                                              term)
        return list(backend.batch_from_jacobian(group, acc))


def fixed_base_mul(group: CurveGroup, base: AffinePoint,
                   scalars: Sequence[int],
                   backend=None) -> List[AffinePoint]:
    """Every ``scalars[i] * base`` through a table sized for exactly
    this call and dropped on return."""
    if not scalars:
        return []
    return FixedBaseTable(group, base, len(scalars),
                          backend=backend).multiples(scalars)
