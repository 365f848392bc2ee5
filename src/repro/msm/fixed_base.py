"""Windowed scalar multiplication on the compute backend's point rows.

GZKP's checkpoint preprocessing (§4.1, Algorithm 1:
``P_{i,t} = 2^(t*k) * P_i``) trades doublings for a table because the
point vector is fixed. Its purest case is *one* fixed base and many
scalars — the trusted setup's ``s * G`` per query element, the prover's
``r * delta`` masking terms — where the table is Algorithm 1 at one
point and interval M = 1, widened by the digit: ``T[t][d] =
d * 2^(t*k) * B``. A scalar's multiple is then one table read per
window and an addition; no doubling is ever done per scalar.

The other case is a handful of *variable* bases, each with its own
scalar — the prover's ``s * A`` and ``r * B1``, the batch verifier's
random-linear-combination multiples, a subgroup check's ``[r] P``
(:func:`batch_scalar_mul`). There the table is each base's own digit
multiples ``d * P_i``, and the doublings are done per lane between
windows.

Both run one backend call for the whole window loop,
:meth:`~repro.backend.base.ComputeBackend.window_sum` (one C call on a
backend with kernels), and both build their multiples with one row
loop, :func:`_multiples`. :meth:`CurveGroup.scalar_mul` and
:meth:`CurveGroup.scalar_mul_unchecked` stay the references the tests
compare against.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as _np

from repro.analysis.declass import declassify
from repro.backend import get_backend
from repro.curves.weierstrass import AffinePoint, CurveGroup
from repro.errors import MsmError
from repro.msm.windows import num_windows

__all__ = ["FixedBaseTable", "fixed_base_mul", "batch_scalar_mul"]

#: widest window the rules consider (2^16 table rows per window)
_MAX_WINDOW = 16

#: what one row of per-lane multiples costs beyond its lanes' own
#: additions — a backend call and the row's way into the table — priced
#: in point additions
_ROW_CALL_ADDS = 32


def _window_for(scalar_bits: int, serves: int) -> int:
    """The one place a fixed base's window k is decided, from what is
    known when its table is built: how wide its scalars are and how
    many it will serve. Each of the ``2^k - 2`` multiples of a window costs one
    addition to make and about one more to normalise and lay out (the
    doubling chain is ``scalar_bits`` long whatever k is); every scalar
    served costs one addition per window; k minimises the sum."""
    def additions(k: int) -> int:
        return num_windows(scalar_bits, k) * (2 * ((1 << k) - 2) + serves)

    return min(range(1, _MAX_WINDOW + 1), key=additions)


def _lane_window(scalar_bits: int, lanes: int) -> int:
    """The window k of :func:`batch_scalar_mul`: each lane makes its own
    ``2^k - 2`` multiples and adds one of them per window (its doublings
    are ``scalar_bits`` whatever k is), and each row of multiples costs
    ``_ROW_CALL_ADDS`` more whatever the lane count; k minimises the
    sum."""
    def additions(k: int) -> int:
        rows = (1 << k) - 2
        return (lanes * (rows + num_windows(scalar_bits, k))
                + _ROW_CALL_ADDS * rows)

    return min(range(1, _MAX_WINDOW + 1), key=additions)


def _multiples(backend, group: CurveGroup, lanes: Sequence[AffinePoint],
               k: int) -> Iterator[Sequence]:
    """The Jacobian rows ``d * lanes`` for d = 1 .. 2^k - 1, one at a
    time, in the backend's resident form: row d is row d - 1 plus row 1
    (d = 2 takes the addition's doubling route)."""
    row = ones = backend.batch_to_jacobian(
        group, backend.resident_points(group, lanes))
    yield row
    for _ in range(2, 1 << k):
        row = backend.batch_jadd(group, row, ones)
        yield row


class FixedBaseTable:
    """The window table of one base, ``T[t][d] = d * 2^(t*k) * B`` for
    every window t of an order-sized scalar and digit d < 2^k, as one
    Jacobian row (z = 1) of the backend's resident form, :attr:`table`,
    indexed ``t * 2^k + d`` (``T[t][0]`` is the point at infinity) —
    the row :meth:`multiples` hands the windowed sum as it is.

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
        #: every T[t][d], lifted to Jacobian once here; empty for the
        #: point at infinity, whose every multiple is the point at
        #: infinity
        self.table = [] if base is None else self.backend.batch_to_jacobian(
            group, self._build(base))

    def _build(self, base: AffinePoint) -> Sequence[AffinePoint]:
        group, backend, k = self.group, self.backend, self.window
        # Window bases 2^(t*k) * B: one doubling chain, a single lane.
        jp = group.to_jacobian(base)
        chain = [jp]
        for _ in range(1, num_windows(self.scalar_bits, k)):
            for _ in range(k):
                jp = group.jdouble(jp)
            chain.append(jp)
        # Multiples d * 2^(t*k) * B with the windows as lanes, normalised
        # as they are made so that one Jacobian row is alive at a time,
        # then transposed into T[t][0 .. 2^k): one ingress of the table.
        affine = [backend.batch_from_jacobian(group, row) for row in
                  _multiples(backend, group, group.batch_normalize(chain), k)]
        return backend.resident_points(group, [
            p for column in zip(*affine) for p in (None, *column)])

    @declassify("fixed-base window gather: which table row a lane reads "
                "is chosen by a digit of its scalar, and keygen's "
                "scalars are toxic waste, the prover's its zk masks — "
                "not the MSM's public workload shape; the verifier's IC "
                "fold puts public inputs and their sums with the batch's "
                "random-linear-combination coefficients through it, "
                "whose secrecy from the prover is what makes a forged "
                "batch fail. Accepted here on "
                "its own terms: the per-bit ladder this replaces "
                "(CurveGroup.scalar_mul) already branches on every "
                "secret bit and returns early on a zero scalar, so the "
                "gather is not a new leak class; the constant-pattern "
                "alternative reads all 2^k rows of every window; and "
                "the products s*B hide s behind a discrete log "
                "(DESIGN.md section 7)")
    def multiples(self, scalars: Sequence[int]) -> List[AffinePoint]:
        """``[group.scalar_mul(s, base) for s in scalars]``: the scalars
        reduced mod the group order, their windows up to the widest
        one's top bit from one ``digits_matrix`` call (the windows above
        it would add only ``T[t][0]``), and then one ``window_sum`` that
        adds ``T[t][digit]`` over them — no doubling. A zero scalar
        gathers only the point at infinity and comes back ``None``."""
        if not self.table or not scalars:
            return [None] * len(scalars)
        group, backend, k = self.group, self.backend, self.window
        order = group.order
        reduced = [s % order for s in scalars]
        digits = _np.asarray(backend.digits_matrix(
            reduced, max(1, *(s.bit_length() for s in reduced)), k),
            dtype=_np.int64)
        idx = digits + (_np.arange(digits.shape[1], dtype=_np.int64) << k)
        return list(backend.batch_from_jacobian(group, backend.window_sum(
            group, self.table, idx, 0)))


def fixed_base_mul(group: CurveGroup, base: AffinePoint,
                   scalars: Sequence[int],
                   backend=None) -> List[AffinePoint]:
    """Every ``scalars[i] * base`` through a table sized for exactly
    this call and dropped on return."""
    if not scalars:
        return []
    return FixedBaseTable(group, base, len(scalars),
                          backend=backend).multiples(scalars)


@declassify("variable-base window gather: which multiple a lane adds "
            "is chosen by a digit of its scalar — the prover's zk "
            "masks, or the batch verifier's random-linear-combination "
            "coefficients, whose secrecy from the prover is what makes "
            "a forged batch fail. Accepted on the fixed-base gather's "
            "terms: the per-bit ladders this replaces "
            "(CurveGroup.scalar_mul, scalar_mul_unchecked) already "
            "branch on every secret bit, the gather adds no leak class, "
            "and the products hide their scalars behind a discrete log "
            "(DESIGN.md section 7)")
def batch_scalar_mul(group: CurveGroup, points: Sequence[AffinePoint],
                     scalars: Sequence[int],
                     backend=None) -> List[AffinePoint]:
    """``[group.scalar_mul_unchecked(s, p) for p, s in zip(points,
    scalars)]``: every lane's multiples ``d * P_i`` (d < 2^k) from
    :func:`_multiples`, one table of them (row ``d * n + i``, with d = 0
    the point at infinity), and one ``window_sum`` with k doublings per
    window. The scalars are not reduced — a caller passes the one it
    means, as a subgroup check passes the order itself — and must be
    non-negative; k follows from their width and the lane count
    (:func:`_lane_window`). A ``None`` point or a zero scalar comes back
    ``None``."""
    if len(points) != len(scalars):
        raise MsmError(f"{len(points)} points but {len(scalars)} scalars")
    if any(s < 0 for s in scalars):
        raise MsmError("scalars must be non-negative")
    n = len(points)
    if not n:
        return []
    backend = get_backend(backend)
    bits = max(1, *(s.bit_length() for s in scalars))
    k = _lane_window(bits, n)
    table = [group.to_jacobian(None)] * n + [
        p for row in _multiples(backend, group, points, k) for p in row]
    digits = _np.asarray(backend.digits_matrix(scalars, bits, k),
                         dtype=_np.int64)
    idx = digits * n + _np.arange(n, dtype=_np.int64)[:, None]
    return list(backend.batch_from_jacobian(
        group, backend.window_sum(group, table, idx, k)))
