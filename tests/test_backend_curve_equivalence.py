"""Batched SoA curve kernels vs the scalar reference.

The numpy backend's batch Jacobian ops and segmented bucket reduction
(:mod:`repro.backend.kernel_backend`; without the kernels ``numpy`` is
the python backend) must be *bit-identical* to the scalar group law on
every curve — including every special case
(infinity, doubling, cancellation, mixed representatives) — and must
emit identical op-count totals. The one documented relaxation: bucket
accumulation may return any group-equal Jacobian representative, so
bucket contents are compared through ``from_jacobian``.

Count-parity fixtures use *offset* point chains (a random-multiple base
plus small steps): for such pairwise-independent points a collision
between a bucket's partial sum and an incoming point is a discrete-log
event, so the scalar fold and the reassociated tree take the same
doubling/cancellation branches.
"""

import random

import pytest

from repro.backend import coverage, get_backend, kernel_backend
from repro.backend.native import native_available
from repro.curves import CURVES
from repro.ff.opcount import OpCounter

CURVE_NAMES = ["ALT-BN128", "BLS12-381", "MNT4753"]

PY = get_backend("python")
NP = get_backend("numpy")


def offset_chain(group, n, seed):
    """n affine points P0 + k*G with P0 a random 128-bit multiple of the
    generator — pairwise independent for count-parity purposes."""
    rng = random.Random(seed)
    gen = group.generator
    acc = group.to_jacobian(group.scalar_mul(rng.getrandbits(128), gen))
    jpts = []
    for _ in range(n):
        jpts.append(acc)
        acc = group.jmixed_add(acc, gen)
    return group.batch_normalize(jpts)


def jacobian_reps(group, pts, start=2):
    """Non-trivial Jacobian representatives (x k^2, y k^3, k)."""
    o = group.ops
    out = []
    for (x, y), k in zip(pts, range(start, start + len(pts))):
        kk = o.coerce(k)
        k2 = o.mul(kk, kk)
        out.append((o.mul(x, k2), o.mul(y, o.mul(k2, kk)), kk))
    return out


@pytest.mark.parametrize("name", CURVE_NAMES)
class TestBatchKernelsBitIdentical:
    """The numpy backend's batch_j* == the scalar loop, lane for lane,
    count for count, at lane counts above ``MIN_VECTOR_LANES``. MNT4753
    has a != 0 (the general doubling branch)."""

    def _run(self, group, batch_fn, scalar_fn, ps, qs=None):
        c_ref, c_vec = OpCounter(), OpCounter()
        group.counter = c_ref
        if qs is None:
            exp = [scalar_fn(p) for p in ps]
        else:
            exp = [scalar_fn(p, q) for p, q in zip(ps, qs)]
        group.counter = c_vec
        got = batch_fn(group, ps) if qs is None else batch_fn(group, ps, qs)
        group.counter = None
        assert got == exp
        assert c_ref._totals == c_vec._totals
        return got

    def test_jdouble(self, name):
        g1 = CURVES[name].g1
        pts = offset_chain(g1, 20, seed=1)
        lanes = jacobian_reps(g1, pts) + [(1, 1, 0)]
        self._run(g1, NP.batch_jdouble, g1.jdouble, lanes)

    def test_jadd_special_lanes(self, name):
        g1 = CURVES[name].g1
        pts = offset_chain(g1, 20, seed=2)
        jz = jacobian_reps(g1, pts)
        jp = [g1.to_jacobian(p) for p in pts]
        inf = (1, 1, 0)
        # (inf, P), (P, inf), P + P across representatives, P + (-P)
        ps = jz + [inf, jz[0], jz[1], jz[2]]
        qs = jp + [jp[0], inf, (pts[1][0], pts[1][1], 1), g1.jneg(jp[2])]
        self._run(g1, NP.batch_jadd, g1.jadd, ps, qs)

    def test_jmixed_special_lanes(self, name):
        g1 = CURVES[name].g1
        pts = offset_chain(g1, 20, seed=3)
        jz = jacobian_reps(g1, pts)
        inf = (1, 1, 0)
        ps = jz + [jz[0], inf, jz[1], jz[2]]
        qs = list(pts) + [None, pts[5], pts[1], g1.neg(pts[2])]
        self._run(g1, NP.batch_jmixed_add, g1.jmixed_add, ps, qs)

    def test_backend_dispatch_matches_python(self, name, monkeypatch):
        """Through the public backend API (thresholds lowered so the
        vector path engages at test sizes)."""
        monkeypatch.setattr(kernel_backend, "MIN_VECTOR_LANES", 1)
        g1 = CURVES[name].g1
        pts = offset_chain(g1, 8, seed=4)
        jp = [g1.to_jacobian(p) for p in pts]
        assert NP.batch_jdouble(g1, jp) == PY.batch_jdouble(g1, jp)
        assert NP.batch_jadd(g1, jp, jp[::-1]) == PY.batch_jadd(
            g1, jp, jp[::-1]
        )
        assert NP.batch_jmixed_add(g1, jp, pts) == PY.batch_jmixed_add(
            g1, jp, pts
        )


@pytest.mark.parametrize("backend", [PY, NP], ids=["python", "numpy"])
def test_mismatched_point_rows_raise(backend):
    """Two point rows of different lengths are one error on every
    backend, for lists and resident rows alike. (``python`` used to
    return the shorter row's worth of sums — a ``zip`` — and ``numpy``
    leaked a broadcast ``ValueError``, or an ``IndexError`` for the
    1-row operand numpy would have broadcast.)"""
    from repro.errors import CurveError

    g1 = CURVES["ALT-BN128"].g1
    pts = offset_chain(g1, 40, seed=5)
    jp = jacobian_reps(g1, pts)
    held = backend.batch_to_jacobian(g1, backend.resident_points(g1, pts))
    for long in (jp, held):
        for short in (jp[:20], jp[:1], held[:20], held[:1]):
            for ps, qs in ((long, short), (short, long)):
                with pytest.raises(CurveError, match="length mismatch"):
                    backend.batch_jadd(g1, ps, qs)
        for short in (pts[:20], pts[:1]):
            with pytest.raises(CurveError, match="length mismatch"):
                backend.batch_jmixed_add(g1, long, short)
    with pytest.raises(CurveError, match="length mismatch"):
        backend.batch_jmixed_add(g1, jp[:20], pts)


@pytest.mark.skipif(not native_available(),
                    reason="no C compiler for the native kernels")
class TestSegmentedBuckets:
    """The sorted batch-affine tree returns group-equal buckets with
    identical op counts (pairwise-independent entries)."""

    def _entries(self, group, n, n_buckets, seed, adversarial=False):
        rng = random.Random(seed)
        pts = offset_chain(group, n, seed=seed + 1)
        entries = [(rng.randrange(n_buckets), p) for p in pts]
        if adversarial:
            entries[7] = (entries[6][0], group.neg(entries[6][1]))  # cancel
            entries[11] = entries[10]                               # dup
            entries[20] = (3, None)                                 # skip
        return entries

    def _compare(self, group, entries, n_buckets, init=None):
        o = group.ops
        inf = (o.one, o.one, o.zero)
        ref = list(init) if init else [inf] * n_buckets
        got = list(init) if init else [inf] * n_buckets
        c_ref, c_vec = OpCounter(), OpCounter()
        group.counter = c_ref
        PY.accumulate_buckets(group, ref, entries)
        group.counter = c_vec
        coverage.reset()
        NP.accumulate_buckets(group, got, entries)
        group.counter = None
        assert coverage.snapshot() == {"jacobian": {"native": 1}}  # the tree ran
        for i in range(n_buckets):
            assert group.from_jacobian(ref[i]) == group.from_jacobian(got[i])
        return c_ref, c_vec

    @pytest.mark.parametrize("name", CURVE_NAMES)
    def test_g1_equal_and_counts(self, name):
        g1 = CURVES[name].g1
        entries = self._entries(g1, 400, 32, seed=5)
        c_ref, c_vec = self._compare(g1, entries, 32)
        assert c_ref._totals == c_vec._totals

    @pytest.mark.parametrize("name", ["ALT-BN128", "BLS12-381"])
    def test_g2_equal_and_counts(self, name):
        g2 = CURVES[name].g2
        entries = self._entries(g2, 200, 16, seed=6)
        c_ref, c_vec = self._compare(g2, entries, 16)
        assert c_ref._totals == c_vec._totals

    def test_adversarial_entries_group_equal(self):
        """Cancellations, duplicate entries and None points: buckets
        with repeated x-coordinates are folded scalar-first, so both
        results and counts stay exact."""
        g1 = CURVES["BLS12-381"].g1
        entries = self._entries(g1, 300, 24, seed=7, adversarial=True)
        c_ref, c_vec = self._compare(g1, entries, 24)
        assert c_ref._totals == c_vec._totals

    def test_non_infinity_initial_buckets(self):
        g1 = CURVES["BLS12-381"].g1
        init = [g1.to_jacobian(p) for p in offset_chain(g1, 16, seed=9)]
        init[3] = (1, 1, 0)  # one empty bucket among occupied ones
        entries = self._entries(g1, 300, 16, seed=10)
        c_ref, c_vec = self._compare(g1, entries, 16, init=init)
        assert c_ref._totals == c_vec._totals

    def test_small_batches_take_the_ordered_fold(self):
        g1 = CURVES["BLS12-381"].g1
        o = g1.ops
        entries = [(0, p) for p in offset_chain(g1, 4, seed=11)]
        ref, got = ([(o.one, o.one, o.zero)] for _ in range(2))
        PY.accumulate_buckets(g1, ref, entries)
        coverage.reset()
        NP.accumulate_buckets(g1, got, entries)
        assert got == ref and coverage.snapshot() == {}


@pytest.mark.skipif(not native_available(),
                    reason="no C compiler for the native kernels")
def test_e2e_msm_count_parity():
    """A GZKP MSM run end-to-end on both backends: same result, same
    op-count totals (powers-of-tau-style independent bases)."""
    from repro.gpusim import V100
    from repro.msm.gzkp import GzkpMsm

    curve = CURVES["BLS12-381"]
    g1 = curve.g1
    rng = random.Random(13)
    n = 96
    pts = offset_chain(g1, n, seed=14)
    scalars = [rng.randrange(curve.fr.modulus) for _ in range(n)]
    results, totals = [], []
    for backend in ("python", "numpy"):
        msm = GzkpMsm(g1, curve.fr.bits, V100, window=4, interval=8,
                      backend=backend)
        counter = OpCounter()
        results.append(msm.compute(scalars, list(pts), counter=counter))
        totals.append(dict(counter._totals))
    assert results[0] == results[1]
    assert totals[0] == totals[1]
