"""The point-merging kernel against the ordered fold.

One C call (``merge``, ``NativeField.point_op("merge")``)
runs the sorted log-depth batch-affine tree that accumulates an MSM's
bucket entries. On all three curves, G1 and G2, every crafted bucket set
below must end group-equal to the python backend's ordered
``jmixed_add`` fold with identical padd/pdbl totals:

* through the kernel itself, on the lanes the front-ends' duplicate-x
  guard never lets reach it — P == -Q cancelling a lane and the dead
  lane adopting its right neighbour the next round — and on a partial
  sum meeting a later entry (the round-2 tangent of {G, 2G, 3G});
* through both front-ends (``accumulate_table``, ``accumulate_buckets``)
  on both backends, where buckets fed one x twice take the scalar fold,
  at exactly ``SEGMENTED_MIN_ENTRIES`` entries and one below it.

Without kernels (``REPRO_NATIVE=0``) the kernel cases skip and the
front-end cases compare the python backend with itself.
"""

import random
from collections import Counter

import pytest

from repro.backend import get_backend, kernel_backend, native
from repro.curves import CURVES
from repro.ff.opcount import OpCounter
from tests.test_backend_curve_equivalence import offset_chain

PY = get_backend("python")
NP = get_backend("numpy")
MIN = kernel_backend.SEGMENTED_MIN_ENTRIES

GROUPS = [(name, which) for name in ("ALT-BN128", "BLS12-381", "MNT4753")
          for which in ("g1", "g2")]

needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason="native kernels unavailable (no compiler or REPRO_NATIVE=0)")


def _group(name, which):
    return getattr(CURVES[name], which)


def _counting(group, fn, *args):
    group.counter = counter = OpCounter()
    try:
        return fn(*args), +counter._totals
    finally:
        group.counter = None


def _ordered_fold(group, entries):
    """The reference: each bucket's entries folded in order with
    ``jmixed_add``; the finite buckets as affine points."""
    o = group.ops
    acc = {}
    for b, pt in entries:
        acc[b] = group.jmixed_add(acc.get(b, (o.one, o.one, o.zero)), pt)
    return {b: group.from_jacobian(p) for b, p in acc.items()
            if not o.is_zero(p[2])}


def _merge(group, entries):
    """The kernel alone on entries already in bucket order: the
    surviving lanes as {bucket: affine point}, one per bucket, and the
    tallies it booked."""
    eng = kernel_backend._native_engine(group)
    ids = [b for b, _ in entries]
    x, y = (eng.rows([pt[k] for _, pt in entries]) for k in (0, 1))
    (ids, X, Y), padd, pdbl = eng.nf.point_op(
        "merge", eng.d, (x, y), *eng.curve_rows, ids=ids)
    assert len(set(ids.tolist())) == len(ids)
    survivors = dict(zip(ids.tolist(), zip(eng.vals(X), eng.vals(Y))))
    return survivors, +Counter(padd=padd, pdbl=pdbl)


def _crafted(group, seed):
    """Bucket sets, each in bucket order, that drive every round kind."""
    pts = offset_chain(group, 12, seed=seed)
    a, b, c = pts[:3]
    a2 = group.add(a, a)
    a3 = group.add(a2, a)
    neg = group.neg
    return {
        # round 1 chord, round 2 the partial sum 3a meets the entry 3a
        "g-2g-3g": [(0, a), (0, a2), (0, a3)],
        # round 1 cancels P + (-P); round 2 the dead lane adopts Q
        "cancel-revive": [(0, a), (0, neg(a)), (0, b)],
        # a cancelling pair beside a chord, then adoption of the sum
        "cancel-beside-chord": [(0, a), (0, neg(a)), (0, b), (0, c)],
        # a partial sum cancels against the last entry: no survivor
        "sum-cancels": [(0, a), (0, b), (0, neg(group.add(a, b)))],
        "pair-cancels": [(1, b), (1, neg(b))],
        "single-entry": [(0, a), (3, b), (7, c)],
        "one-bucket": [(5, pt) for pt in pts],
        "mixed": ([(0, a), (0, a2), (0, a3), (2, b), (4, c), (4, neg(c)),
                   (4, a)] + [(6, pt) for pt in pts[3:10]]),
    }


@needs_native
@pytest.mark.parametrize("name,which", GROUPS)
def test_kernel_equals_the_ordered_fold(name, which):
    group = _group(name, which)
    for label, entries in _crafted(group, seed=f"{name}{which}").items():
        want, want_counts = _counting(group, _ordered_fold, group, entries)
        (got, counts), booked = _counting(group, _merge, group, entries)
        assert got == want, label
        assert counts == want_counts, label
        assert booked == Counter(), label  # the caller books the tallies
    survivors, counts = _merge(group, [])
    assert survivors == {} and counts == Counter()


@needs_native
def test_kernel_rejects_what_it_cannot_read():
    group = CURVES["ALT-BN128"].g1
    eng = kernel_backend._native_engine(group)
    x = eng.rows([p[0] for p in offset_chain(group, 4, seed=1)])
    for ids in ([0, 1, 1], [1, 0, 2, 3]):  # short; not ascending
        with pytest.raises(ValueError):
            eng.nf.point_op("merge", 1, (x, x), *eng.curve_rows, ids=ids)
    with pytest.raises(ValueError):
        eng.nf.point_op("merge", 1, (x, x[:3]), *eng.curve_rows,
                        ids=[0, 1, 2, 3])


def _front_end_sets(group, seed):
    """Entry lists for the front-ends: each holds at least MIN entries
    (filler in buckets of their own) unless it is the one-below case."""
    rng = random.Random(seed)
    pts = offset_chain(group, MIN + 8, seed=rng.getrandbits(32))
    a = pts[0]
    a2 = group.add(a, a)
    a3 = group.add(a2, a)
    filler = [(8 + i % 20, pt) for i, pt in enumerate(pts[8:])]
    flagged = [(0, pts[1]), (0, pts[2]), (0, pts[1]),    # one x twice
               (1, pts[3]), (1, group.neg(pts[3])),     # P and -P
               (1, pts[4]), (2, pts[5])]
    return {
        "g-2g-3g": [(0, a), (0, a2), (0, a3)] + filler,
        "duplicate-x": flagged + filler,
        "single-entry": [(i, pt) for i, pt in enumerate(pts[:MIN])],
        "one-bucket": [(3, pt) for pt in pts[:MIN + 5]],
        "exactly-min": [(i % 9, pt) for i, pt in enumerate(pts[:MIN])],
        "one-below-min": [(i % 9, pt) for i, pt in enumerate(pts[:MIN - 1])],
    }


@pytest.mark.parametrize("name,which", GROUPS)
def test_front_ends_equal_the_python_backend(name, which, monkeypatch):
    group = _group(name, which)
    o = group.ops
    inf = (o.one, o.one, o.zero)
    merges = []
    point_op = native.NativeField.point_op

    def spy(self, op, *args, **kwargs):
        merges.append(op == "merge")
        return point_op(self, op, *args, **kwargs)

    monkeypatch.setattr(native.NativeField, "point_op", spy)
    for label, entries in _front_end_sets(group, f"{name}/{which}").items():
        n_slots = 1 + max(b for b, _ in entries)
        want, want_counts = _counting(
            group, PY.accumulate_buckets, group, [inf] * n_slots, entries)
        del merges[:]
        got, counts = _counting(
            group, NP.accumulate_buckets, group, [inf] * n_slots, entries)
        assert [group.from_jacobian(p) for p in got] == \
            [group.from_jacobian(p) for p in want], label
        assert counts == want_counts, label
        ran = native.native_available() and len(entries) >= MIN
        assert any(merges) == ran, label
        # the table front-end over the same points: one table row
        row = [pt for _, pt in entries]
        slots = [b for b, _ in entries]
        cols = list(range(len(entries)))
        table = [NP.resident_points(group, row)]
        want, want_counts = _counting(
            group, PY.accumulate_table, group, [row], n_slots, slots,
            [0] * len(cols), cols)
        got, counts = _counting(
            group, NP.accumulate_table, group, table, n_slots, slots,
            [0] * len(cols), cols)
        assert [group.from_jacobian(p) for p in got] == \
            [group.from_jacobian(p) for p in want], label
        assert counts == want_counts, label
