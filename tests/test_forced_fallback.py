"""Every fallback branch ``coverage`` counts, forced and checked.

With the compiled kernels switched off in-process the ``numpy`` backend
has one floor left, the inherited scalar loop, for every op — the NTT
included (``resident()`` is then the reduced list). So each op must
return *exactly* the ``python`` backend's values (not merely group-equal
ones) with identical ``OpCounter`` totals — on lane mixes that hit every
special case on every curve and group, and on every NTT size class,
where a sweep that counted its butterflies twice would show — the
coverage tally must call every dispatch a fallback, both resident point
forms must be plain lists, and ``bucket_reduce`` must cost the ordered
fold's two ``jadd`` calls per bucket. (With the kernels on, the same
buckets go through one C call whose *tallies* are those of the 2m
calls.)
"""

import random

import pytest

from repro.backend import coverage, get_backend, native, numpy_curve
from repro.curves import CURVES
from repro.ff.opcount import OpCounter
from tests.test_backend_curve_equivalence import jacobian_reps, offset_chain

np = pytest.importorskip("numpy")

PY = get_backend("python")
NP = get_backend("numpy")

GROUPS = [(name, which) for name in ("ALT-BN128", "BLS12-381", "MNT4753")
          for which in ("g1", "g2")]


@pytest.fixture
def native_off(monkeypatch):
    """The loader re-probes when the env toggle flips, so this holds for
    one test and the next caller gets its kernels back."""
    monkeypatch.setenv(native.NATIVE_ENV_VAR, "0")
    assert not native.native_available()
    coverage.reset()
    yield
    coverage.reset()


def _both(group, op, *args):
    """Run ``op`` on both backends (each on its own copy of the list
    arguments: bucket accumulation writes in place); return the
    (python, numpy) results after checking the op-count totals agree."""
    out, totals = [], []
    for backend in (PY, NP):
        group.counter = counter = OpCounter()
        try:
            out.append(getattr(backend, op)(group, *map(list, args)))
        finally:
            group.counter = None
        totals.append(counter.totals())
    assert totals[0] == totals[1], op
    return out


@pytest.mark.parametrize("name,which", GROUPS)
def test_numpy_without_native_is_the_python_backend(name, which, native_off,
                                                    monkeypatch):
    curve = CURVES[name]
    group = getattr(curve, which)
    o = group.ops
    inf = (o.one, o.one, o.zero)
    rng = random.Random(f"{name}/{which}")

    pts = offset_chain(group, 72, seed=rng.getrandbits(32))
    jz = jacobian_reps(group, pts)
    assert len(jz[:20]) >= numpy_curve.MIN_VECTOR_LANES

    # -- batch Jacobian ops: infinity either side, P == Q (same and
    # different representative), P == -Q, q is None
    ref, got = _both(group, "batch_jdouble", jz[:20] + [inf])
    assert got == ref
    other_rep, = jacobian_reps(group, [pts[1]], start=9)
    ref, got = _both(
        group, "batch_jadd",
        jz[:20] + [inf, jz[0], jz[1], jz[1], jz[2]],
        jz[20:40] + [jz[3], inf, jz[1], other_rep, group.jneg(jz[2])])
    assert got == ref
    ref, got = _both(
        group, "batch_jmixed_add",
        jz[:20] + [jz[0], inf, jz[1], jz[2]],
        pts[20:40] + [None, pts[5], pts[1], group.neg(pts[2])])
    assert got == ref

    # -- bucket accumulation: a duplicate, a cancellation and a skipped
    # entry among enough entries to get past the size threshold
    entries = [(rng.randrange(8), p) for p in pts]
    entries[11] = entries[10]
    entries[31] = (entries[30][0], group.neg(entries[30][1]))
    entries[50] = (3, None)
    assert len(entries) >= numpy_curve.SEGMENTED_MIN_ENTRIES
    before = coverage.snapshot()["jacobian"]["fallback"]
    ref, got = _both(group, "accumulate_buckets", [inf] * 8, entries)
    assert got == ref
    assert coverage.snapshot()["jacobian"]["fallback"] == before + 1
    # ... while a batch below the threshold is a size choice, not a
    # degradation, and stays out of the tally
    ref, got = _both(group, "accumulate_buckets", [inf] * 8, entries[:4])
    assert got == ref
    assert coverage.snapshot()["jacobian"]["fallback"] == before + 1

    # -- the table front-end: both resident forms are lists and the
    # merge is the ordered jmixed_add loop, whether the index vectors
    # come as lists or as the numpy backend's arrays
    table = [pts[:36], pts[36:]]
    table[1][7] = None
    table[1][8] = table[0][8]
    assert all(type(NP.resident_points(group, row)) is list for row in table)
    slots = [rng.randrange(8) for _ in range(90)]
    rows = [rng.randrange(2) for _ in range(90)]
    cols = [rng.randrange(36) for _ in range(90)]
    slots[40:42], rows[40:42], cols[40:42] = [3, 3], [0, 1], [8, 8]
    before = coverage.snapshot()["jacobian"]["fallback"]
    merged, totals = [], []
    for backend, lift in ((PY, list), (NP, list), (NP, np.array)):
        group.counter = counter = OpCounter()
        try:
            merged.append(backend.accumulate_table(
                group, table, 8, lift(slots), lift(rows), lift(cols)))
        finally:
            group.counter = None
        totals.append(counter.totals())
    assert all(type(got) is list and got == merged[0] for got in merged)
    assert totals[1] == totals[2] == totals[0]
    assert coverage.snapshot()["jacobian"]["fallback"] == before + 2
    jac = NP.batch_to_jacobian(group, table[1])
    assert type(jac) is list and jac == PY.batch_to_jacobian(group, table[1])
    assert NP.batch_from_jacobian(group, jac) == table[1]

    # -- bucket reduction: the ordered fold, 2 jadds per bucket
    m = 256
    buckets = [inf if j % 7 == 3 else jz[j % len(jz)] for j in range(m)]
    ref, got = _both(group, "bucket_reduce", buckets)
    assert got == ref
    calls = []
    jadd = group.jadd
    with monkeypatch.context() as spy:
        spy.setattr(group, "jadd",
                    lambda p, q: calls.append(1) or jadd(p, q))
        NP.bucket_reduce(group, buckets)
    assert len(calls) == 2 * m

    assert "native" not in coverage.snapshot()["jacobian"]


@pytest.mark.parametrize("n", [1, 2, 64, 1024])
@pytest.mark.parametrize("name", ["ALT-BN128", "BLS12-381", "MNT4753"])
def test_numpy_without_native_field_ops_are_the_python_backend(name, n,
                                                               native_off):
    fr = CURVES[name].fr
    p = fr.modulus
    rng = random.Random(f"{name}/{n}")
    xs = ([0, 1, p - 1] + [rng.randrange(p) for _ in range(n)])[:n]
    ys = ([p - 1, 0, p - 1] + [rng.randrange(p) for _ in range(n)])[:n]
    g = rng.randrange(p)
    assert type(NP.resident(fr, xs)) is list  # no kernels, no rows
    for op, args in (("ntt", (xs,)), ("intt", (xs,)), ("vadd", (xs, ys)),
                     ("vsub", (xs, ys)), ("vmul", (xs, ys)),
                     ("vscale", (xs, g)), ("vmul_powers", (xs, g))):
        out, totals = [], []
        for backend in (PY, NP):
            counter = OpCounter()
            kwargs = {"counter": counter} if op.endswith("ntt") else {}
            out.append(getattr(backend, op)(fr, *args, **kwargs))
            totals.append(counter.totals())
        assert type(out[1]) is list and out[1] == out[0], op
        assert totals[1] == totals[0], op
        if kwargs:  # a sweep that counted twice would show here
            assert counter.total("butterfly") == (n // 2) * (
                n.bit_length() - 1), op
    snap = coverage.snapshot()
    # each sweep is one dispatch decision; a size-1 vector is below
    # every floor, a size choice that stays out of the tally
    assert snap.get("ntt") == (None if n == 1 else {"fallback": 2})
    assert snap["pointwise"]["fallback"] > 0
    assert all("native" not in modes for modes in snap.values())


@pytest.mark.skipif(not native.native_available(),
                    reason="no C compiler for the native kernels")
@pytest.mark.parametrize("name,which", GROUPS)
def test_native_bucket_reduce_tallies_are_2m_minus_skips(name, which,
                                                         monkeypatch):
    """The native-on sibling of the 2m-calls assertion above: a list of
    buckets goes through one C fold — no python ``jadd`` at all — whose
    padd tally is the 2m adds minus the count-free ones (an infinity
    operand on either side), with a doubling where the running sum
    repeats."""
    group = getattr(CURVES[name], which)
    o = group.ops
    inf = (o.one, o.one, o.zero)
    jz = jacobian_reps(group, offset_chain(group, 30, seed=5))
    m = 64
    buckets = [inf if j % 7 == 3 else jz[j % len(jz)] for j in range(m)]
    buckets[m - 2] = buckets[m - 1]  # running == B_j: the in-C doubling
    finite = sum(1 for b in buckets if b is not inf)
    calls = []
    with monkeypatch.context() as spy:
        spy.setattr(group, "jadd", lambda p, q: calls.append(1))
        group.counter = counter = OpCounter()
        try:
            got = NP.bucket_reduce(group, buckets)
        finally:
            group.counter = None
    assert calls == []
    # running += B_j is count-free for infinity buckets and for the
    # first finite one; total += running only for the very first
    assert counter.total("padd") == (finite - 1) + (m - 1)
    assert counter.total("pdbl") == 1
    assert group.from_jacobian(got) == group.from_jacobian(
        PY.bucket_reduce(group, buckets))
