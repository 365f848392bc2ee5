"""Resident points: the MSM reads its table as word rows, same bits.

On the ``numpy`` backend with kernels loaded the checkpoint table is a
list of :class:`~repro.backend.kernel_backend.ResidentPoints` rows and the
buckets are :class:`~repro.backend.kernel_backend.ResidentBuckets`. These
tests pin the contract down from outside: that no python-int point
exists between the table and the one Jacobian result of a
``compute(context=ctx)``, that the table is built without one either,
that results and per-phase op counts equal the ``python`` backend's on
every curve and group, that the C bucket fold routes every special
lane like the scalar fold, that the curve ops hand back the kind of
row they were handed without touching it, and that nothing
witness-sized outlives a call.
"""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backend import get_backend, kernel_backend, native
from repro.backend.kernel_backend import ResidentBuckets, ResidentPoints
from repro.curves import CURVES
from repro.curves.weierstrass import CurveGroup
from repro.errors import MsmError
from repro.ff.opcount import OpCounter
from repro.gpusim import V100
from repro.msm import GzkpMsm
from repro.msm.context import check_table
from repro.msm.pippenger import bucket_reduce as scalar_bucket_reduce
from repro.service.telemetry import Telemetry
from tests.test_backend_curve_equivalence import jacobian_reps, offset_chain
from tests.test_native_jacobian import FOLD_KINDS, _pool, fold_lanes

PY = get_backend("python")
NP = get_backend("numpy")

CURVE_NAMES = ["ALT-BN128", "BLS12-381", "MNT4753"]
GROUPS = [(name, which) for name in CURVE_NAMES for which in ("g1", "g2")]
BN = CURVES["ALT-BN128"]

needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason="native kernels unavailable (no compiler or REPRO_NATIVE=0)")


def _group(name, which):
    return getattr(CURVES[name], which)


def _engine(group, bits, backend, window=4, interval=1):
    return GzkpMsm(group, bits, V100, window=window, interval=interval,
                   backend=backend)


def _phases(counter):
    """Per-phase op counts with zero entries dropped (a backend may
    book ``pdbl: 0`` where another books nothing)."""
    return {name: dict(+cnt) for name, cnt in counter.by_phase.items()}


@pytest.fixture
def boundary_spy(monkeypatch):
    """Rows crossing the int <-> word-row boundary and the raw <->
    Montgomery one (by ``to_mont``/``from_mont`` or by a bare
    ``mul_const`` against R^2 / 1), field inversions in the native
    layer (each ``point_op("affine")`` call is one, in C), and
    ``from_jacobian`` calls."""
    seen = Counter()
    to_words = native.NativeField.words_from_ints
    to_ints = native.NativeField.ints_from_words
    to_mont = native.NativeField.to_mont
    from_mont = native.NativeField.from_mont
    mul_const = native.NativeField.mul_const
    from_jacobian = CurveGroup.from_jacobian
    point_op = native.NativeField.point_op

    def words_from_ints(self, vals):
        seen["ingress_rows"] += len(vals)
        return to_words(self, vals)

    def ints_from_words(self, arr):
        seen["egress_rows"] += arr.shape[0]
        return to_ints(self, arr)

    def spy_to_mont(self, rows, out=None):
        seen["to_mont_calls"] += 1
        seen["to_mont_rows"] += rows.shape[0]
        return to_mont(self, rows, out=out)

    def spy_from_mont(self, rows):
        seen["from_mont_calls"] += 1
        seen["from_mont_rows"] += rows.shape[0]
        return from_mont(self, rows)

    def spy_mul_const(self, a, row, out=None):
        if row is self._r2_words or row is self._one_words:
            seen["conversion_muls"] += 1
        return mul_const(self, a, row, out=out)

    def spy_from_jacobian(self, p):
        seen["from_jacobian"] += 1
        return from_jacobian(self, p)

    def spy_point_op(self, op, *args, **kwargs):
        if op == "affine":
            seen["inversions"] += 1
        return point_op(self, op, *args, **kwargs)

    monkeypatch.setattr(native.NativeField, "words_from_ints",
                        words_from_ints)
    monkeypatch.setattr(native.NativeField, "ints_from_words",
                        ints_from_words)
    monkeypatch.setattr(native.NativeField, "to_mont", spy_to_mont)
    monkeypatch.setattr(native.NativeField, "from_mont", spy_from_mont)
    monkeypatch.setattr(native.NativeField, "mul_const", spy_mul_const)
    monkeypatch.setattr(CurveGroup, "from_jacobian", spy_from_jacobian)
    monkeypatch.setattr(native.NativeField, "point_op", spy_point_op)
    return seen


# -- (a) conversion census --------------------------------------------------------


@needs_native
def test_compute_touches_no_python_point_before_the_result(boundary_spy):
    """Table rows are gathered as word rows, the tree and the fold run
    on rows, and only the one Jacobian total is decoded. (At the parent
    of this change every referenced point was encoded on every call —
    2 x ~7 900 coordinates here — and every bucket decoded for a python
    fold.)"""
    g1, bits, n = BN.g1, BN.fr.bits, 1 << 8
    rng = random.Random(1)
    pts = offset_chain(g1, n, seed=2)
    engine = _engine(g1, bits, "numpy", window=8)
    ctx = engine.build_context(pts)
    assert all(type(row) is ResidentPoints for row in ctx.table)
    scalars = [rng.randrange(BN.fr.modulus) for _ in range(n)]
    want = _engine(g1, bits, "python", window=8).compute(scalars, pts)
    boundary_spy.clear()
    assert engine.compute(scalars, pts, context=ctx) == want
    assert boundary_spy["ingress_rows"] == 0
    assert boundary_spy["egress_rows"] == 3  # x, y, z of the total
    assert boundary_spy["from_jacobian"] == 1
    # one point domain: table planes, tree lanes, bucket rows and the
    # fold are all Montgomery, so nothing converts between them. (At
    # the parent: 2 conversions per scatter, 3 + 1 per fold.)
    assert boundary_spy["to_mont_calls"] == 0
    assert (boundary_spy["from_mont_calls"],
            boundary_spy["from_mont_rows"]) == (1, 3)
    assert boundary_spy["conversion_muls"] == 1  # ... and by no other route


@needs_native
def test_table_is_born_in_rows(boundary_spy):
    """``build_context`` encodes the input points once (two coordinate
    planes), doubles on word rows, and normalises each checkpoint row
    with one shared inversion: no ``from_jacobian``, no per-point
    ``pow``, nothing decoded."""
    g1, bits, n = BN.g1, BN.fr.bits, 64
    pts = offset_chain(g1, n, seed=3)
    engine = _engine(g1, bits, "numpy", window=8, interval=2)
    native.get_native_field(g1.ops.field.modulus)  # constants, not counted
    boundary_spy.clear()
    counter = OpCounter()
    ctx = engine.build_context(pts, counter=counter)
    rows = len(ctx.table)
    assert rows == 16
    assert boundary_spy["from_jacobian"] == 0
    assert boundary_spy["inversions"] == rows - 1
    assert boundary_spy["ingress_rows"] == 2 * n
    assert boundary_spy["egress_rows"] == 0
    # only row 0 converts, at ingress: its x plane and its y plane. (At
    # the parent every checkpoint row cost 5 more conversions.)
    assert (boundary_spy["to_mont_calls"],
            boundary_spy["to_mont_rows"]) == (2, 2 * n)
    assert boundary_spy["from_mont_calls"] == 0
    assert boundary_spy["conversion_muls"] == 2
    # ... and counts what the scalar chain counts, under its phase
    ref = OpCounter()
    _engine(g1, bits, "python", window=8, interval=2).build_context(
        pts, counter=ref)
    assert _phases(counter) == _phases(ref)
    assert counter.by_phase["preprocess"]["pdbl"] == (rows - 1) * 16 * n


# -- (b) equivalence ----------------------------------------------------------------


def _profiles(rng, r, n):
    """Dense, the section 4.2 sparse mix, all-zero, all-one, and a
    single non-zero scalar. Scalars 0..2 are equal in the dense profile
    so the duplicated and the negated base share every bucket."""
    dense = [rng.randrange(r) for _ in range(n)]
    dense[1] = dense[2] = dense[0]
    sparse = []
    for _ in range(n):
        u = rng.random()
        sparse.append(0 if u < 0.5 else 1 if u < 0.95 else rng.randrange(r))
    single = [0] * n
    single[n // 2] = rng.randrange(1, r)
    return {"dense": dense, "sparse": sparse, "zero": [0] * n,
            "one": [1] * n, "single": single}


@pytest.mark.parametrize("interval", [1, 2, 3])
@pytest.mark.parametrize("name,which", GROUPS)
def test_compute_equals_python_backend(name, which, interval):
    """Result == ``python`` backend == ``compute_literal`` and the
    per-phase op counts agree, for a point vector holding ``None``, a
    duplicated base and a negated base, with the table handed over as
    a context, as resident rows and as python lists, with and without
    ``counter=``/``telemetry=``."""
    group = _group(name, which)
    curve = CURVES[name]
    bits, r = curve.fr.bits, curve.fr.modulus
    rng = random.Random(f"{name}/{which}/{interval}")
    n = 10
    pts = offset_chain(group, n, seed=rng.getrandbits(32))
    pts[1] = pts[0]
    pts[2] = group.neg(pts[0])
    pts[5] = None
    fast = _engine(group, bits, "numpy", window=5, interval=interval)
    slow = _engine(group, bits, "python", window=5, interval=interval)
    ctx = fast.build_context(pts)
    ref_table = slow.preprocess(pts, slow.configure(n))
    assert ctx.table == ref_table  # rows compare against lists
    as_lists = [list(row) for row in ctx.table]
    for label, scalars in _profiles(rng, r, n).items():
        ref_counter = OpCounter()
        want = slow.compute(scalars, pts, table=ref_table,
                            counter=ref_counter)
        assert want == slow.compute_literal(scalars, pts), label
        counter, telemetry = OpCounter(), Telemetry()
        with telemetry.span("MSM"):
            got = fast.compute(scalars, pts, context=ctx, counter=counter,
                               telemetry=telemetry)
        assert got == want, label
        assert _phases(counter) == _phases(ref_counter), label
        assert fast.compute(scalars, pts, context=ctx) == want, label
        for table in (ctx.table, as_lists):
            counter = OpCounter()
            assert fast.compute(scalars, pts, table=table,
                                counter=counter) == want, label
            assert _phases(counter) == _phases(ref_counter), label


@needs_native
def test_resident_row_is_a_read_only_point_sequence():
    """What ``check_table``, ``compute(table=[row[:-1] ...])`` and any
    code that only knows sequences rely on."""
    g1 = BN.g1
    pts = offset_chain(g1, 9, seed=4)
    pts[3] = None
    row = NP.resident_points(g1, pts)
    assert type(row) is ResidentPoints and NP.resident_points(g1, row) is row
    assert len(row) == 9 and row[3] is None and row[-1] == pts[-1]
    assert [row[i] for i in range(9)] == pts == list(row)
    assert row == pts and row != pts[::-1] and row[2:5] == pts[2:5]
    assert type(row[:-1]) is ResidentPoints and len(row[:-1]) == 8
    with pytest.raises(IndexError):
        _ = row[9]
    with pytest.raises(ValueError):
        row.x[0, 0] = 1
    jac = NP.batch_to_jacobian(g1, row)
    assert type(jac) is ResidentBuckets
    assert list(jac) == [g1.to_jacobian(p) for p in pts]
    assert jac[3] == (1, 1, 0) and jac[1:3] == list(jac)[1:3]
    assert NP.batch_from_jacobian(g1, jac) == pts
    # engines that know nothing about rows read points out of them
    assert PY.batch_to_jacobian(g1, row) == list(jac)
    engine = _engine(g1, BN.fr.bits, "numpy")
    cfg = engine.configure(9)
    table = engine.preprocess(pts, cfg)
    check_table(table, cfg, 9)
    with pytest.raises(MsmError, match="point"):
        engine.compute([1] * 9, pts, table=[r[:-1] for r in table])


# -- (c) the C bucket fold ------------------------------------------------------------

@needs_native
@pytest.mark.parametrize("name,which", GROUPS)
@settings(max_examples=10, deadline=None)
@given(kinds=st.lists(st.sampled_from(FOLD_KINDS), min_size=0, max_size=9))
@example(kinds=[])
@example(kinds=["point"])
@example(kinds=["point", "same"])
@example(kinds=["point", "inf", "cancel", "y0", "same"])
def test_fuzz_bucket_reduce_over_rows_and_lists(name, which, kinds):
    """Through the backend: a resident bucket row of any length — 0, 1,
    2, odd — and the same buckets as a python list reduce to the same
    point with the scalar fold's tallies (infinity runs, the in-C
    doubling, cancellation, y == 0; the kernel-level fuzz is in
    test_native_jacobian.py)."""
    group = _group(name, which)
    buckets = fold_lanes(group, _pool(name, which), kinds)
    rows = kernel_backend._lift_buckets(kernel_backend._native_engine(group), buckets)

    def fold(reduce_, arg):
        group.counter = counter = OpCounter()
        try:
            return group.from_jacobian(reduce_(group, arg)), +counter._totals
        finally:
            group.counter = None

    assert fold(NP.bucket_reduce, rows) == fold(scalar_bucket_reduce, buckets)
    # a list long enough to leave the scalar loop goes through the kernel
    assert (fold(NP.bucket_reduce, buckets * 3)
            == fold(scalar_bucket_reduce, buckets * 3))


AFFINE_KINDS = ("z1", "dbl", "inf", "inf_xy")


@needs_native
@pytest.mark.parametrize("name,which", GROUPS)
@settings(max_examples=10, deadline=None)
@given(kinds=st.lists(st.sampled_from(AFFINE_KINDS), min_size=0, max_size=9))
@example(kinds=[])
@example(kinds=["z1"])
@example(kinds=["dbl"])
@example(kinds=["inf", "inf_xy", "inf"])
@example(kinds=["inf", "dbl", "z1", "inf_xy", "dbl"])
def test_fuzz_from_jacobian_lane_mixes(name, which, kinds):
    """``batch_from_jacobian`` (one ``to_affine`` call) over any lane
    mix — none, one, all infinity, infinity among live z = 1 lanes and
    z != 1 lanes from ``batch_jdouble`` — is ``from_jacobian`` lane by
    lane, and its rows are byte for byte what ``resident_points`` makes
    of the same values: a ``None`` lane is (0, 0) whatever the x/y of
    the infinity it came from."""
    group = _group(name, which)
    o = group.ops
    pool = _pool(name, which)
    eng = kernel_backend._native_engine(group)
    z1 = NP.batch_to_jacobian(group, NP.resident_points(group, pool))
    dbl = NP.batch_jdouble(group, z1)
    lanes = []
    for i, kind in enumerate(kinds):
        if kind == "inf":
            lanes.append((o.one, o.one, o.zero))
        elif kind == "inf_xy":
            lanes.append((*dbl[i][:2], o.zero))
        else:
            lanes.append((z1 if kind == "z1" else dbl)[i])
    got = NP.batch_from_jacobian(group, kernel_backend._lift_buckets(eng, lanes))
    want = [group.from_jacobian(p) for p in lanes]
    assert type(got) is ResidentPoints and list(got) == want
    assert _frozen(got) == _frozen(NP.resident_points(group, want))


# -- (d) type preservation and immutability ---------------------------------------


def _frozen(row):
    planes = ((row.x, row.y, row.inf) if isinstance(row, ResidentPoints)
              else (row.x, row.y, row.z))
    return [pl.tobytes() for pl in planes]


@needs_native
@pytest.mark.parametrize("name,which", GROUPS)
def test_curve_ops_preserve_representation_and_operands(name, which):
    group = _group(name, which)
    o = group.ops
    inf = (o.one, o.one, o.zero)
    pts = offset_chain(group, 20, seed=7)
    jz = jacobian_reps(group, pts)
    ps = jz[:8] + [inf, jz[9], jz[10], jz[11]]
    qs = jz[8:16] + [jz[3], inf, jz[10], group.jneg(jz[11])]
    eng = kernel_backend._native_engine(group)
    p, q = (kernel_backend._lift_buckets(eng, lanes) for lanes in (ps, qs))
    before = _frozen(p), _frozen(q)

    def run(op, *args):
        group.counter = counter = OpCounter()
        try:
            return op(group, *args), +counter._totals
        finally:
            group.counter = None

    for op, py_op, rows, lists in (
            (NP.batch_jdouble, PY.batch_jdouble, (p,), (ps,)),
            (NP.batch_jadd, PY.batch_jadd, (p, q), (ps, qs)),
            (NP.batch_jadd, PY.batch_jadd, (p, p), (ps, ps)),  # aliased
            (NP.batch_jadd, PY.batch_jadd, (p, qs), (ps, qs))):  # mixed
        want, want_counts = run(py_op, *lists)
        got, counts = run(op, *rows)
        assert type(got) is ResidentBuckets
        assert got == want and counts == want_counts
    # python rows long enough for the kernels come back as python rows
    assert type(NP.batch_jadd(group, ps + ps, qs + qs)) is list
    got = NP.batch_from_jacobian(group, ps + qs)
    assert type(got) is list and got == PY.batch_from_jacobian(group, ps + qs)
    want, want_counts = run(PY.bucket_reduce, ps)
    got, counts = run(NP.bucket_reduce, p)
    assert type(got) is tuple
    assert group.from_jacobian(got) == group.from_jacobian(want)
    assert counts == want_counts
    assert (_frozen(p), _frozen(q)) == before

    # the table front-end: resident table in, resident buckets out
    table = [NP.resident_points(group, pts), NP.resident_points(
        group, pts[::-1])]
    frozen = [_frozen(row) for row in table]
    rng = random.Random(8)
    slots = [rng.randrange(6) for _ in range(80)]
    rows_idx = [rng.randrange(2) for _ in range(80)]
    cols = [rng.randrange(20) for _ in range(80)]
    want, want_counts = run(PY.accumulate_table,
                            [list(row) for row in table], 7, slots,
                            rows_idx, cols)
    got, counts = run(NP.accumulate_table, table, 7, slots, rows_idx, cols)
    assert type(got) is ResidentBuckets and len(got) == 7
    assert ([group.from_jacobian(b) for b in got]
            == [group.from_jacobian(b) for b in want])
    assert counts == want_counts
    assert [_frozen(row) for row in table] == frozen
    got, counts = run(NP.accumulate_table, [list(row) for row in table], 7,
                      slots, rows_idx, cols)
    assert type(got) is list and counts == want_counts
    assert ([group.from_jacobian(b) for b in got]
            == [group.from_jacobian(b) for b in want])
    # below the tree's threshold: the ordered loop over decoded points
    small, _ = run(NP.accumulate_table, table, 7, slots[:5], rows_idx[:5],
                   cols[:5])
    assert small == PY.accumulate_table(
        group, [list(row) for row in table], 7, slots[:5], rows_idx[:5],
        cols[:5])


# -- (e) hygiene ----------------------------------------------------------------------


@needs_native
def test_repr_shows_no_coordinate():
    g1 = BN.g1
    pts = offset_chain(g1, 4, seed=11)
    row = NP.resident_points(g1, pts)
    jac = NP.batch_to_jacobian(g1, row)
    assert repr(row) == "<ResidentPoints ALT-BN128.G1 n=4>"
    assert repr(jac) == "<ResidentBuckets ALT-BN128.G1 n=4>"


@needs_native
def test_no_bucket_or_entry_sized_residue():
    """Bucket rows, gathered lanes and fold scratch are witness-derived:
    after a ``compute`` no array with as many rows as there were
    buckets or entries hangs off the native field, the engine or the
    context (whose only arrays are the table's n-row planes)."""
    g1, bits, n = BN.g1, BN.fr.bits, 40
    rng = random.Random(12)
    pts = offset_chain(g1, n, seed=13)
    engine = _engine(g1, bits, "numpy", window=6)
    ctx = engine.build_context(pts)
    scalars = [rng.randrange(1, BN.fr.modulus) for _ in range(n)]
    engine.compute(scalars, pts, context=ctx)
    entries = len(NP.digit_entries(
        NP.digits_matrix(scalars, bits, 6), 6, 1)[0])
    banned = {63, entries}
    assert n not in banned

    def arrays(obj, depth=0):
        if isinstance(obj, np.ndarray):
            yield obj
        elif depth < 4:
            if isinstance(obj, dict):
                children = obj.values()
            elif isinstance(obj, (list, tuple)):
                children = obj
            elif isinstance(obj, (ResidentPoints, ResidentBuckets)):
                children = [getattr(obj, slot) for slot in obj.__slots__
                            if slot != "eng"]
            else:
                children = getattr(obj, "__dict__", {}).values()
            for child in children:
                yield from arrays(child, depth + 1)

    nf = native.get_native_field(g1.ops.field.modulus)
    for holder in (nf, engine, ctx):
        for arr in arrays(holder):
            assert arr.ndim == 0 or arr.shape[0] not in banned
