"""The windowed point kernel (``point_op("windows")`` behind
``ComputeBackend.window_sum``) and ``batch_scalar_mul`` over it, against
``CurveGroup.scalar_mul_unchecked``.

* differential — every lane equals the scalar ladder on all three
  curves, both groups and every way of naming a backend floor (python,
  numpy with the compiled kernels, numpy without them), for drawn
  scalars and always the edge values 0, 1, r - 1, r, r + 5 and
  2^bits - 1, with ``None`` points and points outside the order-r
  subgroup mixed in; ``window_sum`` alone over drawn tables, indices
  and doubling counts;
* lane counts 0, 1, odd and 64, and the padd/pdbl the kernel books;
* the boundary — an index outside the table, of another dtype, shape
  or type, raises on every floor, and on the kernels before any C call.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import get_backend, kernel_backend, native
from repro.curves import CURVES
from repro.errors import MsmError
from repro.ff.opcount import OpCounter, counting
from repro.msm.fixed_base import _lane_window, batch_scalar_mul
from tests.test_curves import random_curve_points
from tests.test_fixed_base import GROUPS, floor  # floor: a fixture

_POINTS = {}


def _points(name, which):
    """Two subgroup points and, where the cofactor is not 1, two points
    outside the subgroup: a subgroup point plus [r] R for a random point
    R of the whole curve, its cofactor component. Once per group."""
    key = (name, which)
    if key not in _POINTS:
        group = getattr(CURVES[name], which)
        good = [group.scalar_mul(k, group.generator) for k in (7, 0xC0FFEE)]
        rogue = []
        if group.cofactor != 1:
            component = group.scalar_mul_unchecked(
                group.order,
                random_curve_points(group, random.Random(f"{key}"), 1)[0])
            rogue = [group.add(p, component) for p in good]
            assert not any(group.in_subgroup(p) for p in rogue)
        _POINTS[key] = good, rogue
    return _POINTS[key]


def _edge_scalars(group):
    r = group.order
    return [0, 1, r - 1, r, r + 5, (1 << r.bit_length()) - 1]


def _ladders(group, points, scalars):
    return [group.scalar_mul_unchecked(s, p) for p, s in zip(points, scalars)]


# -- differential -------------------------------------------------------------------

_SLOW = settings(max_examples=3, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("name,which", GROUPS)
@_SLOW
@given(data=st.data())
def test_batch_scalar_mul_equals_the_ladder(name, which, floor, data):
    group = getattr(CURVES[name], which)
    good, rogue = _points(name, which)
    r = group.order
    scalars = _edge_scalars(group) + data.draw(st.lists(
        st.integers(0, 1 << (r.bit_length() + 2)), max_size=2))
    points = data.draw(st.lists(st.sampled_from([None, *good, *rogue]),
                                min_size=len(scalars),
                                max_size=len(scalars)))
    assert batch_scalar_mul(group, points, scalars, backend=floor) \
        == _ladders(group, points, scalars)


@pytest.mark.parametrize("name,which", GROUPS)
@_SLOW
@given(data=st.data())
def test_window_sum_equals_the_ladder(name, which, floor, data):
    """A table of multiples m_j * P of one point (subgroup or not) read
    at drawn indices with drawn doublings: lane i is the multiple of P
    by sum_t 2^(doublings * t) * m[idx[i, t]]."""
    group = getattr(CURVES[name], which)
    good, rogue = _points(name, which)
    base = data.draw(st.sampled_from(good + rogue))
    m = data.draw(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=6))
    lanes = data.draw(st.integers(0, 3))
    windows = data.draw(st.integers(0, 4))
    doublings = data.draw(st.integers(0, 9))
    idx = np.array(data.draw(st.lists(
        st.lists(st.integers(0, len(m) - 1), min_size=windows,
                 max_size=windows), min_size=lanes, max_size=lanes)),
        dtype=np.int64).reshape(lanes, windows)
    backend = get_backend(floor)
    table = [group.to_jacobian(group.scalar_mul_unchecked(k, base))
             for k in m]
    expected = [group.scalar_mul_unchecked(
        sum(m[j] << (doublings * t) for t, j in enumerate(row)), base)
        for row in idx.tolist()]
    got = backend.window_sum(group, table, idx, doublings)
    assert type(got) is list
    assert group.batch_normalize(got) == expected
    resident = backend.batch_to_jacobian(group, backend.resident_points(
        group, group.batch_normalize(table)))
    got = backend.window_sum(group, resident, idx, doublings)
    assert type(got) is type(resident)
    assert list(backend.batch_from_jacobian(group, got)) == expected


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_window_sum_with_no_lanes_or_no_windows(shape, floor):
    group = CURVES["MNT4753"].g2
    backend = get_backend(floor)
    table = [group.to_jacobian(group.generator)]
    got = backend.window_sum(group, table, np.zeros(shape, np.int64), 3)
    assert group.batch_normalize(got) == [None] * shape[0]


def test_window_sum_reads_the_first_and_last_rows(floor):
    """Rows 0 and n - 1, and the infinity row a fixed-base table starts
    every window with."""
    group = CURVES["BLS12-381"].g1
    backend = get_backend(floor)
    g = group.generator
    table = [group.to_jacobian(p) for p in (None, g, group.double(g))]
    idx = np.array([[2, 0, 1], [0, 0, 0], [1, 2, 2]], dtype=np.int64)
    got = backend.window_sum(group, table, idx, 2)
    assert group.batch_normalize(got) == [
        group.scalar_mul(k, g) for k in (2 + 0 + 16, 0, 1 + 8 + 32)]


# -- lane counts and tallies --------------------------------------------------------


@pytest.mark.parametrize("which,lanes", [("g1", 0), ("g1", 1), ("g1", 7),
                                         ("g1", 64), ("g2", 1), ("g2", 7)])
def test_lane_counts(which, lanes, floor):
    group = getattr(CURVES["ALT-BN128"], which)
    rng = random.Random(lanes)
    points = [None if i % 5 == 4 else
              group.scalar_mul(rng.randrange(1, group.order), group.generator)
              for i in range(lanes)]
    scalars = [rng.randrange(group.order << 1) for _ in range(lanes)]
    assert batch_scalar_mul(group, points, scalars, backend=floor) \
        == _ladders(group, points, scalars)


@pytest.mark.parametrize("name,which", [("ALT-BN128", "g1"),
                                        ("MNT4753", "g2")])
def test_kernel_books_the_scalar_loops_counts(name, which):
    """The kernel's padd/pdbl tallies are the python loop's: an addition
    or a doubling onto infinity is count-free in both."""
    group = getattr(CURVES[name], which)
    good, rogue = _points(name, which)
    points = [*good, None, *rogue]
    scalars = [0, 5, group.order, 1 << 40, 3][:len(points)]
    totals = []
    for backend in ("python", "numpy"):
        counter = OpCounter()
        with counting(counter):
            batch_scalar_mul(group, points, scalars, backend=backend)
        totals.append(counter.totals())
    assert totals[0] == totals[1] and totals[0]["pdbl"] > 0


def test_lane_window_rule():
    """k trades each lane's 2^k - 2 multiples and one addition per
    window against a row cost shared by the lanes: it is pinned at the
    shapes the repo runs and never shrinks as lanes are added."""
    assert [_lane_window(254, n) for n in (1, 2, 17, 65)] == [2, 2, 3, 4]
    assert [_lane_window(753, n) for n in (1, 2, 9)] == [2, 3, 4]
    widths = [_lane_window(381, n) for n in (1, 10, 100, 10**4, 10**7)]
    assert widths == sorted(widths) and widths[-1] <= 16
    assert _lane_window(1, 1) == 1


def test_scalars_must_be_non_negative_and_one_per_point(floor):
    group = CURVES["ALT-BN128"].g1
    with pytest.raises(MsmError, match="non-negative"):
        batch_scalar_mul(group, [group.generator], [-1], backend=floor)
    with pytest.raises(MsmError, match="1 points but 2 scalars"):
        batch_scalar_mul(group, [group.generator], [1, 2], backend=floor)
    assert batch_scalar_mul(group, [], [], backend=floor) == []


# -- the boundary -------------------------------------------------------------------

_BAD_INDICES = [
    ("below the table", np.array([[0, -1]], dtype=np.int64), IndexError),
    ("past the table", np.array([[3, 4]], dtype=np.int64), IndexError),
    ("int32", np.array([[0, 1]], dtype=np.int32), ValueError),
    ("float64", np.array([[0.0, 1.0]]), ValueError),
    ("a list", [[0, 1]], ValueError),
    ("one-dimensional", np.array([0, 1], dtype=np.int64), ValueError),
    ("three-dimensional", np.zeros((1, 1, 2), dtype=np.int64), ValueError),
]


@pytest.mark.parametrize("what,idx,error", _BAD_INDICES,
                         ids=[case[0] for case in _BAD_INDICES])
def test_bad_index_raises_before_any_c_call(what, idx, error, floor,
                                            monkeypatch):
    group = CURVES["MNT4753"].g1
    backend = get_backend(floor)
    table = [group.to_jacobian(group.scalar_mul(k, group.generator))
             for k in (1, 2, 3, 4)]
    calls = []
    lib = native._get_lib()
    if lib is not None:
        monkeypatch.setattr(lib, "windows",
                            lambda *args: calls.append(args))
    resident = backend.batch_to_jacobian(
        group, backend.resident_points(group, group.batch_normalize(table)))
    for operand in (table, resident):
        with pytest.raises(error):
            backend.window_sum(group, operand, idx, 2)
    assert calls == []
    if isinstance(backend, kernel_backend.KernelBackend):
        # the spy is the kernel the guard stands in front of
        backend.window_sum(group, table, np.zeros((1, 2), np.int64), 2)
        assert len(calls) == 1


def test_point_op_refuses_a_doubling_count_out_of_range():
    if not native.native_available():
        pytest.skip("no compiled kernels")
    group = CURVES["ALT-BN128"].g1
    eng = kernel_backend._native_engine(group)
    row = kernel_backend._lift_buckets(eng, [group.to_jacobian(
        group.generator)])
    for doublings in (-1, 1 << 16):
        with pytest.raises(ValueError, match="doublings"):
            eng.point_op("windows", row, ids=np.zeros((1, 1), np.int64),
                         doublings=doublings)
