"""Native Jacobian point kernels vs the scalar group law.

The point kernels of :mod:`repro.backend.native` — the per-lane loops
``jac_dbl``/``jac_add`` and the sequential ``bucket_fold``, all over
the same ``jpt_*`` doubling and addition, G1 and Fq2 — must be
*bit-identical* to the scalar formulas — coordinates AND op counts — on
every curve, through every special lane the in-C routing can see:
infinity on either side (canonical ``(1, 1, 0)`` or any ``(x, y, 0)``,
which must come back verbatim), P == Q (same and different Jacobian
representatives, whole rows of them), P == -Q, y == 0, and q is None
on the mixed path (which is the ``jadd`` kernel over lifted operands).
Hypothesis drives the lane mixes; the point pools are deterministic
offset chains so a collision between unrelated lanes is a discrete-log
event.

Also here: the bucket fold's tallies on a python bucket list (one C
call, 2m adds minus the count-free ones), the native-coverage counters
those dispatches feed, the LRU prune that bounds the persistent kernel
cache, and the cross-checks that tie the certifier's replayed mul
counts to the group's formula constants and the (k, M) search's
pricing.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import coverage, get_backend
from repro.backend import native
from repro.backend import kernel_backend
from repro.curves import CURVES
from repro.ff.opcount import OpCounter
from tests.test_backend_curve_equivalence import jacobian_reps, offset_chain

pytestmark = pytest.mark.skipif(
    not native.native_available(), reason="no C compiler available")

PY = get_backend("python")
NP = get_backend("numpy")

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

CURVE_NAMES = ["ALT-BN128", "BLS12-381", "MNT4753"]
GROUPS = [(name, "g1") for name in CURVE_NAMES] + \
    [(name, "g2") for name in CURVE_NAMES]


def _group(name, which):
    pair = CURVES[name]
    return pair.g1 if which == "g1" else pair.g2


_POOLS = {}


def _pool(name, which, n=24):
    """Deterministic affine point pool P0 + k*G (pairwise independent
    for count-parity purposes)."""
    key = (name, which)
    pts = _POOLS.get(key)
    if pts is None:
        group = _group(name, which)
        rng = random.Random(hash(key) & 0xFFFF)
        gen = group.generator
        acc = group.to_jacobian(group.scalar_mul(rng.getrandbits(128), gen))
        jpts = []
        for _ in range(n):
            jpts.append(acc)
            acc = group.jmixed_add(acc, gen)
        pts = _POOLS[key] = group.batch_normalize(jpts)
    return pts


def _jrep(group, pt, k):
    """The (x k^2, y k^3, k) Jacobian representative of an affine pt."""
    o = group.ops
    kk = o.coerce(k)
    k2 = o.mul(kk, kk)
    return (o.mul(pt[0], k2), o.mul(pt[1], o.mul(k2, kk)), kk)


def _neg(group, jp):
    o = group.ops
    return (jp[0], o.sub(o.coerce(0), jp[1]), jp[2])


def _on_rows(op):
    """A backend curve op over python lists, run on resident bucket rows
    so that the kernel takes every lane count: lists in, lists (or the
    fold's one point) out."""
    def run(group, *lanes):
        eng = kernel_backend._native_engine(group)
        out = op(group, *(kernel_backend._lift_buckets(eng, row)
                          for row in lanes))
        return out if isinstance(out, tuple) else out.tolist()
    return run


def _assert_parity(group, batch_fn, scalar_fn, ps, qs):
    """Batch output and op-count totals must equal the scalar loop's."""
    c_ref, c_vec = OpCounter(), OpCounter()
    group.counter = c_ref
    try:
        exp = [scalar_fn(p, q) for p, q in zip(ps, qs)]
        group.counter = c_vec
        got = batch_fn(group, ps, qs)
    finally:
        group.counter = None
    assert got == exp
    assert c_ref._totals == c_vec._totals


ADD_KINDS = ("normal", "p_inf", "q_inf", "eq", "eq_rep", "neg",
             "p_inf_nc", "q_inf_nc", "both_inf_nc", "y0", "eq_y0")
MIXED_KINDS = ("normal", "q_none", "p_inf", "eq", "neg", "p_inf_nc",
               "q_none_p_inf_nc")
FOLD_KINDS = ("point", "inf", "same", "cancel", "y0")


def _inf_nc(group, pt, k):
    """A non-canonical infinity (x, y, 0): a handed-back operand must
    keep these coordinates, not be normalised to (1, 1, 0)."""
    x, y, _ = _jrep(group, pt, k)
    return (x, y, group.ops.zero)


def _y0(group, pt, k):
    """A synthetic (x, 0, z) lane — on no curve, but neither the scalar
    formulas nor the kernel ask, and both must stop doubling at it."""
    return (pt[0], group.ops.zero, group.ops.coerce(k))


def _build_add_lanes(group, name, which, kinds):
    o = group.ops
    pool = _pool(name, which)
    inf = (o.one, o.one, o.zero)
    ps, qs = [], []
    for i, kind in enumerate(kinds):
        a = pool[i % (len(pool) // 2)]
        b = pool[len(pool) // 2 + i % (len(pool) // 2)]
        p = _jrep(group, a, 2 + i)
        if kind == "p_inf":
            ps.append(inf)
            qs.append(_jrep(group, b, 3 + i))
        elif kind == "q_inf":
            ps.append(p)
            qs.append(inf)
        elif kind == "eq":
            ps.append(p)
            qs.append(p)
        elif kind == "eq_rep":
            ps.append(p)
            qs.append(_jrep(group, a, 5 + i))
        elif kind == "neg":
            ps.append(p)
            qs.append(_neg(group, _jrep(group, a, 7 + i)))
        elif kind == "p_inf_nc":
            ps.append(_inf_nc(group, a, 2 + i))
            qs.append(_jrep(group, b, 3 + i))
        elif kind == "q_inf_nc":
            ps.append(p)
            qs.append(_inf_nc(group, b, 3 + i))
        elif kind == "both_inf_nc":
            ps.append(_inf_nc(group, a, 2 + i))
            qs.append(_inf_nc(group, b, 3 + i))
        elif kind == "y0":
            ps.append(_y0(group, a, 2 + i))
            qs.append(_jrep(group, b, 3 + i))
        elif kind == "eq_y0":  # P == Q with y == 0: count-free infinity
            ps.append(_y0(group, a, 2 + i))
            qs.append(_y0(group, a, 2 + i))
        else:
            ps.append(p)
            qs.append(_jrep(group, b, 3 + i))
    return ps, qs


def _build_mixed_lanes(group, name, which, kinds):
    o = group.ops
    pool = _pool(name, which)
    inf = (o.one, o.one, o.zero)
    ps, qs = [], []
    for i, kind in enumerate(kinds):
        a = pool[i % (len(pool) // 2)]
        b = pool[len(pool) // 2 + i % (len(pool) // 2)]
        if kind == "q_none":
            ps.append(_jrep(group, a, 2 + i))
            qs.append(None)
        elif kind == "p_inf":
            ps.append(inf)
            qs.append(b)
        elif kind == "eq":
            ps.append(_jrep(group, a, 2 + i))
            qs.append(a)
        elif kind == "neg":
            ps.append(group.to_jacobian(a))
            qs.append((a[0], o.sub(o.coerce(0), a[1])))
        elif kind == "p_inf_nc":
            ps.append(_inf_nc(group, a, 2 + i))
            qs.append(b)
        elif kind == "q_none_p_inf_nc":
            ps.append(_inf_nc(group, a, 2 + i))
            qs.append(None)
        else:
            ps.append(_jrep(group, a, 2 + i))
            qs.append(b)
    return ps, qs


def _assert_mixed_parity(group, ps, qs):
    """``batch_jmixed_add`` through the backend — the lift of ``qs``
    into the ``jadd`` kernel — against ``CurveGroup.jmixed_add``. Lanes
    are repeated until the row is long enough to leave the scalar loop,
    and the coverage tally shows that it did."""
    reps = -(-kernel_backend.MIN_VECTOR_LANES // len(ps))
    coverage.reset()
    _assert_parity(group, NP.batch_jmixed_add, group.jmixed_add,
                   ps * reps, qs * reps)
    assert coverage.snapshot()["jacobian"] == {"native": 1}


def fold_lanes(group, pool, kinds):
    """Buckets whose ordered fold (last bucket first) meets the asked
    special cases: ``same`` repeats the running sum (the in-C doubling),
    ``cancel`` is its negation under another representative, ``y0`` is
    a synthetic (x, 0, z) lane."""
    o = group.ops
    inf = (o.one, o.one, o.zero)
    running, out = inf, []
    for i, kind in enumerate(kinds):
        if kind == "inf":
            b = inf
        elif kind == "same" and not o.is_zero(running[2]):
            b = running
        elif kind == "cancel" and not o.is_zero(running[2]):
            b = _neg(group, _jrep(group, group.from_jacobian(running), 3 + i))
        elif kind == "y0":
            b = _y0(group, pool[i % len(pool)], 2 + i)
        else:
            b = _jrep(group, pool[i % len(pool)], 2 + i)
        out.append(b)
        running = group.jadd(running, b)
    return out[::-1]


# -- tiny tier-1 smoke (every curve, G1 + G2, one mix of every lane) -----------


@pytest.mark.parametrize("name,which", GROUPS)
def test_parity_smoke(name, which):
    group = _group(name, which)
    assert kernel_backend._native_engine(group) is not None
    kinds = list(ADD_KINDS) + ["normal", "normal"]
    ps, qs = _build_add_lanes(group, name, which, kinds)
    _assert_parity(group, _on_rows(NP.batch_jadd), group.jadd, ps, qs)
    mkinds = list(MIXED_KINDS) + ["normal", "normal"]
    _assert_mixed_parity(group, *_build_mixed_lanes(group, name, which,
                                                    mkinds))
    # doubling: active lanes, both kinds of infinity (each comes back
    # as the formulas' (1, 1, 0)) and a y == 0 lane
    o = group.ops
    pool = _pool(name, which)
    pts = [_jrep(group, p, 2 + i) for i, p in enumerate(pool[:6])]
    pts[2] = (o.one, o.one, o.zero)
    pts[3] = _inf_nc(group, pool[3], 5)
    pts[4] = _y0(group, pool[4], 6)
    c_ref, c_vec = OpCounter(), OpCounter()
    group.counter = c_ref
    try:
        exp = [group.jdouble(p) for p in pts]
        group.counter = c_vec
        got = _on_rows(NP.batch_jdouble)(group, pts)
    finally:
        group.counter = None
    assert got == exp
    assert c_ref._totals == c_vec._totals


# -- hypothesis lane-mix fuzz --------------------------------------------------


@pytest.mark.parametrize("name", CURVE_NAMES)
@settings(max_examples=12, deadline=None)
@given(kinds=st.lists(st.sampled_from(ADD_KINDS), min_size=1, max_size=8),
       data=st.data())
def test_fuzz_jadd_lane_mixes(name, kinds, data):
    which = data.draw(st.sampled_from(["g1", "g2"]), label="group")
    group = _group(name, which)
    ps, qs = _build_add_lanes(group, name, which, kinds)
    _assert_parity(group, _on_rows(NP.batch_jadd), group.jadd, ps, qs)
    # whole rows of one special case: every lane P == Q (the aliased
    # call the residual fold could make), every lane P == -Q
    _assert_parity(group, _on_rows(NP.batch_jadd), group.jadd, ps, ps)
    _assert_parity(group, _on_rows(NP.batch_jadd), group.jadd, ps,
                   [_neg(group, p) for p in ps])


@pytest.mark.parametrize("name", CURVE_NAMES)
@settings(max_examples=12, deadline=None)
@given(kinds=st.lists(st.sampled_from(MIXED_KINDS), min_size=1, max_size=8),
       data=st.data())
def test_fuzz_jmixed_lane_mixes(name, kinds, data):
    which = data.draw(st.sampled_from(["g1", "g2"]), label="group")
    group = _group(name, which)
    _assert_mixed_parity(group, *_build_mixed_lanes(group, name, which,
                                                    kinds))


@pytest.mark.parametrize("name", CURVE_NAMES)
@settings(max_examples=12, deadline=None)
@given(kinds=st.lists(st.sampled_from(FOLD_KINDS), min_size=0, max_size=8),
       data=st.data())
def test_fuzz_bucket_fold_lane_mixes(name, kinds, data):
    """The C fold == ``pippenger.bucket_reduce``: coordinates of the
    total bit for bit (same formulas, same order, the formulas'
    (1, 1, 0) for an infinite total) and its in-C padd/pdbl tallies,
    through infinity runs, repeated running sums (the in-C doubling),
    cancellations and y == 0 lanes."""
    from repro.msm.pippenger import bucket_reduce

    which = data.draw(st.sampled_from(["g1", "g2"]), label="group")
    group = _group(name, which)
    buckets = fold_lanes(group, _pool(name, which), kinds)
    c_ref, c_vec = OpCounter(), OpCounter()
    group.counter = c_ref
    try:
        exp = bucket_reduce(group, buckets)
        group.counter = c_vec
        got = _on_rows(NP.bucket_reduce)(group, buckets)
    finally:
        group.counter = None
    assert got == exp
    assert +c_ref._totals == +c_vec._totals


@pytest.mark.parametrize("name,which", GROUPS)
def test_native_bucket_reduce_tallies_are_2m_minus_skips(name, which,
                                                         monkeypatch):
    """A list of buckets goes through one C fold — no python ``jadd``
    at all — whose padd tally is the 2m adds minus the count-free ones
    (an infinity operand on either side), with a doubling where the
    running sum repeats."""
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


# -- coverage counters ---------------------------------------------------------


def test_batch_dispatch_notes_coverage():
    coverage.reset()
    group = CURVES["ALT-BN128"].g1
    pts = [_jrep(group, p, 2 + i) for i, p in enumerate(_pool(
        "ALT-BN128", "g1")[:4])]
    _on_rows(NP.batch_jdouble)(group, pts)
    snap = coverage.snapshot()
    assert snap.get("jacobian", {}).get("native", 0) >= 1
    summary = coverage.summarize(snap)
    assert "jacobian:native=" in summary
    drained = coverage.drain()
    assert drained == snap
    assert coverage.snapshot() == {}


def test_worker_job_emits_native_coverage_event():
    from repro.service.worker import WorkerState, execute_job

    state = WorkerState(shard=0)
    # cubic, not square: its MSMs are the smallest in the registry that
    # clear the lane/entry thresholds, so the jacobian family has
    # dispatch decisions to report
    task = {"job_id": "cov-1", "curve": "ALT-BN128", "circuit": "cubic",
            "witness": (7,), "backend": "numpy"}
    result = execute_job(task, state)
    assert result["ok"], result.get("error")
    events = [e for e in result["telemetry"]["events"]
              if e["kind"] == "native-coverage"]
    assert len(events) == 1
    ev = events[0]
    # the numpy pipeline with loaded kernels runs every family native
    assert ev["jacobian"]["native"] >= 1
    assert ev["pointwise"]["native"] >= 1
    assert ev["ntt"]["native"] >= 1
    assert "jacobian:native=" in ev["detail"]


# -- persistent-cache LRU prune ------------------------------------------------


def _run_py(code, env_extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env.update(env_extra)
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=300,
                          env=env)


def test_cache_prune_keeps_newest_digests(tmp_path):
    """Publishing a fresh digest dir prunes the oldest stale digest
    dirs down to the cap, never touching the live digest or non-digest
    entries, and emits a native-kernel-cache-prune event."""
    stale = [f"{i:016x}" for i in range(4)]
    for i, d in enumerate(stale):
        sub = tmp_path / d
        sub.mkdir()
        (sub / "kernels.so").write_bytes(b"stale")
        t = 1_000_000 + i
        os.utime(sub, (t, t))
    keep = tmp_path / "user-placed"
    keep.mkdir()
    code = """
import json, os
from repro.backend import native
assert native.native_available()
kinds = [e["kind"] for e in native.kernel_events()]
base = native.cache_base_dir()
print(json.dumps({"kinds": kinds, "dirs": sorted(os.listdir(base))}))
"""
    r = _run_py(code, {"REPRO_NATIVE_CACHE": str(tmp_path),
                       "REPRO_NATIVE_CACHE_MAX_DIRS": "3"})
    assert r.returncode == 0, r.stderr
    import json
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert "native-kernel-cache-prune" in out["kinds"]
    live = native._source_digest()
    dirs = out["dirs"]
    assert live in dirs
    assert "user-placed" in dirs
    # cap 3 = live digest + 2 newest stale; the 2 oldest are gone
    assert stale[0] not in dirs and stale[1] not in dirs
    assert stale[2] in dirs and stale[3] in dirs


def test_cache_prune_ignores_non_digest_dirs(tmp_path):
    (tmp_path / "not-a-digest").mkdir()
    code = """
import json, os
from repro.backend import native
assert native.native_available()
print(json.dumps(sorted(os.listdir(native.cache_base_dir()))))
"""
    r = _run_py(code, {"REPRO_NATIVE_CACHE": str(tmp_path),
                       "REPRO_NATIVE_CACHE_MAX_DIRS": "1"})
    assert r.returncode == 0, r.stderr
    import json
    dirs = json.loads(r.stdout.strip().splitlines()[-1])
    assert "not-a-digest" in dirs
    assert native._source_digest() in dirs


# -- certifier / pricing cross-checks ------------------------------------------


def test_certificate_mul_counts_match_formula_constants():
    from repro.analysis import bounds
    from repro.curves.weierstrass import CurveGroup

    assert bounds._PDBL_FQ_MULS == CurveGroup.PDBL_FQ_MULS
    assert bounds._PADD_FQ_MULS == CurveGroup.PADD_FQ_MULS


@pytest.mark.parametrize("name", CURVE_NAMES)
def test_autotune_pricing_matches_certificate(name):
    """The engine tunes (k, M) itself (``GzkpMsm.configure``) and
    prices that search with its own plan — the cost model's formula
    constants — and the native-jacobian certificate replays the
    kernels at exactly those counts: there is no conversion term for
    a second pricing to add."""
    from repro.analysis.bounds import certify_native_jacobian
    from repro.gpusim import cost

    group = CURVES[name].g1
    cert = certify_native_jacobian(name, group.ops.field.modulus)
    assert cert.ok, [v.name for v in cert.violations()]
    consts = group.formula_constants()
    assert cert.params["native_muls"] == {
        "padd": consts["padd_fq_muls"], "pdbl": consts["pdbl_fq_muls"],
        "pdbl_a": consts["pdbl_fq_muls"] + 3}
    assert (cost.PADD_MULS, cost.PDBL_MULS) == (
        consts["padd_fq_muls"], consts["pdbl_fq_muls"])
