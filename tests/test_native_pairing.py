"""The pairing's C loops against the python engines they replace.

On every pairing curve the line generator over a G2 point is one C
walk (``miller_lines``: Jacobian over Fq2, one batched inversion per
table); the optimal-ate engines of ALT-BN128 and BLS12-381 replay every
loop of a check in one multi-Miller call (``miller_replay``) and run
their final exponentiation in C (``final_exp``), the MNT4753 Tate
engine replays in Fq2 (``tate_replay``). Each is checked here against
the python body that ``REPRO_NATIVE=0`` runs: the line tables (after
untwisting, on the optimal-ate engines), additions onto R itself and
onto -R, the multi-replay against the product of the python replays,
the final exponentiation, and the edge cases — a zero Miller product,
a G1 point at infinity, a loop that runs into infinity at the same
step on both floors, hostile shapes refused before a pointer crosses,
and two threads verifying at once. Without the kernels every case
skips.
"""

import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import native
from repro.curves import (CURVES, bls12_381_g1, bls12_381_g2,
                          bls12_381_pairing, bn128_g1, bn128_g2,
                          bn128_pairing, mnt4753_g1, mnt4753_g2_ready,
                          mnt4753_pairing)
from repro.curves.pairing import chord
from repro.errors import CurveError
from repro.ff.extension import ExtElement
from repro.ff.opcount import OpCounter, counting
from repro.snark import Groth16Prover, Groth16Verifier, R1CS, setup

pytestmark = pytest.mark.skipif(
    not native.native_available(),
    reason="native kernels unavailable (no compiler or REPRO_NATIVE=0)")

ENGINES = {
    "ALT-BN128": (bn128_pairing, bn128_g1, lambda: bn128_g2),
    "BLS12-381": (bls12_381_pairing, bls12_381_g1, lambda: bls12_381_g2),
    "MNT4753": (mnt4753_pairing, mnt4753_g1, mnt4753_g2_ready),
}
CURVE_NAMES = sorted(ENGINES)
ATE_NAMES = ["ALT-BN128", "BLS12-381"]

SCALARS = st.integers(min_value=1, max_value=(1 << 64) - 1)


def _engine(name):
    factory, g1, g2 = ENGINES[name]
    engine = factory()
    nf = engine._native_field()
    assert nf is not None
    return engine, nf, g1, g2()


def _python(engine, monkeypatch):
    """The python floor of ``engine`` for the rest of the test."""
    monkeypatch.setattr(engine, "_native_field", lambda: None)


def _fq2_of(engine):
    return getattr(engine, "field", None) or engine.params.fq2


def _fq2(engine, nf, rows):
    return _fq2_of(engine).element(nf.decode(rows))


def _fq12(engine, nf, rows):
    return ExtElement(engine.fq12, tuple(nf.decode(rows)))


def _row(engine, nf, row):
    """A table row as its three Fq2 values (lam, y - lam x, x')."""
    planes = row.reshape(6, -1)
    return [_fq2(engine, nf, planes[k:k + 2]) for k in (0, 2, 4)]


def _walk(q, sched, a):
    """The reference table of ``miller_lines`` over a schedule of
    doublings (0) and additions of q (1): pairing.chord's affine walk,
    a row ``(lam, y - lam x, x')`` per step, ``(x, 0, 0)`` and None once
    the line is vertical; raises where chord does."""
    rows, r_pt = [], q
    for code in sched:
        lam, nxt = chord(r_pt, r_pt if code == 0 else q, a)
        x, y = r_pt
        zero = x - x
        rows.append((x, zero, zero) if lam is None
                    else (lam, y - lam * x, nxt[0]))
        r_pt = nxt
    return rows


def _assert_table(engine, nf, table, vert, steps):
    """The C table is the python generator's ``steps``: the Tate steps
    ``(kind, lam, x, y, den_x)`` as they are, the optimal-ate ones
    ``(kind, lam, x, y)`` after untwisting the C values, whose x' is the
    next step's x."""
    assert len(steps) == len(table) == len(vert)
    ate = hasattr(engine, "fq12")
    for s, (step, row, vertical) in enumerate(zip(steps, table, vert)):
        lam_c, c, x_next = _row(engine, nf, row)
        if ate:
            _, lam, x, y = step
            lam_c, c = engine._untwisted(lam_c, 1), engine._untwisted(c, 3)
            den = steps[s + 1][2] if s + 1 < len(steps) else None
            x_next = engine._untwisted(x_next, 2)
        else:
            _, lam, x, y, den = step
        if lam is None:
            assert vertical and den is None
            assert (engine._untwisted(lam_c, 2) if ate else lam_c) == x
            assert not c and not x_next
        else:
            assert not vertical
            assert (lam_c, c) == (lam, y - lam * x)
            assert den is None or x_next == den


@pytest.mark.parametrize("name", CURVE_NAMES)
@settings(max_examples=4, deadline=None)
@given(k=SCALARS)
def test_lines_are_the_python_lines_untwisted(name, k):
    """The C table over a random multiple of the generator is the python
    line generator's, untwisted where the engine untwists, the Tate
    engine's vertical final step and its den_x plane included."""
    engine, nf, _, g2 = _engine(name)
    point = g2.scalar_mul(k, g2.generator)
    table, vert = engine._lines_rows(nf, point)
    steps = list(engine._lines(point))
    _assert_table(engine, nf, table, vert, steps)
    # the Tate loop ends on its vertical line: [r - 1]Q + Q is infinity
    assert list(vert[:-1]) == [0] * (len(vert) - 1)
    assert vert[-1] == (name == "MNT4753")


@pytest.mark.parametrize("name", CURVE_NAMES)
def test_additions_onto_r_and_onto_minus_r(name):
    """An addition step whose R is Q takes the tangent, as chord does;
    one whose R is -Q is vertical, and the step after it finds R at
    infinity on both floors. Off-curve points reach -Q in one doubling:
    x = 3t^2 and y = (3x^2 + a)/(6t) make the tangent's slope 3t, so
    2R = (x, -y); the walk never reads b."""
    engine, nf, _, g2 = _engine(name)
    fq2 = _fq2_of(engine)
    a = g2.a
    a_rows = None if not a else nf.encode(a.coeffs)
    q = g2.scalar_mul(11, g2.generator)
    sched = np.array([1, 0, 1, 0, 0, 1], dtype=np.uint8)
    table, vert = nf.miller_lines(nf.encode(q[0].coeffs + q[1].coeffs),
                                  sched, a=a_rows)
    rows = _walk(q, sched, a)
    assert [_row(engine, nf, row) for row in table] == [list(r) for r in rows]
    assert not vert.any()

    t = fq2.element([5, 7])
    x = t * t * 3
    y = (x * x * 3 + a) / (t * 6)
    hostile = (x, y)
    packed = nf.encode(x.coeffs + y.coeffs)
    sched = np.array([0, 1], dtype=np.uint8)
    table, vert = nf.miller_lines(packed, sched, a=a_rows)
    assert list(vert) == [0, 1]
    assert [_row(engine, nf, row) for row in table] == \
        [list(r) for r in _walk(hostile, sched, a)]
    sched = np.array([0, 1, 0], dtype=np.uint8)
    with pytest.raises(CurveError, match="point at infinity"):
        _walk(hostile, sched, a)
    with pytest.raises(CurveError, match="at step 2"):
        nf.miller_lines(packed, sched, a=a_rows)


@pytest.mark.parametrize("name", CURVE_NAMES)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_multi_replay_is_the_product_of_the_python_replays(name, data):
    engine, nf, g1, g2 = _engine(name)
    n = data.draw(st.integers(min_value=1, max_value=4))
    loops, expected = [], engine.unity
    for _ in range(n):
        p = g1.scalar_mul(data.draw(SCALARS), g1.generator)
        q = g2.scalar_mul(data.draw(SCALARS), g2.generator)
        loops.append((p, engine._lines_rows(nf, q)))
        expected = expected * engine._replay(p, engine._lines(q))
    assert engine._replay_rows(nf, loops) == expected


@pytest.mark.parametrize("name", ATE_NAMES)
def test_a_vertical_line_replays_as_python(name):
    """No G2 point of the groups leads the loop to a vertical line, so
    one is written into a real table: step 3 becomes the vertical line
    at x1, ``(x1 | 0 | 0)`` with its flag set, and step 3 of the python
    table the line ``(kind, None, x1 untwisted, y)``. (Every Tate table
    ends on a vertical line, which the multi-replay test replays.)"""
    engine, nf, g1, g2 = _engine(name)
    p, q = g1.scalar_mul(5, g1.generator), g2.scalar_mul(7, g2.generator)
    table, vert = (a.copy() for a in engine._lines_rows(nf, q))
    steps = list(engine._lines(q))
    x1 = engine.params.fq2.element([11, 13])
    w = nf.w
    table[3, :2 * w] = nf.encode(x1.coeffs).reshape(-1)
    table[3, 2 * w:] = 0
    vert[3] = 1
    kind, _, _, y = steps[3]
    steps[3] = (kind, None, engine._untwisted(x1, 2), y)
    assert engine._replay_rows(nf, [(p, (table, vert))]) == \
        engine._replay(p, steps)


@pytest.mark.parametrize("name", ATE_NAMES)
@settings(max_examples=3, deadline=None)
@given(coeffs=st.lists(st.integers(min_value=0, max_value=(1 << 384) - 1),
                       min_size=12, max_size=12))
def test_final_exp_is_the_python_one(name, coeffs):
    engine, _, _, _ = _engine(name)
    f = engine.fq12.element(coeffs)
    if not f:
        return
    native_value = engine.final_exponentiate(f)
    with pytest.MonkeyPatch.context() as m:
        _python(engine, m)
        assert engine.final_exponentiate(f) == native_value


@pytest.mark.parametrize("name", CURVE_NAMES)
def test_pairing_check_through_the_kernels(name, monkeypatch):
    """The accumulator's route: fresh and prepared loops in one replay,
    the op counts the python floor books, and the same GT value."""
    engine, _, g1, g2 = _engine(name)
    p, q = g1.generator, g2.generator
    p5, q3 = g1.scalar_mul(5, p), g2.scalar_mul(3, q)
    p15 = g1.scalar_mul(15, p)
    prepared = engine.prepare_g2(q)
    assert prepared.rows is not None
    counter = OpCounter()
    with counting(counter):
        acc = (engine.accumulator().accumulate(p5, q3)
               .accumulate_prepared(g1.neg(p15), prepared))
        assert len(acc._loops) == 2
        assert acc.is_one()
    assert counter.total("miller_loop") == 2
    assert counter.total("final_exp") == 1
    assert not (engine.accumulator().accumulate(p5, q3)
                .accumulate_prepared(p15, prepared).is_one())
    value = engine.pairing(p5, q3)
    with monkeypatch.context() as m:
        _python(engine, m)
        assert engine.pairing(p5, q3) == value


@pytest.mark.parametrize("name", CURVE_NAMES)
def test_a_zero_miller_product_is_a_clean_false(name):
    engine, _, g1, g2 = _engine(name)
    zero = engine.unity - engine.unity
    assert engine.final_exponentiate(zero) == zero
    acc = engine.accumulator().accumulate(g1.generator, g2.generator)
    acc._acc = zero
    assert acc._loops and acc.result() == zero
    assert acc.is_one() is False


@pytest.mark.parametrize("name", CURVE_NAMES)
def test_g1_at_infinity_contributes_unity(name):
    engine, nf, _, g2 = _engine(name)
    prepared = engine.prepare_g2(g2.generator)
    acc = (engine.accumulator().accumulate(None, g2.generator)
           .accumulate_prepared(None, prepared))
    assert acc._loops == [] and acc.is_one()
    ns, w = len(engine._schedule), nf.w
    no_loops = (np.zeros((0, ns, 6 * w), dtype=np.uint64),
                np.zeros((0, ns), dtype=np.uint8),
                np.zeros((0, w), dtype=np.uint64))
    if name in ATE_NAMES:
        rows = engine._rows
        empty = nf.miller_replay(*no_loops, rows.schedule, rows.fold,
                                 rows.untwist)
        assert _fq12(engine, nf, empty) == engine.unity
    else:
        empty = nf.tate_replay(*no_loops, engine._rows[0])
        assert _fq2(engine, nf, empty[:2]) == _fq2(engine, nf, empty[2:]) \
            == engine.unity


@pytest.mark.parametrize("name", CURVE_NAMES)
def test_a_loop_into_infinity_raises_on_both_floors(name, monkeypatch):
    """(x, 0) is 2-torsion: the first doubling is vertical and the next
    step finds the point at infinity, the same step on either floor."""
    engine, nf, g1, _ = _engine(name)
    fq2 = _fq2_of(engine)
    hostile = (fq2.element([3, 4]), fq2.zero)
    made = []
    with pytest.raises(CurveError, match="point at infinity"):
        made.extend(engine._lines(hostile))
    assert len(made) == 1 and made[0][1] is None
    with pytest.raises(CurveError, match="at step 1$"):
        engine._lines_rows(nf, hostile)
    for floor in ("native", "python"):
        with monkeypatch.context() as m:
            if floor == "python":
                _python(engine, m)
            with pytest.raises(CurveError, match="point at infinity"):
                engine.miller_pair(g1.generator, hostile)
            with pytest.raises(CurveError, match="point at infinity"):
                engine.accumulator().accumulate(g1.generator, hostile)
            with pytest.raises(CurveError, match="point at infinity"):
                engine.prepare_g2(hostile)


@pytest.mark.parametrize("name", CURVE_NAMES)
def test_hostile_shapes_are_refused_before_the_call(name):
    engine, nf, _, g2 = _engine(name)
    table, vert = engine._lines_rows(nf, g2.generator)
    g1 = nf.encode([1, 2])
    point = nf.encode(g2.generator[0].coeffs + g2.generator[1].coeffs)
    schedule = np.frombuffer(engine._schedule, dtype=np.uint8)
    with pytest.raises(ValueError):
        nf.miller_lines(point[:3], schedule)
    with pytest.raises(ValueError):                 # psi steps, no psi
        nf.miller_lines(point, np.array([0, 2], dtype=np.uint8))
    with pytest.raises(ValueError):
        nf.miller_lines(point, schedule, a=nf.encode([1]))
    if name not in ATE_NAMES:
        good = (table[None], vert[None], g1, engine._rows[0])
        assert nf.tate_replay(*good).shape == (4, nf.w)
        for index, bad in (
                (0, table[None, :, :-1]),                 # short rows
                (1, vert[None].astype(np.int64)),         # wrong dtype
                (2, nf.encode([1, 2, 3, 4])),             # two points
                (3, np.append(schedule, np.uint8(2)))):   # psi step
            args = list(good)
            args[index] = bad
            with pytest.raises(ValueError):
                nf.tate_replay(*args)
        return
    rows = engine._rows
    good = (table[None], vert[None], g1, rows.schedule, rows.fold,
            rows.untwist)
    assert nf.miller_replay(*good).shape == (12, nf.w)
    for index, bad in (
            (0, table[None, :-1]),                      # short table
            (1, vert[None].astype(np.int64)),           # wrong dtype
            (2, nf.encode([1, 2, 3, 4])),               # two points
            (3, np.append(rows.schedule, np.uint8(4))),  # unknown kind
            (4, rows.fold[:11]),                        # fold vs untwist
            (5, rows.untwist[:-1])):
        args = list(good)
        args[index] = bad
        with pytest.raises(ValueError):
            nf.miller_replay(*args)
    f = nf.encode([1] * 12)
    with pytest.raises(ValueError):
        nf.final_exp(f, f, rows.frobenius[:-1], rows.chain, rows.fold)
    for chain in (np.array([0, 1], dtype=np.uint8),
                  np.array([1, 16], dtype=np.uint8)):
        with pytest.raises(ValueError):
            nf.final_exp(f, f, rows.frobenius, chain, rows.fold)


@pytest.mark.parametrize("name", CURVE_NAMES)
def test_a_native_table_makes_its_python_steps_only_when_asked(
        name, monkeypatch):
    """With the kernels loaded, ``prepare_g2`` builds the packed rows
    alone — one ``g2_precomp``, no python line generator — and
    ``.steps`` is the python table the first time it is read."""
    engine, _, _, g2 = _engine(name)
    point = g2.scalar_mul(0x5DEECE66D, g2.generator)
    python_lines = engine._lines
    calls = []

    def lines(q):
        calls.append(q)
        return python_lines(q)

    monkeypatch.setattr(engine, "_lines", lines)
    monkeypatch.setattr(engine, "_prepared", {})
    counter = OpCounter()
    with counting(counter):
        prepared = engine.prepare_g2(point)
    assert counter.total("g2_precomp") == 1
    assert prepared.rows is not None and calls == []
    assert prepared.steps == tuple(python_lines(point))
    assert prepared.steps is prepared.steps and len(calls) == 1


def test_two_threads_verifying_at_once_get_their_verdicts():
    """ctypes drops the GIL inside the kernels, so two verify threads
    really overlap in C: every verdict must still be its own."""
    curve = CURVES["ALT-BN128"]
    fr = curve.fr
    r1cs = R1CS(field=fr, n_public=1)
    x = r1cs.new_variable()
    r1cs.add_constraint({x: 1}, {x: 1}, {1: 1})
    keys = setup(r1cs, curve, random.Random(7))
    prover = Groth16Prover(r1cs, keys.proving_key, curve)
    verifier = Groth16Verifier(keys.verifying_key, curve)
    cases = []
    for i, value in enumerate((3, 5, 9, 13)):
        proof = prover.prove([1, value * value % fr.modulus, value],
                             random.Random(i))
        public = [value * value % fr.modulus]
        cases.append((proof, public, True))
        cases.append((proof, [(public[0] + 1) % fr.modulus], False))
    verdicts = {}

    def run(offset):
        for j in range(offset, len(cases), 2):
            proof, public, _ = cases[j]
            verdicts[j] = verifier.verify(proof, public)

    threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert verdicts == {j: ok for j, (_, _, ok) in enumerate(cases)}
