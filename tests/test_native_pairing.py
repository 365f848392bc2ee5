"""The pairing's three C loops against the python engine they replace.

On ALT-BN128 and BLS12-381 the optimal-ate engine runs its line
generator (``miller_lines``), its replay (``miller_replay``, every loop
of a check in one multi-Miller call) and its final exponentiation
(``final_exp``) in the compiled kernels whenever they load. Each is
checked here against the python body that ``REPRO_NATIVE=0`` runs: the
lines after untwisting, the multi-replay against the product of the
python replays, the final exponentiation, and the edge cases — a zero
Miller product, a G1 point at infinity, a loop that runs into infinity,
hostile shapes refused before a pointer crosses, and two threads
verifying at once. Without the kernels every case skips.
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
                          bn128_pairing)
from repro.errors import CurveError
from repro.ff.extension import ExtElement
from repro.ff.opcount import OpCounter, counting
from repro.snark import Groth16Prover, Groth16Verifier, R1CS, setup

pytestmark = pytest.mark.skipif(
    not native.native_available(),
    reason="native kernels unavailable (no compiler or REPRO_NATIVE=0)")

ENGINES = {
    "ALT-BN128": (bn128_pairing, bn128_g1, bn128_g2),
    "BLS12-381": (bls12_381_pairing, bls12_381_g1, bls12_381_g2),
}
CURVE_NAMES = sorted(ENGINES)

SCALARS = st.integers(min_value=1, max_value=(1 << 64) - 1)


def _engine(name):
    factory, g1, g2 = ENGINES[name]
    engine = factory()
    nf = engine._native_field()
    assert nf is not None
    return engine, nf, g1, g2


def _python(engine, monkeypatch):
    """The python floor of ``engine`` for the rest of the test."""
    monkeypatch.setattr(engine, "_native_field", lambda: None)


def _fq2(engine, nf, rows):
    return engine.params.fq2.element(nf.decode(rows))


def _fq12(engine, nf, rows):
    return ExtElement(engine.fq12, tuple(nf.decode(rows)))


@pytest.mark.parametrize("name", CURVE_NAMES)
@settings(max_examples=4, deadline=None)
@given(k=SCALARS)
def test_lines_are_the_python_lines_untwisted(name, k):
    engine, nf, _, g2 = _engine(name)
    point = g2.scalar_mul(k, g2.generator)
    table, vert = engine._lines_rows(nf, point)
    steps = list(engine._lines(point))
    assert len(steps) == len(table) == len(engine._schedule)
    for step, kind, row, vertical in zip(steps, engine._schedule, table,
                                         vert):
        py_kind, lam, x, y = step
        assert (py_kind == "sm") == (kind == 0)
        a = _fq2(engine, nf, row.reshape(4, -1)[:2])
        b = _fq2(engine, nf, row.reshape(4, -1)[2:])
        assert not vertical and lam is not None
        assert engine._untwisted(a, 1) == lam
        assert engine._untwisted(b, 3) == y - lam * x


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


@pytest.mark.parametrize("name", CURVE_NAMES)
def test_a_vertical_line_replays_as_python(name):
    """No G2 point of the groups leads the loop to a vertical line, so
    one is written into a real table: step 3 becomes the vertical line
    at x1, ``(x1 | 0)`` with its flag set, and step 3 of the python
    table the line ``(kind, None, x1 untwisted, y)``."""
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


@pytest.mark.parametrize("name", CURVE_NAMES)
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
    rows = engine._rows
    w = nf.w
    empty = nf.miller_replay(
        np.zeros((0, len(rows.schedule), 4 * w), dtype=np.uint64),
        np.zeros((0, len(rows.schedule)), dtype=np.uint8),
        np.zeros((0, w), dtype=np.uint64), rows.schedule, rows.fold,
        rows.untwist)
    assert _fq12(engine, nf, empty) == engine.unity


@pytest.mark.parametrize("name", CURVE_NAMES)
def test_a_loop_into_infinity_raises_on_both_floors(name, monkeypatch):
    """(x, 0) is 2-torsion: the first doubling is vertical and the next
    step finds the point at infinity, on either floor."""
    engine, _, g1, _ = _engine(name)
    fq2 = engine.params.fq2
    hostile = (fq2.element([3, 4]), fq2.zero)
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
    rows = engine._rows
    table, vert = engine._lines_rows(nf, g2.generator)
    g1 = nf.encode([1, 2])
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
    point = nf.encode(g2.generator[0].coeffs + g2.generator[1].coeffs)
    with pytest.raises(ValueError):
        nf.miller_lines(point[:3], rows.schedule, rows.psi)
    f = nf.encode([1] * 12)
    with pytest.raises(ValueError):
        nf.final_exp(f, f, rows.frobenius[:-1], rows.chain, rows.fold)
    for chain in (np.array([0, 1], dtype=np.uint8),
                  np.array([1, 16], dtype=np.uint8)):
        with pytest.raises(ValueError):
            nf.final_exp(f, f, rows.frobenius, chain, rows.fold)


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
