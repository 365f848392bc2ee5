"""Resident field vectors: one ingress, one egress, same bits.

The ``numpy`` backend keeps a field vector as raw ``(n, w)`` word rows
(:class:`~repro.backend.kernel_backend.ResidentVector`) across a chain of
calls. These tests pin the contract down from outside: how many times
the int <-> word-row boundary is crossed, that nothing about the values
or the counted work changes, that every vector op hands back what it
was handed, that code which only knows ``Sequence[int]`` still works,
and that nothing witness-sized is left on a long-lived object.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import get_backend, native
from repro.backend.kernel_backend import ResidentVector
from repro.errors import FieldError, NttError
from repro.ff.opcount import OpCounter
from repro.ff.params import SCALAR_FIELDS
from repro.ff.primefield import PrimeField
from repro.gpusim import V100, XEON_5117
from repro.ntt import BaselineGpuNtt, CpuNtt, GzkpNtt, PolyStage
from repro.ntt.reference import ntt as reference_ntt
from repro.service.telemetry import Telemetry
from repro.snark.prover import _BackendNttEngine

PY = get_backend("python")
NP = get_backend("numpy")

CURVE_NAMES = sorted(SCALAR_FIELDS)
FIELDS = {name: PrimeField(SCALAR_FIELDS[name].modulus)
          for name in CURVE_NAMES}
BN = FIELDS["ALT-BN128"]

needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason="native kernels unavailable (no compiler or REPRO_NATIVE=0)")

ENGINES = {
    "gzkp": lambda field, backend: GzkpNtt(field, V100, backend=backend),
    "default": lambda field, backend: _BackendNttEngine(field,
                                                        backend=backend),
}


def _stage(field, backend, engine="gzkp"):
    return PolyStage(field, ENGINES[engine](field, backend), backend=backend)


def _abc(field, n, seed=0):
    """Evaluations with a_i * b_i == c_i (a satisfied system)."""
    rng = random.Random(f"{field.modulus}:{n}:{seed}")
    p = field.modulus
    a = [rng.randrange(p) for _ in range(n)]
    b = [rng.randrange(p) for _ in range(n)]
    return a, b, [x * y % p for x, y in zip(a, b)]


@pytest.fixture
def boundary_spy(monkeypatch):
    """Counts calls across the int <-> raw-word-row boundary."""
    calls = {"ingress": 0, "egress": 0}
    to_words = native.NativeField.words_from_ints
    to_ints = native.NativeField.ints_from_words

    def words_from_ints(self, vals):
        calls["ingress"] += 1
        return to_words(self, vals)

    def ints_from_words(self, arr):
        calls["egress"] += 1
        return to_ints(self, arr)

    monkeypatch.setattr(native.NativeField, "words_from_ints",
                        words_from_ints)
    monkeypatch.setattr(native.NativeField, "ints_from_words",
                        ints_from_words)
    return calls


# -- (a) conversion census --------------------------------------------------------


@needs_native
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_compute_h_crosses_the_boundary_four_times(engine, boundary_spy):
    """a, b, c in; h out. (18 + 17 before resident vectors.) The
    twiddle tables are encoded on first use, so one warm call first."""
    stage = _stage(BN, "numpy", engine)
    a, b, c = _abc(BN, 64)
    want = stage.compute_h(a, b, c)
    boundary_spy.update(ingress=0, egress=0)
    assert stage.compute_h(a, b, c) == want
    assert boundary_spy == {"ingress": 3, "egress": 1}


@needs_native
def test_int_callers_cross_once_each_way(boundary_spy):
    """Every int-in/int-out entry point lifts once around all of its
    steps: forward NTT, inverse NTT + 1/N scale, coset scale + NTT."""
    engine = GzkpNtt(BN, V100, backend="numpy")
    stage = PolyStage(BN, engine, backend="numpy")
    a, _, _ = _abc(BN, 64)
    calls = [lambda: engine.compute(a), lambda: engine.compute_inverse(a),
             lambda: stage.coset_ntt(a), lambda: stage.coset_intt(a),
             lambda: NP.ntt(BN, a), lambda: NP.intt(BN, a)]
    for call in calls:
        call()  # warm the twiddle / ladder caches
    for call in calls:
        boundary_spy.update(ingress=0, egress=0)
        out = call()
        assert type(out) is list
        assert boundary_spy == {"ingress": 1, "egress": 1}


# -- (b) equivalence ----------------------------------------------------------------


def _ops_tree(span_dict):
    """A telemetry tree with the clock readings dropped."""
    return {"name": span_dict["name"], "ops": span_dict["ops"],
            "children": [_ops_tree(c) for c in span_dict["children"]]}


def _compute_h_both_ways(field, a, b, c, engine="gzkp"):
    """h from the python backend; asserts the numpy backend's h, its
    ``OpCounter`` totals and its telemetry op tree are all identical."""
    results = []
    for backend in ("python", "numpy"):
        stage = _stage(field, backend, engine)
        counter = OpCounter()
        h = stage.compute_h(a, b, c, counter=counter)
        tel = Telemetry()
        with tel.span("POLY"):
            h_traced = stage.compute_h(a, b, c, telemetry=tel)
        assert type(h) is list and type(h_traced) is list
        assert h_traced == h
        results.append((h, counter.totals(),
                        _ops_tree(tel.to_dict()["spans"][0])))
    assert results[0] == results[1]
    h, totals, tree = results[0]
    assert tree["ops"] == {k: v for k, v in totals.items() if v}
    assert [child["name"] for child in tree["children"]] == [
        "INTT-a", "INTT-b", "INTT-c", "coset-NTT-a", "coset-NTT-b",
        "coset-NTT-c", "pointwise-quotient", "coset-INTT-h"]
    return h


@pytest.mark.parametrize("curve", CURVE_NAMES)
@pytest.mark.parametrize("n", [1, 2, 8, 1 << 9])
def test_compute_h_matches_python_backend(curve, n):
    field = FIELDS[curve]
    _compute_h_both_ways(field, *_abc(field, n))


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_compute_h_canonicalises_at_ingress(engine):
    """Values >= p and negatives come out as their residues would."""
    p = BN.modulus
    a, b, c = _abc(BN, 8)
    want = _compute_h_both_ways(BN, a, b, c, engine)
    shifted = ([v + p for v in a], [v - p for v in b],
               [v + 3 * p if i % 2 else v - 2 * p for i, v in enumerate(c)])
    assert _compute_h_both_ways(BN, *shifted, engine) == want
    assert all(0 <= v < p for v in want)


@pytest.mark.parametrize("curve", CURVE_NAMES)
def test_compute_h_with_aliased_operands(curve):
    """compute_h(a, a, a∘a): the same list object as two operands."""
    field = FIELDS[curve]
    a, _, _ = _abc(field, 16)
    squares = [v * v % field.modulus for v in a]
    h = _compute_h_both_ways(field, a, a, squares)
    assert h == _compute_h_both_ways(field, a, list(a), squares)


# -- (c) type preservation ----------------------------------------------------------

#: name -> (call taking a backend, a field and the vector operands, arity)
VECTOR_OPS = {
    "ntt": (lambda be, f, x: be.ntt(f, x), 1),
    "intt": (lambda be, f, x: be.intt(f, x), 1),
    "vscale": (lambda be, f, x: be.vscale(f, x, f.modulus - 12345), 1),
    "vmul_powers": (lambda be, f, x: be.vmul_powers(f, x, 22222222222), 1),
    "vadd": (lambda be, f, x, y: be.vadd(f, x, y), 2),
    "vsub": (lambda be, f, x, y: be.vsub(f, x, y), 2),
    "vmul": (lambda be, f, x, y: be.vmul(f, x, y), 2),
}


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_vector_ops_preserve_representation(data):
    """Ints in, a list out; resident in, resident out; the same values
    either way and as the python backend computes them; operands are
    never written."""
    field = FIELDS[data.draw(st.sampled_from(CURVE_NAMES))]
    p = field.modulus
    n = 1 << data.draw(st.integers(min_value=0, max_value=5))
    elems = st.one_of(st.sampled_from([0, 1, p - 1]),
                      st.integers(min_value=0, max_value=p - 1))
    vectors = [data.draw(st.lists(elems, min_size=n, max_size=n))
               for _ in range(2)]
    for name, (op, arity) in sorted(VECTOR_OPS.items()):
        ints_in = [list(v) for v in vectors[:arity]]
        want = op(PY, field, *ints_in)
        got = op(NP, field, *ints_in)
        assert type(got) is list and got == want, name
        assert ints_in == vectors[:arity], name

        held = [NP.resident(field, v) for v in vectors[:arity]]
        words = [v.rows.tobytes() for v in held
                 if isinstance(v, ResidentVector)]  # none with native off
        out = op(NP, field, *held)
        assert type(out) is type(held[0]), name
        assert NP.ints(out) == want, name
        assert [v.rows.tobytes() for v in held
                if isinstance(v, ResidentVector)] == words, name
        assert [NP.ints(v) for v in held] == vectors[:arity], name
        if arity == 2:  # one operand of each kind: stays resident
            mixed = op(NP, field, held[0], ints_in[1])
            assert type(mixed) is type(held[0]), name
            assert NP.ints(mixed) == want, name
            same = op(NP, field, held[0], held[0])  # aliased operands
            assert NP.ints(same) == op(PY, field, ints_in[0], ints_in[0])


@needs_native
def test_resident_vector_is_a_read_only_int_sequence(boundary_spy):
    p = BN.modulus
    values = [5, p - 1, 0, 7]
    vec = NP.resident(BN, [v + p for v in values])
    assert isinstance(vec, ResidentVector)
    assert NP.resident(BN, vec) is vec
    boundary_spy.update(ingress=0, egress=0)
    assert len(vec) == 4 and boundary_spy["egress"] == 0
    assert vec[1] == p - 1 and vec[-1] == 7 and vec[1:3] == [p - 1, 0]
    assert list(vec) == values and vec == values and values == list(vec)
    assert vec == NP.resident(BN, values) and vec != values[::-1]
    assert 7 in vec and vec.index(7) == 3
    assert boundary_spy["egress"] == 1  # decoded once, on first read
    with pytest.raises(TypeError):
        vec[0] = 1
    with pytest.raises(ValueError):
        vec.rows[0, 0] = 1
    fresh = NP.ints(vec)
    fresh[0] = 99  # a caller's list, not the vector's
    assert vec[0] == 5
    with pytest.raises(TypeError):
        hash(vec)


@pytest.mark.parametrize("curve", CURVE_NAMES)
def test_engines_that_only_know_int_sequences_still_work(curve):
    """A resident vector handed to an engine on another backend (or a
    user's own engine) is read as ints: right H, merely slower."""
    field = FIELDS[curve]
    a, b, c = _abc(field, 32)
    want = _stage(field, "python").compute_h(a, b, c)

    class UserEngine:
        """Knows nothing but ``for v in values``."""

        def compute(self, values, counter=None):
            return PY.ntt(field, [int(v) for v in values], counter=counter)

        def compute_inverse(self, values, counter=None):
            return PY.intt(field, [int(v) for v in values], counter=counter)

    for engine in (CpuNtt(field, XEON_5117, backend="python"), UserEngine()):
        assert PolyStage(field, engine,
                         backend="numpy").compute_h(a, b, c) == want
    # ...and a type-preserving engine under a stage on another backend
    assert PolyStage(field, GzkpNtt(field, V100, backend="numpy"),
                     backend="python").compute_h(a, b, c) == want
    vec = NP.resident(field, a)
    forward = reference_ntt(field, a, backend="python")
    assert BaselineGpuNtt(field, V100, backend="python").compute(vec) \
        == forward
    assert CpuNtt(field, XEON_5117, backend="python").compute(vec) == forward
    assert PY.vmul(field, vec, vec) == PY.vmul(field, a, a)


# -- (d) hygiene ----------------------------------------------------------------------


@needs_native
def test_repr_shows_no_element():
    vec = NP.resident(BN, [123456789] * 4)
    text = repr(vec)
    assert "123456789" not in text and "n=4" in text
    assert vec[0] == 123456789  # decoded: still nothing
    assert "123456789" not in repr(vec)


@needs_native
def test_no_vector_sized_residue_on_the_native_field():
    """a, b, c are witness-derived: after a compute_h the NativeField
    holds no array beyond its public constants, twiddles and ladders."""
    n = 128
    stage = _stage(BN, "numpy")
    stage.compute_h(*_abc(BN, n))
    nf = native.get_native_field(BN.modulus)
    for attr, value in vars(nf).items():
        if attr in ("_twiddles", "_ladders"):
            assert all(isinstance(v, np.ndarray) for v in value.values())
            continue
        assert not (isinstance(value, np.ndarray) and value.ndim == 2), attr
        assert not isinstance(value, (list, tuple, dict)), attr


# -- contract regressions: lengths and sizes ---------------------------------------------


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_pairwise_ops_reject_mismatched_lengths(backend):
    """numpy + native used to return 8 elements for vmul([1..8], [3, 5]),
    six of them read past the end of the second operand."""
    be = get_backend(backend)
    xs, ys = list(range(1, 9)), [3, 5]
    for op in (be.vadd, be.vsub, be.vmul):
        for left, right in ((xs, ys), (ys, xs),
                            (be.resident(BN, xs), ys),
                            (be.resident(BN, xs), be.resident(BN, ys))):
            with pytest.raises(FieldError):
                op(BN, left, right)
        assert len(op(BN, xs, xs)) == 8


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_bad_ntt_size_is_one_error_type(backend):
    be = get_backend(backend)
    for bad in ([], [1, 2, 3], [0] * 6):
        for vec in (bad, be.resident(BN, bad)):
            with pytest.raises(NttError):
                be.ntt(BN, vec)
            with pytest.raises(NttError):
                be.intt(BN, vec)
            for engine in (_BackendNttEngine(BN, backend=be),
                           GzkpNtt(BN, V100, backend=be)):
                with pytest.raises(NttError):
                    engine.compute(vec)
                with pytest.raises(NttError):
                    engine.compute_inverse(vec)
    # n = 1 is the identity, on ints and on resident vectors
    one = [BN.modulus + 5]
    held = be.resident(BN, one)
    for vec, kind in ((one, list), (held, type(held))):
        for out in (be.ntt(BN, vec), be.intt(BN, vec),
                    GzkpNtt(BN, V100, backend=be).compute(vec),
                    GzkpNtt(BN, V100, backend=be).compute_inverse(vec)):
            assert type(out) is kind and be.ints(out) == [5]
