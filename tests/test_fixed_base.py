"""Fixed-base scalar multiplication (:mod:`repro.msm.fixed_base`).

* equivalence — every lane equals ``CurveGroup.scalar_mul`` on all
  three curves, both groups and every way of naming a backend floor
  (python, numpy with the compiled kernels, numpy without them — which
  resolves to python), on the scalars where a window table can go wrong;
* pins — the keys and proofs of seeded setups are byte-identical to the
  ones the per-element ``scalar_mul`` loop produced (digests captured on
  the parent commit), the prover's POLY and MSM op counts did not move,
  and keygen's own counts are the same on every backend;
* the pieces — the window rule and table lifetimes.
"""

import hashlib
import random

import pytest

from repro import snark
from repro.backend import get_backend, kernel_backend, native
from repro.curves import CURVES
from repro.ff.opcount import OpCounter, counting
from repro.msm.fixed_base import (FixedBaseTable, _window_for,
                                  fixed_base_mul)
from repro.service import Telemetry
from repro.service.registry import get_circuit
from repro.snark.serialize import compress_g1, compress_g2, serialize_proof

GROUPS = [(name, which) for name in ("ALT-BN128", "BLS12-381", "MNT4753")
          for which in ("g1", "g2")]
#: the backend names a caller can pass, and numpy with the kernels off
FLOORS = ["python", "numpy", "numpy-no-native"]


@pytest.fixture(params=FLOORS)
def floor(request, monkeypatch):
    """A backend name; for ``numpy-no-native`` the compiled kernels are
    switched off for the test, so asking for numpy gets the python floor
    (the loader re-probes when the toggle flips, so the next test gets
    them back)."""
    if request.param == "numpy-no-native":
        monkeypatch.setenv(native.NATIVE_ENV_VAR, "0")
        assert not native.native_available()
        assert get_backend("numpy") is get_backend("python")
        return "numpy"
    return request.param


def _edge_scalars(group):
    """Zero, one, both sides of the order, the widest value the table
    covers (its top window is partial unless k divides the width), and
    two scalars that are mostly all-zero windows."""
    r, bits = group.order, group.order.bit_length()
    return [0, 1, r - 1, r, r + 5, (1 << bits) - 1,
            (1 << (bits - 1)) | 1, 0x5 << (bits // 2), 0xDEADBEEF]


_REFERENCE = {}


def _reference(name, which):
    """``scalar_mul`` of the edge scalars on a non-generator base, once
    per group (an MNT4753 G2 ladder is 60 ms)."""
    key = (name, which)
    if key not in _REFERENCE:
        group = getattr(CURVES[name], which)
        base = group.scalar_mul(0xC0FFEE, group.generator)
        scalars = _edge_scalars(group)
        _REFERENCE[key] = (base, scalars,
                           [group.scalar_mul(s, base) for s in scalars])
    return _REFERENCE[key]


# -- equivalence ------------------------------------------------------------------


@pytest.mark.parametrize("name,which", GROUPS)
def test_edge_scalars_equal_scalar_mul(name, which, floor):
    group = getattr(CURVES[name], which)
    base, scalars, expected = _reference(name, which)
    assert fixed_base_mul(group, base, scalars, backend=floor) == expected
    assert expected[0] is None and expected[3] is None


@pytest.mark.parametrize("n", [0, 1, 15, 16, 17])
def test_lane_counts_around_the_vector_threshold(n, floor):
    """15/16/17 straddle ``MIN_VECTOR_LANES``, where a list operand
    moves from the scalar loop onto the kernels."""
    assert kernel_backend.MIN_VECTOR_LANES == 16
    group = CURVES["ALT-BN128"].g1
    rng = random.Random(n)
    scalars = [rng.randrange(group.order) for _ in range(n)]
    assert fixed_base_mul(group, group.generator, scalars, backend=floor) \
        == [group.scalar_mul(s, group.generator) for s in scalars]


@pytest.mark.parametrize("serves", [0, 16, 700])
def test_every_window_width_agrees(serves, floor):
    """One table, whatever window its builder's ``serves`` resolves,
    multiplies the same; k = 1 has no multiples to build at all."""
    group = CURVES["ALT-BN128"].g2
    base, scalars, expected = _reference("ALT-BN128", "g2")
    table = FixedBaseTable(group, base, serves, backend=floor)
    assert table.window == {0: 1, 16: 3, 700: 7}[serves]
    assert table.multiples(scalars) == expected
    assert table.multiples(scalars[2:4]) == expected[2:4]   # reusable
    assert table.multiples([]) == []


def test_base_at_infinity(floor):
    group = CURVES["ALT-BN128"].g1
    assert fixed_base_mul(group, None, [0, 1, 7], backend=floor) \
        == [None, None, None]
    assert FixedBaseTable(group, None, 3, backend=floor).table == []


def test_table_rows_are_the_backends_resident_form():
    group = CURVES["ALT-BN128"].g1
    if native.native_available():
        table = FixedBaseTable(group, group.generator, 40,
                               backend="numpy").table
        assert isinstance(table, kernel_backend.ResidentBuckets)
    table = FixedBaseTable(group, group.generator, 40,
                           backend="python").table
    assert type(table) is list
    assert group.jis_infinity(table[0])
    assert table[1] == group.to_jacobian(group.generator)


# -- the pieces -------------------------------------------------------------------


def test_window_rule():
    """k minimises two additions per table entry + one per scalar and
    window: it is pinned at the sizes the repo uses and never shrinks
    as a table serves more."""
    assert _window_for(254, 0) == 1
    assert _window_for(254, 16) == 3       # a prover's G2 delta table
    assert _window_for(254, 48) == 4       # ... and its G1 one
    assert _window_for(254, 2598) == 8     # the 2^10 lifecycle's G1 keygen
    assert _window_for(254, 527) == 6      # ... and its G2 one
    assert _window_for(753, 21) == 3
    widths = [_window_for(381, n) for n in (0, 1, 10, 100, 10**3, 10**5,
                                            10**7)]
    assert widths == sorted(widths) and widths[-1] <= 16


# -- pins against the parent commit -----------------------------------------------

#: sha256 over every compressed point of the seeded setup (pk scalars
#: and queries, then the vk) and over the seeded proof's bytes, captured
#: on the parent commit — where each element was its own ``scalar_mul``
#: — identically on the python and numpy backends
PARENT_DIGESTS = {
    ("ALT-BN128", "cubic"): (
        "0bf2c9d9fbb823db9c3f621c46784c7c6a543e50368c6f82d7f2785825906fe9",
        "af3ad4040e30510ce7d7a65a0f3b6747c2e14c8293cf9d94c86ec42a3e0fa233"),
    ("ALT-BN128", "range4"): (
        "b30968b7319b5f860ef539736f9bcb23d2097549aa75c61313d80cc0bdd1eda5",
        "b16e2809edcaac3d0cf2009f18ea7c4645913828c39c70e66bca79ae8a1a45d0"),
    ("BLS12-381", "cubic"): (
        "40a37490ba510c8be6836d27234c4c199d211583888b09177ac990dca04395c3",
        "22b29d7c75024b9d701622ec54918df0bbaceb75f7032d8f65e292c09272b1f7"),
    ("BLS12-381", "range4"): (
        "7d0038a7bf451883e27aca654d4337c3efa43365c457f8ed7865880fb9e66c71",
        "33c7ec0d55d3c249edc914d65b63d83faf58439e7653be2e6d26fa1dfd80ab2b"),
    ("MNT4753", "cubic"): (
        "52aa7262590d79ed6e8ca8ea12144a6d06b3d94d811a155c98e1925175adbc0c",
        "20913dba84987b9e36bfc165722ad0eac217068d4310a42b00ddba320c2298f2"),
    ("MNT4753", "range4"): (
        "d53a4472241d51a42bc87c0b467ee5895dabfa47ad2d2fc5ef6f0d7dcd9636bf",
        "96f7da49d7f3c86ba9242e0965fd1ed07c41b26e46f0d9788baffefd9d32dc83"),
}
_WITNESS = {"cubic": (3,), "range4": (9,)}


def _key_digest(keys, curve) -> str:
    pk, vk = keys.proving_key, keys.verifying_key
    h = hashlib.sha256()
    for p in [pk.alpha_g1, pk.beta_g1, pk.delta_g1, *pk.a_query,
              *pk.b_g1_query, *pk.c_query, *pk.h_query, vk.alpha_g1, *vk.ic]:
        h.update(compress_g1(curve.g1, p))
    for p in [pk.beta_g2, pk.delta_g2, *pk.b_g2_query, vk.beta_g2,
              vk.gamma_g2, vk.delta_g2]:
        h.update(compress_g2(curve.g2, p))
    return h.hexdigest()


def _seeded_setup(name, circuit, backend):
    curve = CURVES[name]
    r1cs = get_circuit(circuit).build(curve.fr)
    keys = snark.setup(r1cs, curve, backend=backend,
                       rng=random.Random(f"pin:{name}:{circuit}"))
    return curve, r1cs, keys


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("name,circuit", list(PARENT_DIGESTS))
def test_keys_and_proofs_are_the_parents_bytes(name, circuit, backend):
    curve, r1cs, keys = _seeded_setup(name, circuit, backend)
    key_digest, proof_digest = PARENT_DIGESTS[name, circuit]
    assert _key_digest(keys, curve) == key_digest
    prover = snark.make_gzkp_prover(r1cs, keys.proving_key, curve,
                                    backend=backend)
    proof = prover.prove(
        get_circuit(circuit).assign(curve.fr, _WITNESS[circuit]),
        random.Random(f"proof:{name}:{circuit}"))
    assert hashlib.sha256(
        serialize_proof(proof, curve)).hexdigest() == proof_digest


def test_setup_backend_defaults_to_the_environment(monkeypatch):
    """``backend=None`` is ``get_backend(None)``, as in every engine."""
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    curve, _, keys = _seeded_setup("ALT-BN128", "cubic", None)
    assert _key_digest(keys, curve) == PARENT_DIGESTS["ALT-BN128",
                                                      "cubic"][0]


#: range4's op counts. POLY and the five MSMs are the parent commit's;
#: keygen's moved with this change (2 601 + 337 where the per-element
#: ladders booked 9 428 + 6 287 on ALT-BN128 G1) and are pinned here
#: equal on every floor; assemble runs uncounted, as it always has.
PROVE_OPS = {
    "ALT-BN128": {"POLY": {"butterfly": 84, "fr_add": 176, "fr_mul": 196},
                  "MSM-A": {"padd": 1}, "MSM-B-G1": {"padd": 2},
                  "MSM-B-G2": {"padd": 2}, "MSM-C": {"padd": 1},
                  "MSM-H": {"padd": 351}},
    "MNT4753": {"POLY": {"butterfly": 84, "fr_add": 176, "fr_mul": 196},
                "MSM-A": {"padd": 1}, "MSM-B-G1": {"padd": 2},
                "MSM-B-G2": {"padd": 2}, "MSM-C": {"padd": 1},
                "MSM-H": {"padd": 811}},
}
KEYGEN_OPS = {
    "ALT-BN128": ({"padd": 2601, "pdbl": 337}, {"padd": 1273, "pdbl": 379}),
    "MNT4753": ({"padd": 7715, "pdbl": 997}, {"padd": 3723, "pdbl": 1123}),
}


@pytest.mark.parametrize("name", list(PROVE_OPS))
def test_op_counts(name, floor, monkeypatch):
    curve = CURVES[name]
    outside, counters = OpCounter(), [OpCounter(), OpCounter()]

    def counted(group, *args, **kwargs):
        # keygen's fixed-base call on each group, on that group's counter
        with counting(counters[group is curve.g2]):
            return fixed_base_mul(group, *args, **kwargs)

    with monkeypatch.context() as patch, counting(outside):
        patch.setattr(snark.keys, "fixed_base_mul", counted)
        _, r1cs, keys = _seeded_setup(name, "range4", floor)
    assert outside.totals() == {}
    assert tuple(c.totals() for c in counters) == KEYGEN_OPS[name]

    prover = snark.make_gzkp_prover(r1cs, keys.proving_key, curve,
                                    backend=floor)
    telemetry = Telemetry()
    prover.prove(get_circuit("range4").assign(curve.fr, (9,)),
                 random.Random(1), telemetry=telemetry)
    spans = {s["name"]: s for s in telemetry.to_dict()["spans"]}
    got = {"POLY": spans["POLY"]["ops"]}
    got.update((c["name"], c["ops"]) for c in spans["MSM"]["children"])
    assert got == PROVE_OPS[name]
    assert spans["assemble"]["ops"] == {}
