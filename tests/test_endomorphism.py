"""The curves' endomorphisms (:mod:`repro.curves.endomorphism`) and the
decoder's subgroup test built on them.

* constants — β^3 = 1 ≠ β in Fq, λ^2 + λ + 1 ≡ 0 (mod r), φ(G1) = [λ]G1,
  q ≡ 6x^2 (mod r) on ALT-BN128 and q ≡ x on BLS12-381, ψ(G2) =
  [q mod r]G2, GLV's basis in the lattice and short, and ψ's
  characteristic polynomial ψ^2 − tψ + q on points of the whole twist;
  MNT4753 has no entry and its decoder keeps [r]P;
* membership — a hypothesis property on both floors (the kernels and
  ``REPRO_NATIVE=0``): the decoder's test agrees with
  ``CurveGroup.in_subgroup`` on BN G2, BLS12-381 G1 and BLS12-381 G2
  for subgroup points, cofactor components [r]R and their sums;
* the pairing engine reads ψ from the module.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.curves import CURVES, bn128_pairing
from repro.curves.endomorphism import endomorphisms, membership
from repro.snark import serialize
from tests.test_curves import random_curve_points

BN_X = 4965661367192848881
BLS_X = -0xD201000000010000
#: (curve, group) pairs with an endomorphism membership test
FAST = [("ALT-BN128", "g2"), ("BLS12-381", "g1"), ("BLS12-381", "g2")]

_SLOW = settings(max_examples=3, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(params=["default", "REPRO_NATIVE=0"])
def floor(request, monkeypatch):
    if request.param != "default":
        monkeypatch.setenv("REPRO_NATIVE", "0")
    return request.param


def _signed_mul(group, c, point):
    out = group.scalar_mul_unchecked(abs(c), point)
    return group.neg(out) if c < 0 else out


# -- constants --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["ALT-BN128", "BLS12-381"])
def test_phi_constants(name):
    curve = CURVES[name]
    q, r = curve.fq.modulus, curve.fr.modulus
    endo = endomorphisms(name)
    assert pow(endo.beta, 3, q) == 1 and endo.beta != 1
    assert (endo.lam ** 2 + endo.lam + 1) % r == 0
    g = curve.g1.generator
    assert endo.phi(g) == curve.g1.scalar_mul(endo.lam, g)
    assert endo.phi(None) is None and endo.psi(None) is None
    (a1, b1), (a2, b2) = endo.basis
    assert abs(a1 * b2 - a2 * b1) == r
    for a, b in endo.basis:
        assert (a + b * endo.lam) % r == 0
        assert max(abs(a), abs(b)).bit_length() <= 129


def test_membership_scalars_are_the_family_polynomials():
    bn, bls = endomorphisms("ALT-BN128"), endomorphisms("BLS12-381")
    q, r = CURVES["ALT-BN128"].fq.modulus, CURVES["ALT-BN128"].fr.modulus
    assert bn.g2_test == 6 * BN_X ** 2 and q % r == 6 * BN_X ** 2
    assert bn.g2_test.bit_length() == 127 and bn.g1_test is None
    q, r = CURVES["BLS12-381"].fq.modulus, CURVES["BLS12-381"].fr.modulus
    assert bls.g2_test == BLS_X and (q - BLS_X) % r == 0
    assert bls.g1_test == -BLS_X ** 2 and bls.lam == -BLS_X ** 2 % r


@pytest.mark.parametrize("name", ["ALT-BN128", "BLS12-381"])
def test_psi_acts_as_q_on_g2_and_satisfies_its_polynomial(name):
    """ψ(G2) = [q mod r]G2; on points of the whole twist ψ^2 − [t]ψ +
    [q] = O, t = q + 1 − #E(Fq), the identity the soundness argument
    rests on."""
    curve = CURVES[name]
    g2, endo = curve.g2, endomorphisms(name)
    q, r = curve.fq.modulus, curve.fr.modulus
    assert endo.psi(g2.generator) == g2.scalar_mul(q % r, g2.generator)
    trace = q + 1 - curve.g1.order * curve.g1.cofactor
    for point in random_curve_points(g2, random.Random(name), 2):
        assert not g2.in_subgroup(point)
        image = endo.psi(point)
        assert g2.is_on_curve(image)
        total = g2.add(g2.add(endo.psi(image),
                              _signed_mul(g2, -trace, image)),
                       g2.scalar_mul_unchecked(q, point))
        assert total is None


def test_membership_names_each_groups_map_and_scalar():
    bn, bls = endomorphisms("ALT-BN128"), endomorphisms("BLS12-381")
    assert membership(CURVES["ALT-BN128"].g2) == (bn.psi, bn.g2_test)
    assert membership(CURVES["ALT-BN128"].g1) is None    # cofactor 1
    assert membership(CURVES["BLS12-381"].g1) == (bls.phi, bls.g1_test)
    assert membership(CURVES["BLS12-381"].g2) == (bls.psi, bls.g2_test)


def test_mnt4753_has_no_entry_and_keeps_the_order_ladder(monkeypatch):
    mnt = CURVES["MNT4753"]
    assert endomorphisms("MNT4753") is None
    assert membership(mnt.g1) is None and membership(mnt.g2) is None
    calls = []
    multiply = serialize.batch_scalar_mul

    def counted(group, points, scalars, backend=None):
        calls.append((group.name, scalars))
        return multiply(group, points, scalars, backend=backend)
    monkeypatch.setattr(serialize, "batch_scalar_mul", counted)
    point = mnt.g1.scalar_mul(0x9E3779B9, mnt.g1.generator)
    assert serialize.decompress_g1(
        mnt.g1, serialize.compress_g1(mnt.g1, point)) == point
    assert calls == [(mnt.g1.name, [mnt.g1.order])]


def test_derivation_books_nothing_on_the_callers_scope(monkeypatch):
    """An entry's first use runs the checks' ladders; a counted verify
    or decode that happens to trigger it must not pay them."""
    from repro.curves import endomorphism
    from repro.ff.opcount import OpCounter, counting

    monkeypatch.setattr(endomorphism, "_ENTRIES", {})
    ops = OpCounter()
    with counting(ops):
        assert endomorphisms("BLS12-381").g2_test == BLS_X
    assert ops.total("padd") == ops.total("pdbl") == 0


def test_pairing_engine_reads_psi_from_the_module():
    engine = bn128_pairing()
    endo = endomorphisms("ALT-BN128")
    assert engine._endo is endo
    assert not hasattr(engine, "_psi_x") and not hasattr(engine, "_psi_y")


# -- membership -------------------------------------------------------------------

_COMPONENTS = {}


def _component(name, which):
    """[r]R for a random point R of the whole curve: a point of the
    cofactor part, not infinity. Once per group."""
    key = (name, which)
    if key not in _COMPONENTS:
        group = getattr(CURVES[name], which)
        (point,) = random_curve_points(group, random.Random(f"{key}"), 1)
        _COMPONENTS[key] = group.scalar_mul_unchecked(group.order, point)
        assert _COMPONENTS[key] is not None
    return _COMPONENTS[key]


@pytest.mark.parametrize("name,which", FAST)
@_SLOW
@given(data=st.data())
def test_fast_membership_equals_in_subgroup(name, which, floor, data):
    """Each draw checks a subgroup point [k]G, a cofactor component
    [m][r]R and their sum."""
    group = getattr(CURVES[name], which)
    good = group.scalar_mul(data.draw(st.integers(1, group.order - 1)),
                            group.generator)
    component = group.scalar_mul_unchecked(
        data.draw(st.integers(1, 1 << 16)), _component(name, which))
    for point, member in ((good, True), (component, False),
                          (group.add(good, component), False)):
        assert point is not None
        assert serialize._in_subgroup(group, point) \
            == group.in_subgroup(point) == member
