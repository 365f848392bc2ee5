"""Unit and property tests for the elliptic-curve group law."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CurveError
from repro.ff.opcount import OpCounter, counting
from repro.curves import (
    CURVES,
    bls12_381_g1,
    bls12_381_g2,
    bn128_g1,
    bn128_g2,
    mnt4753_g1,
    mnt4753_g2_ready,
)

G1_GROUPS = [bn128_g1, bls12_381_g1, mnt4753_g1]


@pytest.fixture(params=G1_GROUPS, ids=lambda g: g.name)
def group(request):
    return request.param


@pytest.fixture(scope="module")
def mnt_g2():
    return mnt4753_g2_ready()


class TestGenerators:
    def test_g1_generators_valid(self, group):
        g = group.generator
        assert group.is_on_curve(g)
        assert group.scalar_mul(group.order, g) is None

    @pytest.mark.parametrize("g2", [bn128_g2, bls12_381_g2], ids=lambda g: g.name)
    def test_g2_generators_valid(self, g2):
        g = g2.generator
        assert g2.is_on_curve(g)
        assert g2.scalar_mul(g2.order, g) is None

    def test_mnt_g2_generator_valid(self, mnt_g2):
        g = mnt_g2.generator
        assert mnt_g2.is_on_curve(g)
        assert mnt_g2.scalar_mul(mnt_g2.order, g) is None

    def test_mnt_g2_disjoint_from_g1(self, mnt_g2):
        """The surrogate G2 generator must not be a base-field point
        (it lives on the twist component, independent of G1)."""
        x, y = mnt_g2.generator
        assert y.coeffs[1] != 0 or x.coeffs[1] != 0


class TestGroupLaw:
    def test_identity(self, group):
        g = group.generator
        assert group.add(g, None) == g
        assert group.add(None, g) == g
        assert group.add(None, None) is None

    def test_inverse(self, group):
        g = group.generator
        assert group.add(g, group.neg(g)) is None

    def test_commutativity(self, group):
        rng = random.Random(0)
        p = group.random_point(rng)
        q = group.random_point(rng)
        assert group.add(p, q) == group.add(q, p)

    def test_associativity(self, group):
        rng = random.Random(1)
        p = group.random_point(rng)
        q = group.random_point(rng)
        r = group.random_point(rng)
        assert group.add(group.add(p, q), r) == group.add(p, group.add(q, r))

    def test_double_equals_add_self(self, group):
        g = group.generator
        assert group.double(g) == group.add(g, g)

    def test_points_stay_on_curve(self, group):
        rng = random.Random(2)
        p = group.random_point(rng)
        q = group.random_point(rng)
        assert group.is_on_curve(group.add(p, q))
        assert group.is_on_curve(group.double(p))

    def test_off_curve_rejected_as_generator(self, group):
        with pytest.raises(CurveError):
            group.set_generator((1234, 5678))


class TestJacobian:
    def test_roundtrip(self, group):
        rng = random.Random(3)
        p = group.random_point(rng)
        assert group.from_jacobian(group.to_jacobian(p)) == p
        assert group.from_jacobian(group.to_jacobian(None)) is None

    def test_jadd_matches_affine(self, group):
        rng = random.Random(4)
        p = group.random_point(rng)
        q = group.random_point(rng)
        jp, jq = group.to_jacobian(p), group.to_jacobian(q)
        assert group.from_jacobian(group.jadd(jp, jq)) == group.add(p, q)

    def test_jdouble_matches_affine(self, group):
        rng = random.Random(5)
        p = group.random_point(rng)
        assert group.from_jacobian(group.jdouble(group.to_jacobian(p))) == (
            group.double(p)
        )

    def test_jmixed_add_matches_affine(self, group):
        rng = random.Random(6)
        p = group.random_point(rng)
        q = group.random_point(rng)
        assert group.from_jacobian(
            group.jmixed_add(group.to_jacobian(p), q)
        ) == group.add(p, q)

    def test_jadd_same_point_falls_back_to_double(self, group):
        g = group.generator
        jg = group.to_jacobian(g)
        assert group.from_jacobian(group.jadd(jg, jg)) == group.double(g)

    def test_jadd_inverse_gives_infinity(self, group):
        g = group.generator
        result = group.jadd(group.to_jacobian(g), group.to_jacobian(group.neg(g)))
        assert group.jis_infinity(result)

    def test_batch_normalize(self, group):
        rng = random.Random(7)
        points = [group.random_point(rng) for _ in range(5)]
        jacs = [group.to_jacobian(p) for p in points]
        # Mix in a doubled (non-trivial Z) point and an infinity.
        jacs[2] = group.jdouble(jacs[2])
        points[2] = group.double(points[2])
        jacs.append((group.ops.one, group.ops.one, group.ops.zero))
        points.append(None)
        assert group.batch_normalize(jacs) == points


class TestScalarMul:
    def test_small_scalars(self, group):
        g = group.generator
        acc = None
        for k in range(1, 8):
            acc = group.add(acc, g)
            assert group.scalar_mul(k, g) == acc

    def test_scalar_mod_order(self, group):
        g = group.generator
        assert group.scalar_mul(group.order + 5, g) == group.scalar_mul(5, g)
        assert group.scalar_mul(group.order, g) is None
        assert group.scalar_mul(0, g) is None

    def test_distributivity(self, group):
        rng = random.Random(8)
        a = rng.randrange(1, group.order)
        b = rng.randrange(1, group.order)
        g = group.generator
        lhs = group.scalar_mul((a + b) % group.order, g)
        rhs = group.add(group.scalar_mul(a, g), group.scalar_mul(b, g))
        assert lhs == rhs

    def test_wnaf_matches_double_and_add(self, group):
        rng = random.Random(9)
        g = group.generator
        for width in (2, 3, 4, 5):
            k = rng.randrange(1, group.order)
            assert group.wnaf_mul(k, g, width=width) == group.scalar_mul(k, g)

    def test_wnaf_bad_width(self, group):
        with pytest.raises(CurveError):
            group.wnaf_mul(3, group.generator, width=1)

    def test_infinity_input(self, group):
        assert group.scalar_mul(5, None) is None


class TestInstrumentation:
    def test_padd_counted(self):
        counter = OpCounter()
        with counting(counter):
            g = bn128_g1.generator
            bn128_g1.add(g, bn128_g1.double(g))
        # one affine double + one affine add, each one 'padd';
        # double() also routes through add().
        assert counter.total("padd") == 2

    def test_scalar_mul_padd_count_scales_with_bits(self):
        counter = OpCounter()
        with counting(counter):
            bn128_g1.scalar_mul((1 << 64) - 1, bn128_g1.generator)
        # 63 doublings + 63 true additions (the first addition onto the
        # infinity accumulator is a copy, not a PADD), all counted.
        assert counter.total("padd") == 63 + 63

    def test_scopes_are_per_thread(self):
        """Threads counting on one shared group at once each book only
        their own ops, and a thread that opens no scope books nothing
        onto theirs (switch interval shortened so they interleave)."""
        import sys
        import threading

        g = bn128_g1.generator
        counters = [OpCounter() for _ in range(6)]

        def work(counter):
            with counting(counter):
                for _ in range(20):
                    bn128_g1.scalar_mul(0xFFFF, g)

        def unscoped():
            for _ in range(20):
                bn128_g1.scalar_mul(0xFFFF, g)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(c,))
                       for c in counters]
            threads += [threading.Thread(target=unscoped) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        # 15 doublings (each also a padd) + 15 additions per multiplication
        want = {"padd": 20 * 30, "pdbl": 20 * 15}
        assert [c.totals() for c in counters] == [want] * 6


@settings(max_examples=15, deadline=None)
@given(k=st.integers(min_value=1, max_value=1 << 130))
def test_scalar_mul_homomorphism_property(k):
    """(k mod r) * G computed two ways agree on BN254 G1."""
    g = bn128_g1.generator
    half = k // 2
    lhs = bn128_g1.scalar_mul(k, g)
    rhs = bn128_g1.add(
        bn128_g1.scalar_mul(half, g), bn128_g1.scalar_mul(k - half, g)
    )
    assert lhs == rhs


def test_curve_registry_complete():
    assert set(CURVES) == {"ALT-BN128", "BLS12-381", "MNT4753"}
    for pair in CURVES.values():
        assert pair.g1.order == pair.fr.modulus


# -- cofactors ---------------------------------------------------------------

_BN_Q, _BN_R = CURVES["ALT-BN128"].fq.modulus, CURVES["ALT-BN128"].fr.modulus
#: group name -> #E / r, as published (params.py derives the BLS12-381
#: pair from the curve seed x = -0xd201000000010000 instead)
COFACTORS = {
    "ALT-BN128.G1": 1,
    "ALT-BN128.G2": 2 * _BN_Q - _BN_R,
    "BLS12-381.G1": 0x396C8C005555E1568C00AAAB0000AAAB,
    "BLS12-381.G2": int(
        "5d543a95414e7f1091d50792876a202cd91de4547085abaa68a205b2e5a7ddfa"
        "628f1cb4d9e82ef21537e293a6691ae1616ec6e786f0c70cf1c38e31c7238e5",
        16),
    "MNT4753.G1": 8,
    "MNT4753.G2": 64 * CURVES["MNT4753"].fr.modulus,
}


def random_curve_points(group, rng, count):
    """``count`` random points of the whole curve ``group`` lives on:
    almost surely outside the order-r subgroup when the cofactor is not
    1."""
    from repro.snark.serialize import fq2_sqrt, fq_sqrt

    field, points = group.coord_field, []
    while len(points) < count:
        if hasattr(field, "base"):  # Fq2
            q = field.base.modulus
            x = field.element([rng.randrange(q), rng.randrange(q)])
            y = fq2_sqrt(field, x * x * x + group.a * x + group.b)
        else:
            x = rng.randrange(field.modulus)
            y = fq_sqrt(field.modulus, x ** 3 + group.a * x + group.b)
        if y is not None:
            points.append((x, y))
    return points


@pytest.mark.parametrize("name", sorted(COFACTORS))
def test_cofactor_clears_into_the_subgroup(name):
    """[h r] P = O for random points P of the whole curve, and [h] P
    lands in the order-r subgroup: h is #E / r."""
    curve, which = name.split(".")
    group = getattr(CURVES[curve], which.lower())
    assert group.cofactor == COFACTORS[name]
    h, r = group.cofactor, group.order
    for point in random_curve_points(group, random.Random(name), 2):
        assert group.is_on_curve(point)
        assert group.scalar_mul_unchecked(h * r, point) is None
        assert group.in_subgroup(group.scalar_mul_unchecked(h, point))
        assert group.in_subgroup(point) == (h == 1)


def test_cofactor_one_decodes_without_a_ladder(monkeypatch):
    """ALT-BN128 G1 is the whole curve, so decoding a point checks that
    it is on the curve and runs no [r]P multiplication; a group with
    h > 1 still runs one."""
    from repro.snark import serialize
    from repro.snark.serialize import compress_g1, decompress_g1

    calls = []
    multiply = serialize.batch_scalar_mul

    def counted(group, points, scalars, backend=None):
        calls.append((group.name, scalars))
        return multiply(group, points, scalars, backend=backend)
    monkeypatch.setattr(serialize, "batch_scalar_mul", counted)

    for group in (bn128_g1, bls12_381_g1):
        point = group.scalar_mul(0x9E3779B9, group.generator)
        assert decompress_g1(group, compress_g1(group, point)) == point
    assert calls == [(bls12_381_g1.name, [bls12_381_g1.order])]
