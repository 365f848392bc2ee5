"""Extension-field tower and pairing tests (Groth16's verification
substrate)."""

import hashlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import CurveError, FieldError
from repro.ff import ALT_BN128_Q, ExtensionField, PrimeField
from repro.ff.opcount import OpCounter, counting
from repro.curves import (
    bls12_381_g1,
    bls12_381_g2,
    bls12_381_pairing,
    bn128_g1,
    bn128_g2,
    bn128_pairing,
    mnt4753_g1,
    mnt4753_g2_ready,
    mnt4753_pairing,
)
from repro.curves.pairing import PreparedG2
from repro.curves.params import BN128_FQ2, MNT_FQ2

F13 = PrimeField(13, name="F_13")
# F_13[x]/(x^2 + 1): -1 is a non-residue mod 13? 5^2=25=12=-1, so it IS a
# residue; use x^2 - 2 instead (2 is a non-residue mod 13).
F169 = ExtensionField(F13, [-2, 0], name="F_169")


class TestExtensionFieldSmall:
    def test_add_sub(self):
        a = F169.element([3, 4])
        b = F169.element([10, 12])
        assert (a + b).coeffs == (0, 3)
        assert (a - b).coeffs == (6, 5)

    def test_mul_reduction(self):
        # (x)(x) = x^2 = 2 in F_13[x]/(x^2-2).
        x = F169.element([0, 1])
        assert (x * x).coeffs == (2, 0)

    def test_scalar_mul(self):
        a = F169.element([3, 4])
        assert (a * 2).coeffs == (6, 8)
        assert (2 * a).coeffs == (6, 8)
        assert a.scale(13).coeffs == (0, 0)

    def test_inverse_all_nonzero_elements(self):
        one = F169.one
        for c0 in range(13):
            for c1 in range(13):
                if c0 == c1 == 0:
                    continue
                a = F169.element([c0, c1])
                assert a * a.inverse() == one

    def test_zero_inverse_raises(self):
        with pytest.raises(FieldError):
            F169.zero.inverse()

    def test_pow(self):
        a = F169.element([3, 4])
        assert a ** 0 == F169.one
        assert a ** 1 == a
        assert a ** 5 == a * a * a * a * a
        assert a ** (-2) == (a * a).inverse()

    def test_field_order_exponent(self):
        # |F_169^*| = 168; Lagrange.
        a = F169.element([3, 4])
        assert a ** 168 == F169.one

    def test_conjugate(self):
        a = F169.element([3, 4])
        assert a.conjugate().coeffs == (3, 9)
        # Norm a * conj(a) lands in the base field.
        assert (a * a.conjugate()).coeffs[1] == 0

    def test_wrong_coeff_count_rejected(self):
        with pytest.raises(FieldError):
            F169.element([1, 2, 3])

    def test_cross_field_mix_rejected(self):
        other = ExtensionField(F13, [-2, 0, 0], name="F_13^3")
        with pytest.raises(FieldError):
            _ = F169.element([1, 2]) + other.element([1, 2, 3])


@settings(max_examples=50, deadline=None)
@given(
    c=st.tuples(*[st.integers(min_value=0, max_value=12)] * 2),
    d=st.tuples(*[st.integers(min_value=0, max_value=12)] * 2),
    e=st.tuples(*[st.integers(min_value=0, max_value=12)] * 2),
)
def test_extension_ring_axioms_property(c, d, e):
    a, b, g = F169.element(list(c)), F169.element(list(d)), F169.element(list(e))
    assert a * b == b * a
    assert (a * b) * g == a * (b * g)
    assert a * (b + g) == a * b + a * g


class TestFq12Tower:
    def test_bn128_fq12_inverse(self):
        eng = bn128_pairing()
        rng = random.Random(0)
        a = eng.fq12.element([rng.randrange(ALT_BN128_Q.modulus) for _ in range(12)])
        assert a * a.inverse() == eng.fq12.one

    def test_embedding_consistency(self):
        """i = w^6 - 9 in the BN128 tower: embedding Fq2 elements through
        the twist must respect multiplication."""
        eng = bn128_pairing()
        w6 = eng.fq12.element([0] * 6 + [1] + [0] * 5)
        i_embed = w6 - eng.fq12.from_base(9)
        assert i_embed * i_embed == eng.fq12.from_base(-1)

    def test_bls_embedding_consistency(self):
        eng = bls12_381_pairing()
        w6 = eng.fq12.element([0] * 6 + [1] + [0] * 5)
        i_embed = w6 - eng.fq12.from_base(1)
        assert i_embed * i_embed == eng.fq12.from_base(-1)


class TestBn128Pairing:
    """BN254 pairing — full bilinearity battery (fast enough to run)."""

    @pytest.fixture(scope="class")
    def base(self):
        eng = bn128_pairing()
        e = eng.pairing(bn128_g1.generator, bn128_g2.generator)
        return eng, e

    def test_nondegenerate(self, base):
        eng, e = base
        assert e != eng.fq12.one

    def test_bilinear_left(self, base):
        eng, e = base
        p2 = bn128_g1.scalar_mul(2, bn128_g1.generator)
        assert eng.pairing(p2, bn128_g2.generator) == e * e

    def test_bilinear_right(self, base):
        eng, e = base
        q3 = bn128_g2.scalar_mul(3, bn128_g2.generator)
        assert eng.pairing(bn128_g1.generator, q3) == e ** 3

    def test_bilinear_both(self, base):
        eng, e = base
        p5 = bn128_g1.scalar_mul(5, bn128_g1.generator)
        q7 = bn128_g2.scalar_mul(7, bn128_g2.generator)
        assert eng.pairing(p5, q7) == e ** 35

    def test_negation(self, base):
        eng, e = base
        pneg = bn128_g1.neg(bn128_g1.generator)
        assert eng.pairing(pneg, bn128_g2.generator) == e.inverse()

    def test_infinity_pairs_to_one(self, base):
        eng, _ = base
        assert eng.pairing(None, bn128_g2.generator) == eng.fq12.one
        assert eng.pairing(bn128_g1.generator, None) == eng.fq12.one

    def test_pairing_product_check(self, base):
        """e(P, Q) * e(-P, Q) == 1 via the batched product check."""
        eng, _ = base
        pairs = [
            (bn128_g1.generator, bn128_g2.generator),
            (bn128_g1.neg(bn128_g1.generator), bn128_g2.generator),
        ]
        assert eng.pairing_product_is_one(pairs)

    def test_pairing_product_check_rejects(self, base):
        eng, _ = base
        pairs = [
            (bn128_g1.generator, bn128_g2.generator),
            (bn128_g1.generator, bn128_g2.generator),
        ]
        assert not eng.pairing_product_is_one(pairs)


@pytest.mark.slow
class TestBls12381Pairing:
    """BLS12-381 pairing — one bilinearity check (slower field)."""

    def test_bilinearity(self):
        eng = bls12_381_pairing()
        e = eng.pairing(bls12_381_g1.generator, bls12_381_g2.generator)
        assert e != eng.fq12.one
        p2 = bls12_381_g1.scalar_mul(2, bls12_381_g1.generator)
        assert eng.pairing(p2, bls12_381_g2.generator) == e * e


# -- the engine API: one line table, one replay loop, one orientation ----------------


def _digest(value) -> str:
    """sha256 over the repr of a Miller value / line table with every
    field element replaced by its coefficient tuple."""
    def canon(v):
        if v is None or isinstance(v, str):
            return v
        if isinstance(v, tuple):
            return tuple(canon(x) for x in v)
        return v.coeffs

    return hashlib.sha256(repr(canon(value)).encode()).hexdigest()


#: name -> (engine factory, G1 group, G2 group factory,
#:          digest of miller_pair(G1, G2), digest of prepare_g2(G2).steps).
#: The digests were captured by running commit d4b8564 — the tree in
#: which a fresh loop and a prepared table were separate bodies — so
#: they pin bit-identity by something other than the code under test.
ENGINES = {
    "ALT-BN128": (
        bn128_pairing, bn128_g1, lambda: bn128_g2,
        "5bad9064d2846dbbea351c274864a740fde5a7716a5119a201fb572f56467d22",
        "01b450f2ad9e19edd22cb7ed0f14b77325d6687787379200ab5d5cfcdc8a87d1"),
    "BLS12-381": (
        bls12_381_pairing, bls12_381_g1, lambda: bls12_381_g2,
        "4fb996d379aa01fd63d5c4014fd55edd66963b8ae20d4976bc71f0126d2fc091",
        "e21430b5bfdf905ad9acf16cbfabb2713c6815920018791b8830675b3390caee"),
    "MNT4753": (
        mnt4753_pairing, mnt4753_g1, mnt4753_g2_ready,
        "fb5637ccbc61cbced4a3c062de18910277807062cf6af7a9e4913ed1f214ac22",
        "52cb40229a9cbdf455f9f8d649f5b199a8b1e4e47a3f701dd9b4f83407e72bfb"),
}


#: name -> digest of pairing(G1, G2).coeffs, captured by running commit
#: f4294e4, where the final exponentiation was the plain power
#: f ** ((q^k - 1)/r) over the schoolbook product.
GT_DIGESTS = {
    "ALT-BN128":
        "878eeb848e494bc4f95e25891d4136de112699e41d474fcb0ed03ad9fed997a0",
    "BLS12-381":
        "779443cec2ff5f1bd679e169f579110691e687ffe315aa213bb148507aad0404",
    "MNT4753":
        "df3facfe9b7240c1f5877afbe1ea8753c694ada7a35b3f9e234312e52b9267b7",
}


@pytest.fixture(scope="module", params=sorted(ENGINES))
def api(request):
    factory, g1, g2_factory, miller_digest, steps_digest = \
        ENGINES[request.param]
    return factory(), g1, g2_factory(), miller_digest, steps_digest


class TestEngineApi:
    """accumulator / prepare_g2 / miller_prepared on every engine."""

    def test_three_routes_one_value(self, api):
        eng, g1, g2, _, _ = api
        p, q = g1.generator, g2.generator
        e = eng.pairing(p, q)
        assert e != eng.unity
        assert eng.accumulator().accumulate(p, q).result() == e
        assert eng.final_exponentiate(
            eng.miller_prepared(p, eng.prepare_g2(q))) == e

    def test_miller_values_match_the_parent_commit(self, api):
        eng, g1, g2, miller_digest, steps_digest = api
        assert _digest(eng.miller_pair(g1.generator,
                                       g2.generator)) == miller_digest
        assert _digest(eng.prepare_g2(g2.generator).steps) == steps_digest

    def test_pairing_values_match_the_parent_commit(self, api):
        eng, g1, g2, _, _ = api
        assert _digest(eng.pairing(g1.generator,
                                   g2.generator)) == GT_DIGESTS[eng.name]

    def test_a_zero_miller_product_is_a_clean_false(self, api):
        """A degenerate Miller product stays zero through the final
        exponentiation, so the check says False instead of raising out
        of an inversion."""
        eng, _, _, _, _ = api
        zero = eng.unity - eng.unity
        assert eng.final_exponentiate(zero) == zero
        acc = eng.accumulator()
        acc._acc = zero
        assert acc.is_one() is False

    def test_bilinear_through_the_accumulator(self, api):
        """e(5P, 3Q) e(-15P, Q) == 1 with the second factor replayed
        from Q's table; dropping the negation must not balance."""
        eng, g1, g2, _, _ = api
        p, q = g1.generator, g2.generator
        p5 = g1.scalar_mul(5, p)
        q3 = g2.scalar_mul(3, q)
        p15 = g1.scalar_mul(15, p)
        prepared = eng.prepare_g2(q)
        counter = OpCounter()
        with counting(counter):
            assert (eng.accumulator().accumulate(p5, q3)
                    .accumulate_prepared(g1.neg(p15), prepared).is_one())
        # one loop fresh, one replayed, one shared final exponentiation
        assert counter.total("miller_loop") == 2
        assert counter.total("final_exp") == 1
        assert not (eng.accumulator().accumulate(p5, q3)
                    .accumulate_prepared(p15, prepared).is_one())

    def test_negation_through_the_accumulator(self, api):
        eng, g1, g2, _, _ = api
        p, q = g1.generator, g2.generator
        assert eng.pairing_product_is_one([(p, q), (g1.neg(p), q)])
        assert (eng.accumulator().accumulate(p, q)
                .accumulate(p, g2.neg(q)).is_one())

    def test_infinity_operands_cost_nothing(self, api):
        eng, g1, g2, _, _ = api
        p, q = g1.generator, g2.generator
        prepared = eng.prepare_g2(q)
        counter = OpCounter()
        with counting(counter):
            assert eng.miller_pair(None, q) == eng.unity
            assert eng.miller_pair(p, None) == eng.unity
            assert eng.miller_prepared(None, prepared) == eng.unity
            assert eng.pairing(None, q) == eng.unity
        assert counter.total("miller_loop") == 0
        assert counter.total("final_exp") == 0
        with pytest.raises(CurveError):
            eng.prepare_g2(None)

    def test_table_is_built_once_and_a_fresh_loop_caches_nothing(self, api):
        eng, g1, g2, _, _ = api
        q9 = g2.scalar_mul(0x9E3779B9, g2.generator)
        first = OpCounter()
        with counting(first):
            prepared = eng.prepare_g2(q9)
        assert first.total("g2_precomp") <= 1
        again = OpCounter()
        with counting(again):
            assert eng.prepare_g2(q9) is prepared
        assert again.total("g2_precomp") == 0
        size = len(eng._prepared)
        q7 = g2.scalar_mul(0x7F4A7C15, g2.generator)
        with counting(again):
            fresh = eng.miller_pair(g1.generator, q7)
        assert len(eng._prepared) == size
        assert again.total("miller_loop") == 1
        assert fresh == eng.miller_prepared(g1.generator,
                                            eng.prepare_g2(q7))

    def test_foreign_table_rejected(self, api):
        eng, g1, g2, _, _ = api
        steps = eng.prepare_g2(g2.generator).steps
        with pytest.raises(CurveError, match="prepared lines are for"):
            eng.miller_prepared(g1.generator,
                                PreparedG2("some-other-engine",
                                           lambda: steps))


# -- the final exponentiation's algebra --------------------------------------------


#: coefficients below 2^384 (reduced mod q by ``element``), zero often
#: enough that sparse operands — line values — are drawn too
_COEFF = st.one_of(st.just(0), st.integers(min_value=1,
                                           max_value=(1 << 384) - 1))


@pytest.mark.parametrize("factory", [bn128_pairing, bls12_381_pairing],
                         ids=["ALT-BN128", "BLS12-381"])
@settings(max_examples=3, deadline=None)
@given(coeffs=st.lists(_COEFF, min_size=12, max_size=12))
def test_final_exponentiation_is_the_plain_power(factory, coeffs):
    """Easy part x hard part over the precomputed Frobenius maps is
    f ** ((q^12 - 1)/r), and each map is the power it stands for."""
    eng = factory()
    f = eng.fq12.element(coeffs)
    assume(f and eng.frobenius(f, 6) * f != eng.unity)   # not unitary
    q = eng.fq12.base.modulus
    assert eng.final_exponentiate(f) == f ** eng._final_exp
    for k in (1, 2, 3, 6):
        assert eng.frobenius(f, k) == f ** q ** k


@pytest.mark.parametrize("field", [
    BN128_FQ2, MNT_FQ2, bn128_pairing().fq12, bls12_381_pairing().fq12,
], ids=lambda f: f.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_square_is_the_product_with_itself(field, data):
    x = field.element(data.draw(st.lists(_COEFF, min_size=field.degree,
                                         max_size=field.degree)))
    assert x.square() == x * x
