"""Tests for the MNT4753-surrogate Tate pairing (the 753-bit curve's
real verification substrate)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import mnt4753_g1, mnt4753_g2_ready, mnt4753_pairing
from repro.errors import CurveError


@pytest.fixture(scope="module")
def engine():
    return mnt4753_pairing()


@pytest.fixture(scope="module")
def base(engine):
    g2 = mnt4753_g2_ready()
    e = engine.pairing(mnt4753_g1.generator, g2.generator)
    return g2, e


class TestTatePairing:
    def test_non_degenerate(self, engine, base):
        _, e = base
        assert e != engine.field.one

    def test_value_in_mu_r(self, engine, base):
        """The reduced pairing lands in the order-r subgroup of Fq2*."""
        _, e = base
        assert e ** engine.r == engine.field.one

    def test_bilinear_left(self, engine, base):
        g2, e = base
        p2 = mnt4753_g1.scalar_mul(2, mnt4753_g1.generator)
        assert engine.pairing(p2, g2.generator) == e * e

    def test_bilinear_right(self, engine, base):
        g2, e = base
        q3 = g2.scalar_mul(3, g2.generator)
        assert engine.pairing(mnt4753_g1.generator, q3) == e ** 3

    def test_bilinear_both(self, engine, base):
        g2, e = base
        p5 = mnt4753_g1.scalar_mul(5, mnt4753_g1.generator)
        q2 = g2.scalar_mul(2, g2.generator)
        assert engine.pairing(p5, q2) == e ** 10

    def test_negation_inverts(self, engine, base):
        g2, e = base
        pneg = mnt4753_g1.neg(mnt4753_g1.generator)
        assert engine.pairing(pneg, g2.generator) == e.inverse()

    def test_infinity_maps_to_one(self, engine, base):
        g2, _ = base
        assert engine.pairing(None, g2.generator) == engine.field.one
        assert engine.pairing(mnt4753_g1.generator, None) == engine.field.one

    def test_product_check(self, engine, base):
        g2, _ = base
        pairs = [
            (mnt4753_g1.generator, g2.generator),
            (mnt4753_g1.neg(mnt4753_g1.generator), g2.generator),
        ]
        assert engine.pairing_product_is_one(pairs)
        bad = [
            (mnt4753_g1.generator, g2.generator),
            (mnt4753_g1.generator, g2.generator),
        ]
        assert not engine.pairing_product_is_one(bad)

    def test_miller_loop_rejects_equal_points(self, engine):
        """A "G2" argument that is the embedded G1 point itself: every
        line through it vanishes at it, so the loop refuses."""
        embedded = engine.embed_g1(mnt4753_g1.generator)
        with pytest.raises(CurveError):
            engine.miller_pair(mnt4753_g1.generator, embedded)
        with pytest.raises(CurveError):
            engine.accumulator().accumulate(mnt4753_g1.generator, embedded)

    def test_engine_cached(self):
        from repro.curves.tate import mnt4753_pairing as factory

        assert factory() is factory()


#: coefficients below 2^760 (reduced mod q by ``element``), zero often
#: enough that zero and base-field values are drawn too
_COEFF = st.one_of(st.just(0), st.integers(min_value=1,
                                           max_value=(1 << 760) - 1))


@settings(max_examples=6, deadline=None)
@given(coeffs=st.lists(_COEFF, min_size=2, max_size=2))
def test_final_exponentiation_is_the_plain_power(coeffs):
    """(conj(f)/f)^8 is f ** ((q^2 - 1)/r), zero included: q + 1 = 8r."""
    engine = mnt4753_pairing()
    f = engine.field.element(coeffs)
    assert engine._final_exp == 8 * (engine.q - 1)
    assert engine.final_exponentiate(f) == f ** engine._final_exp
