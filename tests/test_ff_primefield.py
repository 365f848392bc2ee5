"""Unit tests for repro.ff.primefield."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.ff import ALT_BN128_R, BLS12_381_R, MNT4753_R, FieldElement, PrimeField

FIELDS = [ALT_BN128_R, BLS12_381_R, MNT4753_R, PrimeField(97, name="F_97")]


@pytest.fixture(params=FIELDS, ids=lambda f: f.name)
def field(request):
    return request.param


class TestStructure:
    def test_bits_match_paper(self):
        assert ALT_BN128_R.bits == 254
        assert BLS12_381_R.bits == 255
        # The surrogate scalar field is 750-bit; the *base* field is 753.
        assert MNT4753_R.bits == 750

    def test_limb_counts(self):
        from repro.ff import ALT_BN128_Q, BLS12_381_Q, MNT4753_Q

        assert ALT_BN128_Q.limbs64 == 4  # 256-bit class
        assert BLS12_381_Q.limbs64 == 6  # 381-bit class
        assert MNT4753_Q.limbs64 == 12  # 753-bit class
        # Paper §4.3's base-2^52 limbs, which gpusim prices DFP by: a
        # 753-bit integer becomes 15, a 254-bit one 5, a 381-bit one 8.
        assert MNT4753_Q.limbs52 == 15
        assert ALT_BN128_Q.limbs52 == 5
        assert BLS12_381_Q.limbs52 == 8

    def test_two_adicity_supports_paper_scales(self):
        # Tables 5-8 go up to 2^26; every field must support that.
        assert ALT_BN128_R.two_adicity >= 26
        assert BLS12_381_R.two_adicity >= 26
        assert MNT4753_R.two_adicity >= 26

    def test_bad_modulus_rejected(self):
        with pytest.raises(FieldError):
            PrimeField(1)


class TestArithmetic:
    def test_add_sub_roundtrip(self, field):
        rng = random.Random(1)
        for _ in range(50):
            a, b = rng.randrange(field.modulus), rng.randrange(field.modulus)
            assert field.sub(field.add(a, b), b) == a

    def test_mul_matches_int(self, field):
        rng = random.Random(2)
        for _ in range(50):
            a, b = rng.randrange(field.modulus), rng.randrange(field.modulus)
            assert field.mul(a, b) == a * b % field.modulus

    def test_inv(self, field):
        rng = random.Random(3)
        for _ in range(20):
            a = rng.randrange(1, field.modulus)
            assert field.mul(a, field.inv(a)) == 1

    def test_inv_zero_raises(self, field):
        with pytest.raises(FieldError):
            field.inv(0)

    def test_neg(self, field):
        rng = random.Random(4)
        a = rng.randrange(1, field.modulus)
        assert field.add(a, field.neg(a)) == 0
        assert field.neg(0) == 0

    def test_pow_negative_exponent(self, field):
        a = 7 % field.modulus
        if a == 0:
            pytest.skip("tiny field")
        assert field.mul(field.pow(a, -1), a) == 1

    def test_div(self, field):
        a, b = 10 % field.modulus, 7 % field.modulus
        if b == 0:
            pytest.skip("tiny field")
        assert field.mul(field.div(a, b), b) == a % field.modulus


class TestBatchInv:
    def test_matches_scalar_inv(self, field):
        rng = random.Random(5)
        vals = [rng.randrange(1, field.modulus) for _ in range(17)]
        batched = field.batch_inv(vals)
        assert batched == [field.inv(v) for v in vals]

    def test_zero_rejected(self, field):
        with pytest.raises(FieldError):
            field.batch_inv([1, 0, 2])

    def test_empty(self, field):
        assert field.batch_inv([]) == []


class TestRootsOfUnity:
    @pytest.mark.parametrize("log_order", [0, 1, 4, 10])
    def test_root_has_exact_order(self, field, log_order):
        if log_order > field.two_adicity:
            pytest.skip("insufficient 2-adicity")
        order = 1 << log_order
        w = field.root_of_unity(order)
        assert field.pow(w, order) == 1
        if order > 1:
            assert field.pow(w, order // 2) != 1

    def test_non_power_of_two_rejected(self, field):
        with pytest.raises(FieldError):
            field.root_of_unity(3)

    def test_excessive_order_rejected(self, field):
        with pytest.raises(FieldError):
            field.root_of_unity(1 << (field.two_adicity + 1))

    def test_nonresidue_is_nonresidue(self, field):
        g = field.find_nonresidue()
        assert not field.is_square(g)


class TestFieldElement:
    def test_operators(self):
        f = ALT_BN128_R
        a, b = f.element(3), f.element(5)
        assert int(a + b) == 8
        assert int(a * b) == 15
        assert int(b - a) == 2
        assert int(a - b) == f.modulus - 2
        assert int(-a) == f.modulus - 3
        assert (a / b) * b == a
        assert int(a ** 3) == 27

    def test_int_mixing(self):
        f = ALT_BN128_R
        a = f.element(3)
        assert int(2 * a) == 6
        assert int(a + 1) == 4
        assert int(1 - a) == f.modulus - 2
        assert int(6 / a) == 2

    def test_cross_field_rejected(self):
        a = ALT_BN128_R.element(1)
        b = BLS12_381_R.element(1)
        with pytest.raises(FieldError):
            _ = a + b

    def test_immutable_and_hashable(self):
        a = ALT_BN128_R.element(3)
        with pytest.raises(AttributeError):
            a.value = 4
        assert len({a, ALT_BN128_R.element(3)}) == 1

    def test_bool(self):
        f = ALT_BN128_R
        assert not f.element(0)
        assert f.element(1)


@settings(max_examples=60, deadline=None)
@given(a=st.integers(min_value=0), b=st.integers(min_value=0), c=st.integers(min_value=0))
def test_field_axioms_property(a, b, c):
    """Commutativity, associativity and distributivity on BN254's F_r."""
    f = ALT_BN128_R
    a, b, c = a % f.modulus, b % f.modulus, c % f.modulus
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@settings(max_examples=40, deadline=None)
@given(a=st.integers(min_value=1))
def test_fermat_property(a):
    f = BLS12_381_R
    a = a % (f.modulus - 1) + 1
    assert f.pow(a, f.modulus - 1) == 1
