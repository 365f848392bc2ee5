"""Tests for the reference NTT and the POLY stage."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NttError
from repro.ff import ALT_BN128_R, MNT4753_R, OpCounter, PrimeField
from repro.ff.opcount import counting
from repro.gpusim import V100
from repro.ntt import (
    GzkpNtt,
    PolyStage,
    bit_reverse_permute,
    intt,
    naive_dft,
    ntt,
)

F = ALT_BN128_R


def rand_vec(n, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(F.modulus) for _ in range(n)]


class TestBitReverse:
    def test_size_8(self):
        v = list(range(8))
        bit_reverse_permute(v)
        assert v == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_involution(self):
        v = rand_vec(32)
        w = list(v)
        bit_reverse_permute(w)
        bit_reverse_permute(w)
        assert w == v

    def test_bad_size(self):
        with pytest.raises(NttError):
            bit_reverse_permute(list(range(6)))


class TestNtt:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 256])
    def test_matches_naive_dft(self, n):
        v = rand_vec(n, seed=n)
        assert ntt(F, v) == naive_dft(F, v)

    @pytest.mark.parametrize("n", [2, 16, 128, 1024])
    def test_roundtrip(self, n):
        v = rand_vec(n, seed=n + 1)
        assert intt(F, ntt(F, v)) == v
        assert ntt(F, intt(F, v)) == v

    def test_linearity(self):
        u, v = rand_vec(64, 1), rand_vec(64, 2)
        s = [(a + b) % F.modulus for a, b in zip(u, v)]
        expect = [(a + b) % F.modulus for a, b in zip(ntt(F, u), ntt(F, v))]
        assert ntt(F, s) == expect

    def test_constant_polynomial(self):
        # NTT of [c, 0, ..., 0] is [c, c, ..., c].
        v = [7] + [0] * 15
        assert ntt(F, v) == [7] * 16

    def test_delta_at_one(self):
        # Coefficients all 1 evaluate to N at x=1 and 0 elsewhere
        # (geometric sums of roots of unity vanish).
        n = 16
        v = [1] * n
        out = ntt(F, v)
        assert out[0] == n
        assert all(x == 0 for x in out[1:])

    def test_convolution_theorem(self):
        """Pointwise product of NTTs = cyclic convolution of inputs."""
        n = 32
        u, v = rand_vec(n, 3), rand_vec(n, 4)
        p = F.modulus
        prod = [(a * b) % p for a, b in zip(ntt(F, u), ntt(F, v))]
        conv = intt(F, prod)
        expected = [0] * n
        for i in range(n):
            for j in range(n):
                expected[(i + j) % n] = (expected[(i + j) % n] + u[i] * v[j]) % p
        assert conv == expected

    def test_bad_size_rejected(self):
        with pytest.raises(NttError):
            ntt(F, [1, 2, 3])

    def test_works_on_753bit_field(self):
        v = [x % MNT4753_R.modulus for x in rand_vec(16, 5)]
        assert intt(MNT4753_R, ntt(MNT4753_R, v)) == v

    def test_butterfly_count(self):
        counter = OpCounter()
        with counting(counter):
            ntt(F, rand_vec(64, 6))
        # N/2 * log N butterflies.
        assert counter.total("butterfly") == 32 * 6
        assert counter.total("fr_mul") == 32 * 6
        assert counter.total("fr_add") == 64 * 6


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64), min_size=16,
                max_size=16))
def test_parseval_like_roundtrip_property(coeffs):
    assert intt(F, ntt(F, coeffs)) == [c % F.modulus for c in coeffs]


class TestPolyStage:
    """The seven-NTT H(x) computation."""

    @pytest.fixture()
    def stage(self):
        return PolyStage(F, GzkpNtt(F, V100))

    def _random_satisfying_abc(self, n, seed=0):
        """Build evaluation vectors with a*b == c pointwise (what a
        satisfied R1CS instance guarantees on the domain)."""
        rng = random.Random(seed)
        a = [rng.randrange(F.modulus) for _ in range(n)]
        b = [rng.randrange(F.modulus) for _ in range(n)]
        c = [x * y % F.modulus for x, y in zip(a, b)]
        return a, b, c

    def test_h_is_exact_quotient(self, stage):
        """(A*B - C) must equal H * (x^N - 1) as polynomials."""
        n = 16
        a, b, c = self._random_satisfying_abc(n, 7)
        h = stage.compute_h(a, b, c)
        assert len(h) == n
        # Verify at a random point z outside the domain:
        # A(z)B(z) - C(z) == H(z) (z^N - 1).
        p = F.modulus
        z = 0xDEADBEEF
        a_c, b_c, c_c = intt(F, a), intt(F, b), intt(F, c)

        def ev(coeffs, x):
            acc = 0
            for coeff in reversed(coeffs):
                acc = (acc * x + coeff) % p
            return acc

        lhs = (ev(a_c, z) * ev(b_c, z) - ev(c_c, z)) % p
        rhs = ev(h, z) * (pow(z, n, p) - 1) % p
        assert lhs == rhs

    def test_unsatisfied_inputs_produce_inexact_quotient(self, stage):
        """If a*b != c on the domain, no polynomial H satisfies the
        identity — the computed h fails the random-point check."""
        n = 16
        a, b, c = self._random_satisfying_abc(n, 8)
        c[3] = (c[3] + 1) % F.modulus
        h = stage.compute_h(a, b, c)
        p = F.modulus
        z = 0xC0FFEE
        a_c, b_c, c_c = intt(F, a), intt(F, b), intt(F, c)

        def ev(coeffs, x):
            acc = 0
            for coeff in reversed(coeffs):
                acc = (acc * x + coeff) % p
            return acc

        lhs = (ev(a_c, z) * ev(b_c, z) - ev(c_c, z)) % p
        rhs = ev(h, z) * (pow(z, n, p) - 1) % p
        assert lhs != rhs

    def test_zero_witness(self, stage):
        n = 8
        h = stage.compute_h([0] * n, [0] * n, [0] * n)
        assert h == [0] * n

    def test_length_mismatch_rejected(self, stage):
        with pytest.raises(NttError):
            stage.compute_h([1, 2], [1, 2, 3, 4], [1, 2])

    def test_non_power_of_two_rejected(self, stage):
        with pytest.raises(NttError):
            stage.compute_h([1] * 3, [1] * 3, [1] * 3)

    def test_plan_counts_seven_ntts(self, stage):
        n = 1 << 20
        single = GzkpNtt(F, V100).plan(n)
        combined = stage.plan(n)
        key = (F.bits, "dfp")
        assert combined.gpu_muls[key] >= 7 * single.gpu_muls[key]
        # Pointwise work adds ~10 muls/element on top of the NTTs.
        assert combined.gpu_muls[key] == pytest.approx(
            7 * single.gpu_muls[key] + 10 * n
        )
