"""Tests for twiddle strategies (§5.3)."""

import random

import pytest

from repro.errors import NttError
from repro.ff import ALT_BN128_R, MNT4753_R
from repro.ntt.twiddle import (
    FULL,
    RECOMPUTE,
    UNIQUE,
    TwiddleTable,
    strategy_stats,
)

F = ALT_BN128_R


class TestTwiddleTable:
    def test_values_match_direct_powers(self):
        n = 64
        table = TwiddleTable(F, n)
        omega = F.root_of_unity(n)
        for i in range(6):
            for j in range(1 << i):
                expected = pow(omega, j * (n >> (i + 1)), F.modulus)
                assert table.lookup(i, j) == expected

    def test_lookup_wraps_offset(self):
        table = TwiddleTable(F, 16)
        # Offsets are taken mod 2^i (the in-block butterfly index).
        assert table.lookup(2, 1) == table.lookup(2, 5)

    def test_storage_is_n(self):
        assert TwiddleTable(F, 256).storage_elements() == 256

    def test_bad_size(self):
        with pytest.raises(NttError):
            TwiddleTable(F, 24)

    def test_iteration_out_of_range(self):
        with pytest.raises(NttError):
            TwiddleTable(F, 16).lookup(4, 0)

    def test_ntt_with_table_matches_reference(self):
        """Drive the reference butterfly loop from the table."""
        from repro.ntt import bit_reverse_permute, ntt

        n = 128
        rng = random.Random(0)
        values = [rng.randrange(F.modulus) for _ in range(n)]
        table = TwiddleTable(F, n)
        a = list(values)
        bit_reverse_permute(a)
        p = F.modulus
        log_n = 7
        for i in range(log_n):
            half = 1 << i
            for start in range(0, n, 2 * half):
                for j in range(half):
                    w = table.lookup(i, j)
                    u = a[start + j]
                    v = a[start + j + half] * w % p
                    a[start + j] = (u + v) % p
                    a[start + j + half] = (u - v) % p
        assert a == ntt(F, values)


class TestStrategyStats:
    def test_paper_full_table_blowup(self):
        """§5.3: full precomputation at 2^24 is 16x the memory — for
        753-bit elements that is log N / 2 = 12x-16x the input vector,
        'up to 24 GB'."""
        n = 1 << 24
        elem = MNT4753_R.limbs64 * 8
        stats = strategy_stats(FULL, n, elem)
        assert stats["storage_vs_input"] == 12.0  # (N/2 * 24) / N
        assert stats["storage_bytes"] >= 18 * 2**30  # "up to 24 GB"

    def test_unique_table_linear(self):
        stats = strategy_stats(UNIQUE, 1 << 24, 32)
        assert stats["storage_vs_input"] == 1.0
        assert stats["extra_muls"] == 0

    def test_recompute_costs_muls_not_memory(self):
        n = 1 << 20
        stats = strategy_stats(RECOMPUTE, n, 96)
        assert stats["storage_bytes"] == 0
        assert stats["extra_muls"] == (n // 2) * 20
