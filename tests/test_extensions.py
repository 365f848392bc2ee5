"""Tests for the extension feature: the throughput-oriented batched NTT
(§7 future work)."""

import random

import pytest

from repro.curves import CURVES
from repro.errors import NttError
from repro.ff import ALT_BN128_R
from repro.gpusim import V100
from repro.ntt import ntt
from repro.ntt.batched import BatchedNtt

F = ALT_BN128_R


class TestBatchedNtt:
    def test_functional_exact(self):
        rng = random.Random(1)
        batch = [[rng.randrange(F.modulus) for _ in range(64)]
                 for _ in range(5)]
        engine = BatchedNtt(F, V100)
        out = engine.compute(batch)
        assert out == [ntt(F, vec) for vec in batch]

    def test_inverse_roundtrip(self):
        rng = random.Random(2)
        batch = [[rng.randrange(F.modulus) for _ in range(32)]
                 for _ in range(3)]
        engine = BatchedNtt(F, V100)
        assert engine.compute_inverse(engine.compute(batch)) == [
            [v % F.modulus for v in vec] for vec in batch
        ]

    def test_mixed_sizes_rejected(self):
        engine = BatchedNtt(F, V100)
        with pytest.raises(NttError):
            engine.compute([[1, 2, 3, 4], [1, 2]])

    def test_empty_batch(self):
        assert BatchedNtt(F, V100).compute([]) == []

    def test_batching_improves_throughput(self):
        """§7's point: many small NTTs co-scheduled beat serial dispatch
        (which pays launch/scheduling per transform and cannot fill the
        device with a small N)."""
        bls = CURVES["BLS12-381"]
        engine = BatchedNtt(bls.fr, V100)
        n = 1 << 12  # HE-scale transform
        batched = engine.throughput_transforms_per_second(64, n)
        serial = engine.serial_throughput(n)
        assert batched > 1.5 * serial

    def test_large_transforms_gain_less(self):
        """A 2^24 transform already saturates the device: batching
        cannot help much (why ZKP runs latency-mode, §7)."""
        bls = CURVES["BLS12-381"]
        engine = BatchedNtt(bls.fr, V100)
        small_gain = (engine.throughput_transforms_per_second(64, 1 << 12)
                      / engine.serial_throughput(1 << 12))
        large_gain = (engine.throughput_transforms_per_second(8, 1 << 24)
                      / engine.serial_throughput(1 << 24))
        assert small_gain > large_gain
