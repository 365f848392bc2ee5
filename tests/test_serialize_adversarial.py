"""Adversarial serialization tests: the decoder must reject every
non-canonical, malformed or cryptographically unsafe encoding.

A proof deserializer is attacker-facing (the proving service accepts
request bytes and emits proof bytes), so round-trip correctness is the
easy half. This suite drives the strict-decode contract on all three
curves: hypothesis round-trip fuzz, truncated buffers, non-canonical
infinity and overflowing coordinates, x-coordinates off the curve, and
— on every group whose cofactor is not 1, i.e. all but ALT-BN128 G1 —
genuine on-curve points outside the prime-order subgroup, the classic
small-subgroup-confinement vector.

It also pins the MultiGpuMsm estimate regression: caller-supplied
sparse digit stats must actually reach the per-card cost model instead
of being silently replaced by the dense model.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import CURVES
from repro.errors import MsmError, ProofError
from repro.gpusim import V100
from repro.msm.multigpu import MultiGpuMsm
from repro.msm.windows import DigitStats
from repro.snark.serialize import (
    compress_g1,
    compress_g2,
    decompress_g1,
    decompress_g2,
    fq2_sqrt,
    fq_sqrt,
)
from tests.test_curves import random_curve_points

CURVE_NAMES = ["ALT-BN128", "BLS12-381", "MNT4753"]


@pytest.fixture(params=CURVE_NAMES, ids=CURVE_NAMES)
def curve(request):
    return CURVES[request.param]


# -- round-trip fuzz ---------------------------------------------------------------


@pytest.mark.parametrize("name", CURVE_NAMES)
@settings(max_examples=10, deadline=None)
@given(k=st.integers(min_value=0, max_value=2**753))
def test_g1_roundtrip_fuzz(name, k):
    cur = CURVES[name]
    point = cur.g1.scalar_mul(k % cur.fr.modulus, cur.g1.generator)
    blob = compress_g1(cur.g1, point)
    assert decompress_g1(cur.g1, blob) == point


@pytest.mark.parametrize("name", CURVE_NAMES)
@settings(max_examples=5, deadline=None)
@given(k=st.integers(min_value=0, max_value=2**753))
def test_g2_roundtrip_fuzz(name, k):
    cur = CURVES[name]
    point = cur.g2.scalar_mul(k % cur.fr.modulus, cur.g2.generator)
    blob = compress_g2(cur.g2, point)
    assert decompress_g2(cur.g2, blob) == point


# -- truncation --------------------------------------------------------------------


def test_truncated_buffers_rejected(curve):
    g1_blob = compress_g1(curve.g1, curve.g1.generator)
    g2_blob = compress_g2(curve.g2, curve.g2.generator)
    for cut in (0, 1, len(g1_blob) // 2, len(g1_blob) - 1):
        with pytest.raises(ProofError):
            decompress_g1(curve.g1, g1_blob[:cut])
    for cut in (0, 1, len(g2_blob) // 2, len(g2_blob) - 1):
        with pytest.raises(ProofError):
            decompress_g2(curve.g2, g2_blob[:cut])
    # oversize is just as malformed as undersize
    with pytest.raises(ProofError):
        decompress_g1(curve.g1, g1_blob + b"\x00")
    with pytest.raises(ProofError):
        decompress_g2(curve.g2, g2_blob + b"\x00")


# -- non-canonical encodings -------------------------------------------------------


def test_infinity_with_nonzero_payload_rejected(curve):
    n = len(compress_g1(curve.g1, None)) - 1
    clean = compress_g1(curve.g1, None)
    assert decompress_g1(curve.g1, clean) is None
    dirty = bytes([clean[0]]) + b"\x00" * (n - 1) + b"\x01"
    with pytest.raises(ProofError, match="non-canonical"):
        decompress_g1(curve.g1, dirty)
    # infinity flag combined with the sign bit is equally non-canonical
    with pytest.raises(ProofError, match="non-canonical"):
        decompress_g1(curve.g1, bytes([clean[0] | 0x01]) + clean[1:])

    clean2 = compress_g2(curve.g2, None)
    assert decompress_g2(curve.g2, clean2) is None
    dirty2 = bytes([clean2[0]]) + b"\x01" + clean2[2:]
    with pytest.raises(ProofError, match="non-canonical"):
        decompress_g2(curve.g2, dirty2)


def test_unknown_flag_bits_rejected(curve):
    blob = compress_g1(curve.g1, curve.g1.generator)
    with pytest.raises(ProofError, match="flag"):
        decompress_g1(curve.g1, bytes([blob[0] | 0x80]) + blob[1:])
    blob2 = compress_g2(curve.g2, curve.g2.generator)
    with pytest.raises(ProofError, match="flag"):
        decompress_g2(curve.g2, bytes([blob2[0] | 0x20]) + blob2[1:])


def test_overflowing_coordinate_rejected(curve):
    """x + p encodes the same curve point in a second way; the byte
    width of every curve here leaves room for it, so the decoder must
    refuse any coordinate >= p."""
    p = curve.fq.modulus
    blob = compress_g1(curve.g1, curve.g1.generator)
    n = len(blob) - 1
    x = int.from_bytes(blob[1:], "big")
    assert x + p < 1 << (8 * n), "test assumes x + p fits the encoding"
    overflowed = bytes([blob[0]]) + (x + p).to_bytes(n, "big")
    with pytest.raises(ProofError, match="non-canonical"):
        decompress_g1(curve.g1, overflowed)

    blob2 = compress_g2(curve.g2, curve.g2.generator)
    c0 = int.from_bytes(blob2[1:n + 1], "big")
    overflowed2 = (bytes([blob2[0]]) + (c0 + p).to_bytes(n, "big")
                   + blob2[n + 1:])
    with pytest.raises(ProofError, match="non-canonical"):
        decompress_g2(curve.g2, overflowed2)


def test_off_curve_x_rejected(curve):
    """An x whose curve polynomial value is a non-residue names no
    point at all."""
    field = curve.fq
    p = field.modulus
    n = len(compress_g1(curve.g1, curve.g1.generator)) - 1
    for x in range(1, 200):
        rhs = (pow(x, 3, p) + curve.g1.a * x + curve.g1.b) % p
        if fq_sqrt(p, rhs) is None:
            with pytest.raises(ProofError, match="not on the curve"):
                decompress_g1(curve.g1, bytes([0]) + x.to_bytes(n, "big"))
            return
    pytest.fail("no off-curve x found in [1, 200)")


# -- subgroup membership -----------------------------------------------------------


def _find_non_subgroup_g1(group):
    """Smallest-x on-curve point outside the prime-order subgroup —
    exists because the MNT4753 surrogate's G1 cofactor is 8."""
    p = group.coord_field.modulus
    for x in range(1, 500):
        rhs = (pow(x, 3, p) + group.a * x + group.b) % p
        y = fq_sqrt(p, rhs)
        if y is None:
            continue
        point = (x, y)
        if not group.in_subgroup(point):
            return point
    return None


def test_mnt4753_g1_wrong_subgroup_rejected():
    group = CURVES["MNT4753"].g1
    rogue = _find_non_subgroup_g1(group)
    assert rogue is not None, "cofactor 8: rogue points must exist"
    assert group.is_on_curve(rogue)
    blob = compress_g1(group, rogue)
    with pytest.raises(ProofError, match="subgroup"):
        decompress_g1(group, blob)
    # the escape hatch still decodes it (e.g. for cofactor clearing)
    assert decompress_g1(group, blob, check_subgroup=False) == rogue


def test_mnt4753_g2_wrong_subgroup_rejected():
    curve = CURVES["MNT4753"]
    group = curve.g2
    # The G2 generator is derived by clearing a cofactor of 8, but the
    # full curve order over Fq2 is 64 * 8 * r (cofactor 512): doubling
    # can stay outside the subgroup, so search small multiples of a
    # pre-clearing point instead: any on-curve point not killed by r.
    field = group.coord_field
    rogue = None
    for c1 in range(1, 60):
        x = field.element([0, c1])
        rhs = x * x * x + group.a * x + group.b
        y = fq2_sqrt(field, rhs)
        if y is None:
            continue
        point = (x, y)
        if group.is_on_curve(point) and not group.in_subgroup(point):
            rogue = point
            break
    assert rogue is not None, "nontrivial G2 cofactor: rogue points exist"
    blob = compress_g2(group, rogue)
    with pytest.raises(ProofError, match="subgroup"):
        decompress_g2(group, blob)
    assert decompress_g2(group, blob, check_subgroup=False) == rogue


@pytest.mark.parametrize("name,which", [("ALT-BN128", "g2"),
                                        ("BLS12-381", "g1"),
                                        ("BLS12-381", "g2")])
def test_wrong_subgroup_rejected(name, which):
    """A random point of the whole curve: on it, outside the order-r
    subgroup (the cofactor is not 1), and refused by the decoder."""
    group = getattr(CURVES[name], which)
    compress, decompress = ((compress_g1, decompress_g1) if which == "g1"
                            else (compress_g2, decompress_g2))
    rogue, = random_curve_points(group, random.Random(f"{name}/{which}"), 1)
    assert group.is_on_curve(rogue) and not group.in_subgroup(rogue)
    blob = compress(group, rogue)
    with pytest.raises(ProofError, match="subgroup"):
        decompress(group, blob)
    assert decompress(group, blob, check_subgroup=False) == rogue


def test_in_subgroup_is_not_vacuous():
    """Regression: ``in_subgroup`` used to call ``scalar_mul``, which
    reduces k mod the subgroup order — order * P was computed as 0 * P,
    so *every* point passed. The unreduced ladder must be used."""
    group = CURVES["MNT4753"].g1
    rogue = _find_non_subgroup_g1(group)
    assert rogue is not None
    assert group.scalar_mul(group.order, rogue) is None      # the trap
    assert group.scalar_mul_unchecked(group.order, rogue) is not None
    assert group.in_subgroup(group.generator)
    assert not group.in_subgroup(rogue)


# -- MultiGpuMsm stats regression --------------------------------------------------


class TestMultiGpuStats:
    BITS = 254

    def _engine(self, n_gpus=4):
        group = CURVES["ALT-BN128"].g1
        return MultiGpuMsm(group, self.BITS, V100, n_gpus=n_gpus)

    def test_sparse_stats_change_the_estimate(self):
        """Regression: estimate_seconds silently discarded caller stats
        (sparse == dense). Sparse vectors have far fewer non-zero
        digits, so they must price strictly below the dense model."""
        engine = self._engine()
        n = 1 << 20
        window = engine._engine.configure(n // engine.n_gpus).window
        sparse = DigitStats.sparse_model(n, self.BITS, window,
                                         zero_fraction=0.6,
                                         one_fraction=0.3)
        dense = engine.estimate_seconds(n)
        sparse_est = engine.estimate_seconds(n, sparse)
        assert sparse_est < dense

    def test_stats_scaled_to_per_card_slice(self):
        """The per-card slice keeps the full vector's sparsity
        fractions at per-card n."""
        n = 1 << 18
        full = DigitStats.sparse_model(n, self.BITS, 12,
                                       zero_fraction=0.5,
                                       one_fraction=0.25)
        per_card = full.scaled(n // 4)
        assert per_card.n == n // 4
        assert per_card.windows == full.windows
        assert per_card.nonzero_fraction == pytest.approx(
            full.nonzero_fraction, rel=1e-3)
        assert per_card.bucket_imbalance == pytest.approx(
            full.bucket_imbalance, rel=1e-2)

    def test_mismatched_window_stats_still_price(self):
        """Stats enumerated at a window the per-card profiler would not
        pick must still be priced (at their own window), not raise."""
        engine = self._engine()
        n = 1 << 16
        per_card_window = engine._engine.configure(
            n // engine.n_gpus).window
        other_window = 7 if per_card_window != 7 else 9
        stats = DigitStats.sparse_model(n, self.BITS, other_window,
                                        zero_fraction=0.4,
                                        one_fraction=0.2)
        est = engine.estimate_seconds(n, stats)
        assert est > 0

    def test_impossible_window_count_raises(self):
        engine = self._engine()
        bogus = DigitStats.dense_model(1 << 16, self.BITS, 1)
        object.__setattr__(bogus, "windows", self.BITS + 17)
        with pytest.raises(MsmError):
            engine.estimate_seconds(1 << 16, bogus)

    def test_single_gpu_matches_underlying_engine(self):
        engine = self._engine(n_gpus=1)
        n = 1 << 16
        stats = DigitStats.dense_model(
            n, self.BITS, engine._engine.configure(n).window)
        assert engine.estimate_seconds(n, stats) == pytest.approx(
            engine._engine.estimate_seconds(n, stats))

    def test_reduce_overhead_constant_is_used(self):
        from repro.gpusim import cost

        engine2 = self._engine(n_gpus=2)
        engine4 = self._engine(n_gpus=4)
        n = 1 << 20
        # overhead term grows linearly in the card count
        assert cost.MULTI_GPU_REDUCE_OVERHEAD > 0
        est2 = engine2.estimate_seconds(n)
        est4 = engine4.estimate_seconds(n)
        assert est2 > 0 and est4 > 0
