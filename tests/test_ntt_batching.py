"""Tests for the batch/group geometry (Figure 4) and the GPU NTT models."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NttError
from repro.ff import ALT_BN128_R, BLS12_381_R, MNT4753_R, OpCounter
from repro.ff.opcount import counting
from repro.gpusim import GTX1080TI, V100
from repro.ntt import (
    BaselineGpuNtt,
    BaselineNttVariant,
    CpuNtt,
    GzkpNtt,
    block_chunks,
    group_elements,
    ntt,
    plan_batches,
    run_batched_ntt,
)
from repro.gpusim.device import XEON_5117

F = ALT_BN128_R


class TestGroupGeometry:
    def test_figure4_batch0(self):
        # Batch 0 (s=0, B=2), N=16: group 0 is contiguous 0..3.
        assert group_elements(4, 0, 2, 0) == [0, 1, 2, 3]
        assert group_elements(4, 0, 2, 3) == [12, 13, 14, 15]

    def test_figure4_batch1(self):
        # Batch 1 (s=2, B=2), N=16: "the first group will be working on
        # elements 0, 4, 8, and 12" (§3).
        assert group_elements(4, 2, 2, 0) == [0, 4, 8, 12]
        assert group_elements(4, 2, 2, 1) == [1, 5, 9, 13]

    def test_groups_partition_all_elements(self):
        log_n, s, b = 6, 2, 3
        seen = set()
        for g in range(1 << (log_n - b)):
            elems = group_elements(log_n, s, b, g)
            assert len(elems) == 1 << b
            seen.update(elems)
        assert seen == set(range(1 << log_n))

    def test_figure4_block_chunks(self):
        """G consecutive groups at stride 2^s form 2^B contiguous
        length-G chunks — the coalescing property the internal shuffle
        relies on (here N=32, s=2, B=2, G=2)."""
        chunks = block_chunks(5, 2, 2, first_group=0, n_groups=2)
        assert chunks == [(0, 2), (4, 2), (8, 2), (12, 2)]

    def test_block_chunks_merge_when_groups_fill_stride(self):
        """With G = 2^s the runs become adjacent and merge into fully
        contiguous coverage (the best case)."""
        chunks = block_chunks(4, 2, 2, first_group=0, n_groups=4)
        assert chunks == [(0, 16)]

    def test_block_chunks_batch0(self):
        # Contiguous groups merge into one chunk in batch 0.
        chunks = block_chunks(4, 0, 2, first_group=0, n_groups=4)
        assert chunks == [(0, 16)]

    def test_out_of_range_rejected(self):
        with pytest.raises(NttError):
            group_elements(4, 3, 2, 0)
        with pytest.raises(NttError):
            group_elements(4, 0, 2, 4)


class TestBatchPlan:
    def test_tiling(self):
        plan = plan_batches(20, 8)
        assert [(b.shift, b.width) for b in plan.batches] == [
            (0, 8), (8, 8), (16, 4),
        ]

    def test_single_batch(self):
        plan = plan_batches(5, 8)
        assert len(plan.batches) == 1
        assert plan.batches[0].width == 5

    def test_bad_width(self):
        with pytest.raises(NttError):
            plan_batches(10, 0)


class TestBatchedExecutor:
    @pytest.mark.parametrize("log_n,width", [(4, 2), (6, 3), (8, 8), (7, 2),
                                             (10, 4), (9, 5)])
    def test_matches_reference(self, log_n, width):
        rng = random.Random(log_n * 10 + width)
        v = [rng.randrange(F.modulus) for _ in range(1 << log_n)]
        plan = plan_batches(log_n, width)
        assert run_batched_ntt(F, v, plan) == ntt(F, v)

    def test_wrong_size_rejected(self):
        with pytest.raises(NttError):
            run_batched_ntt(F, [1, 2, 3, 4], plan_batches(3, 2))

    @settings(max_examples=10, deadline=None)
    @given(width=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=99))
    def test_any_width_property(self, width, seed):
        rng = random.Random(seed)
        v = [rng.randrange(F.modulus) for _ in range(256)]
        assert run_batched_ntt(F, v, plan_batches(8, width)) == ntt(F, v)


class TestGzkpNtt:
    def test_functional_all_fields(self):
        for field in (ALT_BN128_R, BLS12_381_R, MNT4753_R):
            rng = random.Random(1)
            v = [rng.randrange(field.modulus) for _ in range(128)]
            engine = GzkpNtt(field, V100)
            assert engine.compute(v) == ntt(field, v)
            assert engine.compute_inverse(engine.compute(v)) == v

    def test_config_respects_shared_memory(self):
        for field in (ALT_BN128_R, MNT4753_R):
            cfg = GzkpNtt(field, V100).configure(1 << 20)
            staged = cfg.groups_per_block * (1 << cfg.batch_width)
            assert staged * field.limbs64 * 8 <= V100.shared_mem_per_sm // 2
            assert cfg.threads_per_block <= V100.max_threads_per_block

    def test_config_keeps_min_groups(self):
        cfg = GzkpNtt(ALT_BN128_R, V100).configure(1 << 22)
        assert cfg.groups_per_block >= GzkpNtt.MIN_GROUPS

    def test_measured_counts_match_plan(self):
        """The analytic plan's butterfly count equals the instrumented
        functional count — the key counts-are-exact validation."""
        n = 1 << 10
        engine = GzkpNtt(F, V100)
        counter = OpCounter()
        rng = random.Random(2)
        with counting(counter):
            engine.compute([rng.randrange(F.modulus) for _ in range(n)])
        plan = engine.plan(n)
        assert counter.total("fr_mul") == plan.gpu_muls[(F.bits, "dfp")]
        assert counter.total("fr_add") == plan.gpu_adds[F.bits]

    def test_latency_scales_roughly_linearly(self):
        engine = GzkpNtt(BLS12_381_R, V100)
        t20 = engine.estimate_seconds(1 << 20)
        t24 = engine.estimate_seconds(1 << 24)
        # N log N growth: 16x data -> 19.2x work; allow overheads slack.
        assert 14 < t24 / t20 < 25

    def test_plan_has_no_strided_traffic(self):
        trace = GzkpNtt(F, V100).plan(1 << 20)
        assert trace.coalescing_efficiency() == 1.0


class TestBaselineNtt:
    def test_functional(self):
        rng = random.Random(3)
        v = [rng.randrange(F.modulus) for _ in range(512)]
        assert BaselineGpuNtt(F, V100).compute(v) == ntt(F, v)

    def test_shuffle_traffic_present(self):
        trace = BaselineGpuNtt(BLS12_381_R, V100).plan(1 << 20)
        assert trace.coalescing_efficiency() < 1.0

    def test_no_shuffle_variant_is_strided(self):
        variant = BaselineNttVariant(skip_global_shuffle=True,
                                     name="GZKP-no-GM-shuffle")
        t = BaselineGpuNtt(BLS12_381_R, V100, variant).plan(1 << 20)
        base = BaselineGpuNtt(BLS12_381_R, V100).plan(1 << 20)
        # Dropping the shuffle removes bytes but worsens coalescing.
        assert t.global_bytes < base.global_bytes

    def test_lib_variant_faster(self):
        n = 1 << 22
        bg = BaselineGpuNtt(BLS12_381_R, V100)
        lib = BaselineGpuNtt(
            BLS12_381_R, V100, BaselineNttVariant(use_dfp_library=True,
                                                  name="BG w. lib")
        )
        speedup = bg.estimate_seconds(n) / lib.estimate_seconds(n)
        # Figure 8: the library alone gives ~1.6x at 2^22. The model
        # lands lower because the shuffle stage (which the library
        # cannot speed up) carries real weight — see the calibration
        # note in gpusim/cost.py.
        assert 1.15 < speedup < 2.0

    def test_degenerate_last_batch_jump(self):
        """Figure 8 / Table 5: scale 2^18 has a 2-iteration last batch
        with 2^16 blocks of 2 threads — latency jumps far beyond the
        N log N trend from 2^16."""
        engine = BaselineGpuNtt(BLS12_381_R, V100)
        t16 = engine.estimate_seconds(1 << 16)
        t18 = engine.estimate_seconds(1 << 18)
        assert t18 / t16 > 8  # work only grows 4.5x; overhead dominates

    def test_shuffle_fraction_substantial(self):
        """§2.2 quotes shuffles at 42%-81% of per-batch time; that prose
        range is inconsistent with Figure 8's compute-side 1.6x library
        gain (see the calibration note in gpusim/cost.py), so the model
        is calibrated to the quantitative data and lands at 25%-35% —
        still a substantial, stride-growing share."""
        engine = BaselineGpuNtt(BLS12_381_R, V100)
        for lg in (22, 24):
            rows = engine.batch_breakdown(1 << lg)
            full_batches = [r for r in rows if r["shift"] > 0
                            and r["width"] == 8]
            assert full_batches, "expected shuffled full batches"
            for row in full_batches:
                assert 0.15 < row["shuffle_fraction"] < 0.85

    def test_shuffle_fraction_grows_with_stride(self):
        engine = BaselineGpuNtt(BLS12_381_R, V100)
        rows = [r for r in engine.batch_breakdown(1 << 24) if r["shift"] > 0]
        assert rows[-1]["shuffle_fraction"] > rows[0]["shuffle_fraction"]

    def test_gzkp_beats_baseline_everywhere(self):
        gz = GzkpNtt(BLS12_381_R, V100)
        bg = BaselineGpuNtt(BLS12_381_R, V100)
        for log_n in range(14, 27, 2):
            n = 1 << log_n
            assert gz.estimate_seconds(n) < bg.estimate_seconds(n)

    def test_1080ti_slower_than_v100(self):
        gz_v = GzkpNtt(BLS12_381_R, V100)
        gz_p = GzkpNtt(BLS12_381_R, GTX1080TI)
        n = 1 << 22
        assert gz_p.estimate_seconds(n) > 2 * gz_v.estimate_seconds(n)


class TestCpuNtt:
    def test_functional(self):
        rng = random.Random(4)
        v = [rng.randrange(F.modulus) for _ in range(64)]
        assert CpuNtt(F, XEON_5117).compute(v) == ntt(F, v)
        assert CpuNtt(F, XEON_5117).compute_inverse(ntt(F, v)) == v

    def test_superlinear_at_small_scales(self):
        """Table 5: libsnark's 2^14 -> 2^16 latency only doubles (fixed
        dispatch overhead dominates), unlike the 4.57x work ratio."""
        engine = CpuNtt(MNT4753_R, XEON_5117)
        t14 = engine.estimate_seconds(1 << 14)
        t16 = engine.estimate_seconds(1 << 16)
        assert t16 / t14 < 3.0

    def test_gpu_advantage_is_orders_of_magnitude(self):
        """Table 5's headline: GZKP's 753-bit NTT is 218-697x faster
        than the CPU baseline."""
        cpu = CpuNtt(MNT4753_R, XEON_5117)
        gpu = GzkpNtt(MNT4753_R, V100)
        for log_n in (14, 20, 26):
            n = 1 << log_n
            speedup = cpu.estimate_seconds(n) / gpu.estimate_seconds(n)
            assert 100 < speedup < 1500
