"""Functional correctness of every MSM implementation against the naive
oracle, across curves, scales and scalar distributions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import bn128_g1, bn128_g2, bls12_381_g1, mnt4753_g1
from repro.errors import MsmError
from repro.ff import OpCounter
from repro.gpusim import V100
from repro.gpusim.device import XEON_5117
from repro.msm import (
    CpuMsm,
    GzkpMsm,
    StrausMsm,
    SubMsmPippenger,
    naive_msm,
    num_windows,
    optimal_cpu_window,
    scalar_digits,
)

G = bn128_g1
L = 254


def fixture_points(n, seed=0):
    rng = random.Random(seed)
    pts = [G.random_point(rng) for _ in range(n)]
    scs = [rng.randrange(G.order) for _ in range(n)]
    return scs, pts


class TestDigits:
    def test_digit_reconstruction(self):
        s = 0xDEADBEEF12345678
        k = 7
        digits = scalar_digits(s, 64, k)
        assert sum(d << (t * k) for t, d in enumerate(digits)) == s

    def test_num_windows(self):
        assert num_windows(254, 10) == 26
        assert num_windows(255, 16) == 16
        assert num_windows(750, 4) == 188

    def test_negative_scalar_rejected(self):
        with pytest.raises(MsmError):
            scalar_digits(-1, 64, 4)

    def test_bad_window_rejected(self):
        with pytest.raises(MsmError):
            num_windows(254, 0)

    @settings(max_examples=50, deadline=None)
    @given(s=st.integers(min_value=0, max_value=(1 << 254) - 1),
           k=st.integers(min_value=1, max_value=24))
    def test_digit_reconstruction_property(self, s, k):
        digits = scalar_digits(s, 254, k)
        assert sum(d << (t * k) for t, d in enumerate(digits)) == s


ALGORITHMS = {
    "pippenger": lambda: SubMsmPippenger(G, L, V100),
    "straus": lambda: StrausMsm(G, L, V100, window=4),
    "gzkp": lambda: GzkpMsm(G, L, V100, window=6, interval=4),
    "gzkp_full_prep": lambda: GzkpMsm(G, L, V100, window=8, interval=1),
    "cpu": lambda: CpuMsm(G, L, XEON_5117),
}


@pytest.fixture(params=list(ALGORITHMS), ids=list(ALGORITHMS))
def algorithm(request):
    return ALGORITHMS[request.param]()


class TestMsmCorrectness:
    def test_random_inputs(self, algorithm):
        scs, pts = fixture_points(24, seed=1)
        assert algorithm.compute(scs, pts) == naive_msm(G, scs, pts)

    def test_empty(self, algorithm):
        assert algorithm.compute([], []) is None

    def test_single_element(self, algorithm):
        scs, pts = fixture_points(1, seed=2)
        assert algorithm.compute(scs, pts) == G.scalar_mul(scs[0], pts[0])

    def test_all_zero_scalars(self, algorithm):
        _, pts = fixture_points(8, seed=3)
        assert algorithm.compute([0] * 8, pts) is None

    def test_sparse_scalars(self, algorithm):
        """The paper's real-world distribution: many 0s and 1s (§4.2)."""
        rng = random.Random(4)
        _, pts = fixture_points(20, seed=4)
        scs = [0] * 8 + [1] * 8 + [rng.randrange(G.order) for _ in range(4)]
        rng.shuffle(scs)
        assert algorithm.compute(scs, pts) == naive_msm(G, scs, pts)

    def test_max_scalar(self, algorithm):
        _, pts = fixture_points(3, seed=5)
        scs = [G.order - 1] * 3
        assert algorithm.compute(scs, pts) == naive_msm(G, scs, pts)

    def test_points_with_infinity(self, algorithm):
        scs, pts = fixture_points(6, seed=6)
        pts[2] = None
        pts[4] = None
        assert algorithm.compute(scs, pts) == naive_msm(G, scs, pts)

    def test_length_mismatch_rejected(self, algorithm):
        scs, pts = fixture_points(4, seed=7)
        with pytest.raises(MsmError):
            algorithm.compute(scs[:3], pts)

    def test_overlong_scalar_rejected(self, algorithm):
        """The digit decomposition reads ``scalar_bits`` bits (rounded
        up to whole windows); anything above was silently dropped and
        the MSM returned the wrong point. Every engine refuses it."""
        _, pts = fixture_points(2, seed=8)
        with pytest.raises(MsmError, match="reduce mod r first"):
            algorithm.compute([(1 << 256) + 5, 1], pts)
        with pytest.raises(MsmError, match="reduce mod r first"):
            algorithm.compute([1 << L, 1], pts)
        widest = [(1 << L) - 1, 1]
        assert algorithm.compute(widest, pts) == naive_msm(G, widest, pts)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_overlong_scalar_rejected_on_both_backends(self, backend):
        _, pts = fixture_points(2, seed=8)
        engine = GzkpMsm(G, L, V100, window=4, backend=backend)
        with pytest.raises(MsmError, match="reduce mod r first"):
            engine.compute([(1 << 256) + 5, 1], pts)
        with pytest.raises(MsmError, match="reduce mod r first"):
            engine.compute_literal([(1 << 256) + 5, 1], pts)


class TestMsmOtherGroups:
    def test_bls12_381_g1(self):
        rng = random.Random(8)
        pts = [bls12_381_g1.random_point(rng) for _ in range(12)]
        scs = [rng.randrange(bls12_381_g1.order) for _ in range(12)]
        gz = GzkpMsm(bls12_381_g1, 255, V100, window=6, interval=2)
        assert gz.compute(scs, pts) == naive_msm(bls12_381_g1, scs, pts)

    @pytest.mark.slow
    def test_mnt4753_g1(self):
        rng = random.Random(9)
        pts = [mnt4753_g1.random_point(rng) for _ in range(6)]
        scs = [rng.randrange(mnt4753_g1.order) for _ in range(6)]
        gz = GzkpMsm(mnt4753_g1, 750, V100, window=8, interval=8)
        assert gz.compute(scs, pts) == naive_msm(mnt4753_g1, scs, pts)

    def test_g2_msm(self):
        """MSM over G2 (Fq2 coordinates) — the proving key's Q vector."""
        rng = random.Random(10)
        pts = [bn128_g2.random_point(rng) for _ in range(8)]
        scs = [rng.randrange(bn128_g2.order) for _ in range(8)]
        gz = GzkpMsm(bn128_g2, L, V100, window=5, interval=3,
                     fq_mul_factor=3.0)
        assert gz.compute(scs, pts) == naive_msm(bn128_g2, scs, pts)


class TestGzkpInternals:
    def test_literal_algorithm1_matches_residual(self):
        """Algorithm 1 as printed and the residual-sub-bucket realisation
        compute the same function for several (k, M)."""
        scs, pts = fixture_points(16, seed=11)
        for k, m in [(4, 1), (5, 2), (6, 3), (8, 5)]:
            gz = GzkpMsm(G, L, V100, window=k, interval=m)
            assert gz.compute(scs, pts) == gz.compute_literal(scs, pts)

    def test_preprocess_table_weights(self):
        """Checkpoint row m holds 2^(m*M*k) * P."""
        gz = GzkpMsm(G, L, V100, window=6, interval=4)
        cfg = gz.configure(4)
        _, pts = fixture_points(4, seed=12)
        table = gz.preprocess(pts, cfg)
        step = cfg.interval * cfg.window
        for m_idx in range(1, len(table)):
            weight = 1 << (m_idx * step)
            for orig, prep in zip(pts, table[m_idx]):
                assert prep == G.scalar_mul(weight, orig)

    def test_interval_grows_with_scale(self):
        """Algorithm 1's adaptivity: M rises once the full table would
        blow the preprocessing budget (Figure 9's plateau driver)."""
        gz = GzkpMsm(bls12_381_g1, 255, V100)
        small = gz.configure(1 << 16)
        large = gz.configure(1 << 26)
        assert small.interval == 1
        assert large.interval > 1
        budget = 0.6 * V100.global_mem_bytes
        assert large.preprocess_bytes <= budget * 1.05

    def test_reused_table(self):
        """The table is computed at setup; compute() accepts it
        prebuilt (how the prover uses it across proofs)."""
        scs, pts = fixture_points(10, seed=13)
        gz = GzkpMsm(G, L, V100, window=5, interval=2)
        table = gz.preprocess(pts, gz.configure(len(pts)))
        assert gz.compute(scs, pts, table=table) == naive_msm(G, scs, pts)

    def test_phase_attribution(self):
        scs, pts = fixture_points(8, seed=14)
        counter = OpCounter()
        GzkpMsm(G, L, V100, window=5, interval=2).compute(
            scs, pts, counter=counter
        )
        assert counter.by_phase["point-merging"]["padd"] > 0
        assert counter.by_phase["bucket-reduction"]["padd"] > 0

    def test_bad_override_is_a_clean_error(self):
        """A (k, M) override no engine can run is refused where it
        enters. M = 0 used to surface as ZeroDivisionError from the
        table sizing and k = 300 as OverflowError from the digit
        split."""
        scs, pts = fixture_points(8, seed=15)
        with pytest.raises(MsmError, match="interval"):
            GzkpMsm(G, L, V100, window=6, interval=0).configure(8)
        with pytest.raises(MsmError, match="window"):
            GzkpMsm(G, L, V100, window=300).compute(scs, pts)
        for k in (0, 25):
            with pytest.raises(MsmError, match="window"):
                GzkpMsm(G, L, V100, window=k)
        # both ends of the accepted range are configured and planned as
        # given (k = 24 is 2^24 buckets: priced, not folded on python
        # ints), and the small end also runs
        for k in (1, 24):
            engine = GzkpMsm(G, L, V100, window=k, interval=1)
            cfg = engine.configure(8)
            assert (cfg.window, cfg.interval) == (k, 1)
            assert cfg.n_windows == -(-L // k)
            assert V100.time_of(engine.plan(8)) > 0
        assert GzkpMsm(G, L, V100, window=1, interval=1).compute(
            scs[:2], pts[:2]) == naive_msm(G, scs[:2], pts[:2])


class TestCpuWindow:
    def test_optimum_grows_with_n(self):
        assert optimal_cpu_window(1 << 14, 254) < optimal_cpu_window(1 << 26, 254)

    def test_window_positive(self):
        assert optimal_cpu_window(1, 254) >= 2


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=999))
def test_gzkp_equals_naive_property(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 12)
    pts = [G.random_point(rng) for _ in range(n)]
    scs = [rng.randrange(G.order) for _ in range(n)]
    k = rng.randrange(3, 9)
    m = rng.randrange(1, 5)
    gz = GzkpMsm(G, L, V100, window=k, interval=m)
    assert gz.compute(scs, pts) == naive_msm(G, scs, pts)
