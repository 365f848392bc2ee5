"""Cross-backend equality: PythonBackend and KernelBackend must be
bit-identical on every operation, every modulus, every size — backends
change how the math runs, never what it computes or counts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import (
    KernelBackend,
    PythonBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.backend.native import NATIVE_ENV_VAR, native_available
from repro.curves import bn128_g1
from repro.ff.opcount import _ACTIVE, OpCounter, counting
from repro.ff.params import (
    ALT_BN128_R,
    BLS12_381_Q,
    BLS12_381_R,
    MNT4753_R,
)
from repro.msm import GzkpMsm, SubMsmPippenger, naive_msm
from repro.ntt.gpu_gzkp import GzkpNtt
from repro.ntt.reference import intt, ntt
from repro.gpusim import V100

PY = PythonBackend()
NP = KernelBackend()

#: the three bit-widths of the paper's curves (254/255-, 381-, 753-bit)
FIELDS = [ALT_BN128_R, BLS12_381_R, BLS12_381_Q, MNT4753_R]
#: NTT needs 2-adic fields: the three curves' scalar fields
NTT_FIELDS = [ALT_BN128_R, BLS12_381_R, MNT4753_R]


def rand_vec(field, n, seed):
    rng = random.Random(seed)
    return [rng.randrange(field.modulus) for _ in range(n)]


class TestElementwiseOps:
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    @pytest.mark.parametrize("n", [0, 1, 3, 64, 257])
    def test_all_ops_match(self, field, n):
        xs = rand_vec(field, n, seed=n * 7 + field.bits)
        ys = rand_vec(field, n, seed=n * 13 + field.bits)
        k = rand_vec(field, 1, seed=99)[0] if n else 3
        assert NP.vadd(field, xs, ys) == PY.vadd(field, xs, ys)
        assert NP.vsub(field, xs, ys) == PY.vsub(field, xs, ys)
        assert NP.vmul(field, xs, ys) == PY.vmul(field, xs, ys)
        assert NP.vneg(field, xs) == PY.vneg(field, xs)
        assert NP.vscale(field, xs, k) == PY.vscale(field, xs, k)
        assert NP.vmul_powers(field, xs, k) == PY.vmul_powers(field, xs, k)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_batch_inv_matches(self, field):
        xs = [v or 1 for v in rand_vec(field, 33, seed=5)]
        assert NP.batch_inv(field, xs) == PY.batch_inv(field, xs)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_vmul_property(self, data):
        field = data.draw(st.sampled_from(FIELDS))
        xs = data.draw(st.lists(
            st.integers(min_value=0, max_value=field.modulus - 1),
            min_size=1, max_size=40))
        ys = [pow(x, 3, field.modulus) for x in xs]
        expected = [a * b % field.modulus for a, b in zip(xs, ys)]
        assert NP.vmul(field, xs, ys) == expected
        assert PY.vmul(field, xs, ys) == expected


class TestNttEquivalence:
    @pytest.mark.parametrize("field", NTT_FIELDS, ids=lambda f: f.name)
    @pytest.mark.parametrize("log_n", [0, 1, 2, 5, 9])
    def test_forward_matches(self, field, log_n):
        vals = rand_vec(field, 1 << log_n, seed=log_n)
        assert NP.ntt(field, vals) == PY.ntt(field, vals)

    @pytest.mark.parametrize("field", NTT_FIELDS, ids=lambda f: f.name)
    @pytest.mark.parametrize("log_n", [1, 4, 8])
    def test_roundtrip_both_backends(self, field, log_n):
        vals = rand_vec(field, 1 << log_n, seed=31 + log_n)
        for backend in (PY, NP):
            assert backend.intt(field, backend.ntt(field, vals)) == vals
        # ...and the mixed round trips agree too.
        assert NP.intt(field, PY.ntt(field, vals)) == vals
        assert PY.intt(field, NP.ntt(field, vals)) == vals

    @pytest.mark.parametrize("field", NTT_FIELDS, ids=lambda f: f.name)
    def test_counts_identical(self, field):
        vals = rand_vec(field, 64, seed=3)
        c_py, c_np = OpCounter(), OpCounter()
        with counting(c_py):
            PY.ntt(field, vals)
        with counting(c_np):
            NP.ntt(field, vals)
        assert c_py.totals() == c_np.totals()
        c_py, c_np = OpCounter(), OpCounter()
        with counting(c_py):
            PY.intt(field, vals)
        with counting(c_np):
            NP.intt(field, vals)
        assert c_py.totals() == c_np.totals()

    def test_reference_api_routes_backends(self):
        field = BLS12_381_R
        vals = rand_vec(field, 128, seed=8)
        assert ntt(field, vals, backend="numpy") == ntt(field, vals,
                                                        backend="python")
        assert intt(field, vals, backend="numpy") == intt(field, vals,
                                                          backend="python")

    @pytest.mark.parametrize("field", NTT_FIELDS, ids=lambda f: f.name)
    def test_gzkp_engine_backend_parity(self, field):
        """The batched executor path (GZKP schedule) is bit-identical
        and count-identical across backends."""
        vals = rand_vec(field, 256, seed=17)
        eng_py = GzkpNtt(field, V100, backend="python")
        eng_np = GzkpNtt(field, V100, backend="numpy")
        c_py, c_np = OpCounter(), OpCounter()
        with counting(c_np):
            got = eng_np.compute(vals)
        with counting(c_py):
            assert got == eng_py.compute(vals)
        assert c_py.totals() == c_np.totals()
        assert (eng_np.compute_inverse(vals)
                == eng_py.compute_inverse(vals))


class TestMsmEquivalence:
    def _inputs(self, n=40, seed=2):
        rng = random.Random(seed)
        pts = [bn128_g1.random_point(rng) for _ in range(n)]
        scs = [rng.randrange(bn128_g1.order) for _ in range(n)]
        return scs, pts

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_pippenger_matches_oracle(self, backend):
        scs, pts = self._inputs()
        engine = SubMsmPippenger(bn128_g1, 254, V100, backend=backend)
        assert engine.compute(scs, pts) == naive_msm(bn128_g1, scs, pts)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_gzkp_matches_oracle(self, backend):
        scs, pts = self._inputs(seed=9)
        engine = GzkpMsm(bn128_g1, 254, V100, window=8, interval=4,
                         backend=backend)
        assert engine.compute(scs, pts) == naive_msm(bn128_g1, scs, pts)

    def test_counts_identical_across_backends(self):
        scs, pts = self._inputs(n=24, seed=4)
        totals = []
        for backend in ("python", "numpy"):
            counter = OpCounter()
            with counting(counter):
                GzkpMsm(bn128_g1, 254, V100, window=8, interval=4,
                        backend=backend).compute(scs, pts)
            totals.append(counter.totals())
        assert totals[0] == totals[1]


class TestRegistry:
    def test_available_and_default(self, monkeypatch):
        names = available_backends()
        assert "python" in names and "numpy" in names
        assert get_backend("python") is get_backend("python")
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        if native_available():
            assert get_backend(None).name == "numpy"
            assert isinstance(get_backend("numpy"), KernelBackend)
        # without the kernels numpy *is* the python backend
        monkeypatch.setenv(NATIVE_ENV_VAR, "0")
        assert get_backend("numpy") is get_backend("python")
        assert get_backend(None) is get_backend("python")

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert get_backend(None) is get_backend("numpy")
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert get_backend(None).name == "python"
        monkeypatch.delenv("REPRO_BACKEND")
        assert get_backend(None) is get_backend("numpy")

    def test_instance_passthrough(self):
        backend = PythonBackend()
        assert get_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown compute backend"):
            get_backend("cuda")

    def test_register_custom(self):
        class Custom(PythonBackend):
            name = "custom-test"

        register_backend("custom-test", Custom)
        try:
            assert get_backend("custom-test").name == "custom-test"
        finally:
            from repro.backend import _FACTORIES, _INSTANCES

            _FACTORIES.pop("custom-test", None)
            _INSTANCES.pop("custom-test", None)


class TestDigitsMatrix:
    """The vectorized scalar front-end must reproduce scalar_digits
    exactly: same digits, same shape, on every modulus and window."""

    MODULI = [ALT_BN128_R, BLS12_381_R, MNT4753_R]

    def _boundary_scalars(self, field):
        r = field.modulus
        return [0, 1, 2, r - 1, r - 2, r >> 1, (1 << 64) - 1, 1 << 200]

    @pytest.mark.parametrize("field", MODULI, ids=lambda f: f.name)
    @pytest.mark.parametrize("window", [1, 6, 13, 16, 25, 30])
    def test_matches_scalar_loop(self, field, window):
        rng = random.Random(field.bits * window)
        scalars = (self._boundary_scalars(field)
                   + [rng.randrange(field.modulus) for _ in range(40)])
        ref = PY.digits_matrix(scalars, field.bits, window)
        got = NP.digits_matrix(scalars, field.bits, window)
        assert [list(map(int, row)) for row in got] == ref

    @pytest.mark.parametrize("field", MODULI, ids=lambda f: f.name)
    def test_sparse_zero_one_vectors(self, field):
        """The real-world sparse shape (§4.2): mostly 0s and 1s."""
        rng = random.Random(field.bits)
        scalars = [rng.choice([0, 0, 0, 1, 1, rng.randrange(field.modulus)])
                   for _ in range(128)]
        for window in (6, 16):
            ref = PY.digits_matrix(scalars, field.bits, window)
            got = NP.digits_matrix(scalars, field.bits, window)
            assert [list(map(int, row)) for row in got] == ref

    def test_wide_window_falls_back(self):
        # window > 30 exceeds the two-word lane extraction; the numpy
        # backend must still answer correctly via the scalar route.
        field = ALT_BN128_R
        scalars = [0, 1, field.modulus - 1]
        ref = PY.digits_matrix(scalars, field.bits, 40)
        got = NP.digits_matrix(scalars, field.bits, 40)
        assert [list(map(int, row)) for row in got] == ref

    def test_empty_vector(self):
        got = NP.digits_matrix([], 254, 8)
        assert len(got) == 0

    def test_routes_windows_helpers(self):
        """bucket_histogram / DigitStats produce identical results
        through either backend's digit extraction."""
        from repro.msm import DigitStats, bucket_histogram

        rng = random.Random(77)
        scalars = [rng.randrange(ALT_BN128_R.modulus) for _ in range(60)]
        scalars[:6] = [0, 0, 1, 1, 1, 0]
        h_py = bucket_histogram(scalars, 254, 7, backend="python")
        h_np = bucket_histogram(scalars, 254, 7, backend="numpy")
        assert h_py == h_np
        s_py = DigitStats.of(scalars, 254, 7, backend="python")
        s_np = DigitStats.of(scalars, 254, 7, backend="numpy")
        assert s_py == s_np


class TestBucketReduce:
    """Cross-backend contract of ``bucket_reduce``: group-equal to the
    ordered running-suffix fold with the identical padd total —
    including the data-dependent skips for empty buckets."""

    def _buckets(self, n, infinity_at, seed=3):
        rng = random.Random(seed)
        o = bn128_g1.ops
        inf = (o.one, o.one, o.zero)
        buckets = []
        for j in range(n):
            if j in infinity_at:
                buckets.append(inf)
            else:
                buckets.append(
                    bn128_g1.to_jacobian(bn128_g1.random_point(rng)))
        return buckets

    @pytest.mark.parametrize("infinity_at", [
        set(), {0, 1, 2}, {30, 31}, {7, 8, 9, 20}, set(range(0, 32, 2)),
    ], ids=["dense", "leading-inf", "trailing-inf", "mid-runs", "alternating"])
    def test_matches_ordered_fold(self, infinity_at):
        n = 32
        buckets = self._buckets(n, infinity_at)
        ref_counter, np_counter = OpCounter(), OpCounter()
        with counting(ref_counter):
            ref = PY.bucket_reduce(bn128_g1, list(buckets))
        with counting(np_counter):
            got = NP.bucket_reduce(bn128_g1, list(buckets))
        assert bn128_g1.from_jacobian(got) == bn128_g1.from_jacobian(ref)
        assert np_counter.totals() == ref_counter.totals()

    def test_all_infinity(self):
        buckets = self._buckets(32, set(range(32)))
        got = NP.bucket_reduce(bn128_g1, buckets)
        assert bn128_g1.from_jacobian(got) is None or \
            bn128_g1.jis_infinity(got)

    def test_counter_not_installed_stays_uncounted(self):
        """bucket_reduce must not clobber a counter another caller
        installs mid-flight: with no counter installed it leaves the
        op-count scope alone."""
        buckets = self._buckets(32, set())
        assert _ACTIVE.get() is None
        NP.bucket_reduce(bn128_g1, buckets)
        assert _ACTIVE.get() is None
