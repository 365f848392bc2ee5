"""Amortized MSM preprocessing: contexts, the context cache, the CSR
abc front-end, and warm-start service behaviour.

The contract under test is GZKP §4.1's amortization claim: checkpoint
preprocessing runs once per (curve, circuit, query) and every later
proof reuses the table — so a warm prover performs *zero* preprocess
doublings per job, and its telemetry says so.
"""

import random

import pytest

from repro.curves import bn128_g1
from repro.curves.params import CURVES
from repro.errors import MsmError, ServiceError
from repro.ff import OpCounter
from repro.gpusim import V100
from repro.gpusim.device import XEON_5117
from repro.msm import (
    CpuMsm,
    GzkpMsm,
    MsmContext,
    MsmContextCache,
    StrausMsm,
    SubMsmPippenger,
    naive_msm,
)
from repro.msm.context import check_table, expected_table_rows
from repro.service.registry import CIRCUIT_REGISTRY
from repro.service.service import ProofJob, ProvingService
from repro.service.telemetry import Telemetry

L = 254


def _inputs(n=20, seed=11):
    rng = random.Random(seed)
    pts = [bn128_g1.random_point(rng) for _ in range(n)]
    scs = [rng.randrange(bn128_g1.order) for _ in range(n)]
    return scs, pts


def _engine(**kw):
    kw.setdefault("window", 6)
    kw.setdefault("interval", 2)
    return GzkpMsm(bn128_g1, L, V100, **kw)


def _preprocess_spans(span, out=None):
    out = [] if out is None else out
    if span["name"] == "preprocess":
        out.append(span)
    for child in span.get("children", []):
        _preprocess_spans(child, out)
    return out


class TestMsmContext:
    def test_build_and_reuse(self):
        scs, pts = _inputs()
        engine = _engine()
        ctx = engine.build_context(pts, label="q")
        expected = naive_msm(bn128_g1, scs, pts)
        assert engine.compute(scs, pts, context=ctx) == expected
        # reusable across calls with fresh scalars
        scs2, _ = _inputs(seed=99)
        assert engine.compute(scs2, pts, context=ctx) == \
            naive_msm(bn128_g1, scs2, pts)

    def test_context_skips_preprocess_counting(self):
        scs, pts = _inputs()
        engine = _engine()
        cold = OpCounter()
        engine.compute(scs, pts, counter=cold)
        assert cold.by_phase["preprocess"].get("pdbl", 0) > 0
        ctx = engine.build_context(pts)
        warm = OpCounter()
        engine.compute(scs, pts, counter=warm, context=ctx)
        assert "preprocess" not in warm.by_phase
        # the kernel phases are unaffected by amortization
        for phase in ("point-merging", "bucket-reduction"):
            assert warm.by_phase[phase] == cold.by_phase[phase]

    def test_build_context_counts_preprocess_phase(self):
        _, pts = _inputs()
        counter = OpCounter()
        _engine().build_context(pts, counter=counter)
        assert counter.by_phase["preprocess"].get("pdbl", 0) > 0

    def test_build_context_telemetry_span(self):
        _, pts = _inputs()
        telemetry = Telemetry()
        _engine().build_context(pts, telemetry=telemetry, label="a_query")
        spans = [s for s in telemetry.spans if s.name == "preprocess"]
        assert spans and spans[0].meta["label"] == "a_query"
        assert spans[0].total_ops().get("pdbl", 0) > 0

    def test_context_rejected_on_wrong_length(self):
        scs, pts = _inputs()
        engine = _engine()
        ctx = engine.build_context(pts[:-1])
        with pytest.raises(MsmError, match="bound to"):
            engine.compute(scs, pts, context=ctx)

    def test_context_rejected_on_config_mismatch(self):
        scs, pts = _inputs()
        ctx = _engine(window=6).build_context(pts)
        with pytest.raises(MsmError, match="preprocessed under"):
            _engine(window=7).compute(scs, pts, context=ctx)

    def test_group_counter_preserved(self):
        """Every engine restores a pre-installed group counter instead
        of resetting it to None (``msm.common.counting``) — also when
        the call raises — and counts on its own counter meanwhile."""
        scs, pts = _inputs(n=6)
        runs = {
            "gzkp": _engine().compute,
            "gzkp-literal": _engine().compute_literal,
            "gzkp-build-context": _engine().build_context,
            "pippenger": SubMsmPippenger(bn128_g1, L, V100).compute,
            "straus": StrausMsm(bn128_g1, L, V100, window=4).compute,
            "cpu": CpuMsm(bn128_g1, L, XEON_5117).compute,
        }
        outer = OpCounter()
        bn128_g1.counter = outer
        try:
            for name, run in runs.items():
                args = (pts,) if name == "gzkp-build-context" else (scs, pts)
                run(*args)
                assert bn128_g1.counter is outer, name
                seen = dict(outer.totals())
                inner = OpCounter()
                run(*args, counter=inner)
                assert bn128_g1.counter is outer, name
                assert inner.total("padd") > 0, name
                assert outer.totals() == seen, name
                if len(args) == 2:
                    with pytest.raises(MsmError):
                        run([-1] + scs[1:], pts, counter=OpCounter())
                    assert bn128_g1.counter is outer, name
        finally:
            bn128_g1.counter = None

    def test_raw_table_validated(self):
        scs, pts = _inputs()
        engine = _engine()
        cfg = engine.configure(len(pts))
        good = engine.preprocess(pts, cfg)
        assert engine.compute(scs, pts, table=good) == \
            naive_msm(bn128_g1, scs, pts)
        with pytest.raises(MsmError, match="row"):
            engine.compute(scs, pts, table=good[:-1])
        with pytest.raises(MsmError, match="point"):
            engine.compute(scs, pts,
                           table=[row[:-1] for row in good])

    def test_check_table_shape_helpers(self):
        _, pts = _inputs()
        engine = _engine()
        cfg = engine.configure(len(pts))
        table = engine.preprocess(pts, cfg)
        assert len(table) == expected_table_rows(cfg)
        check_table(table, cfg, len(pts))

    def test_configure_memoized(self):
        engine = _engine(window=None, interval=None)
        cfg = engine.configure(1 << 10)
        assert engine.configure(1 << 10) is cfg


class TestMsmContextCache:
    def _ctx(self, n=12, seed=1, label=""):
        _, pts = _inputs(n=n, seed=seed)
        return _engine().build_context(pts, label=label)

    def test_lru_eviction_by_entries(self):
        cache = MsmContextCache(max_entries=2)
        a, b, c = (self._ctx(seed=s, label=l)
                   for s, l in ((1, "a"), (2, "b"), (3, "c")))
        cache.put("a", a)
        cache.put("b", b)
        assert cache.get("a") is a      # refresh "a": now "b" is LRU
        cache.put("c", c)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_byte_budget_eviction(self):
        a, b = self._ctx(seed=1), self._ctx(seed=2)
        cache = MsmContextCache(max_entries=None,
                                max_bytes=a.preprocess_bytes
                                + b.preprocess_bytes)
        cache.put("a", a)
        cache.put("b", b)
        assert len(cache) == 2
        cache.put("c", self._ctx(seed=3))
        assert len(cache) == 2 and "a" not in cache

    def test_oversized_context_rejected(self):
        a = self._ctx()
        cache = MsmContextCache(max_bytes=max(a.preprocess_bytes - 1, 0))
        assert cache.put("a", a) is False
        assert "a" not in cache and cache.stats.rejected == 1

    def test_stats_and_clear(self):
        cache = MsmContextCache()
        a = self._ctx()
        cache.put("a", a)
        assert cache.get("a") is a and cache.get("b") is None
        assert cache.stats.to_dict()["hits"] == 1
        assert cache.stats.to_dict()["misses"] == 1
        cache.clear()
        assert len(cache) == 0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(MsmError):
            MsmContextCache(max_entries=0)
        with pytest.raises(MsmError):
            MsmContextCache(max_bytes=-1)


class TestCsrAbcEvaluations:
    @pytest.mark.parametrize("curve_name", ["ALT-BN128", "BLS12-381"])
    @pytest.mark.parametrize("circuit", sorted(CIRCUIT_REGISTRY))
    def test_matches_scalar_loop(self, curve_name, circuit):
        fr = CURVES[curve_name].fr
        spec = CIRCUIT_REGISTRY[circuit]
        rng = random.Random(f"{curve_name}:{circuit}")
        witness = tuple(rng.randrange(14) for _ in range(spec.n_witness))
        r1cs = spec.build(fr)
        assignment = spec.assign(fr, witness)
        ref = r1cs.abc_evaluations(assignment)
        for backend in ("python", "numpy"):
            got = r1cs.abc_evaluations(assignment, backend=backend)
            assert tuple(map(list, got)) == tuple(map(list, ref))

    def test_csr_cache_invalidated_on_mutation(self):
        fr = CURVES["ALT-BN128"].fr
        spec = CIRCUIT_REGISTRY["cubic"]
        r1cs = spec.build(fr)
        assignment = spec.assign(fr, (3,))
        r1cs.abc_evaluations(assignment, backend="numpy")  # builds CSR
        r1cs.add_constraint({0: 1}, {0: 1}, {0: 1})
        ref = r1cs.abc_evaluations(assignment)
        got = r1cs.abc_evaluations(assignment, backend="numpy")
        assert tuple(map(list, got)) == tuple(map(list, ref))


class TestWarmService:
    def test_warm_job_runs_zero_preprocess_doublings(self):
        """The acceptance contract: on a warm worker, job telemetry has
        a context-cache hit, MSM context-cache hits, and no preprocess
        span (hence zero preprocess doublings) — the per-job hot path
        is fully amortized."""
        with ProvingService(workers=0, parallel_msm=False,
                            warm=[("ALT-BN128", "cubic")]) as svc:
            job1, job2 = svc.prove_batch([
                ProofJob("ALT-BN128", "cubic", (3,)),
                ProofJob("ALT-BN128", "cubic", (7,)),
            ])
            for res in (job1, job2):
                assert res.ok and res.verified
                events = {(e["kind"], e["detail"])
                          for e in res.telemetry["events"]}
                assert ("prover-context-cache", "hit") in events
                assert ("msm-context-cache", "hit") in events
                assert ("msm-context-cache", "miss") not in events
                spans = _preprocess_spans(res.job_span)
                assert spans == []
                for span in _all_spans(res.job_span):
                    assert span["ops"].get("pdbl", 0) == 0 or \
                        span["name"] != "preprocess"

    def test_cold_then_warm_second_job(self):
        with ProvingService(workers=0, parallel_msm=False) as svc:
            cold, warm = svc.prove_batch([
                ProofJob("ALT-BN128", "square", (4,)),
                ProofJob("ALT-BN128", "square", (5,)),
            ])
            cold_events = {(e["kind"], e["detail"])
                           for e in cold.telemetry["events"]}
            warm_events = {(e["kind"], e["detail"])
                           for e in warm.telemetry["events"]}
            assert ("prover-context-cache", "miss") in cold_events
            assert ("prover-context-cache", "hit") in warm_events
            cold_pre = _preprocess_spans(cold.job_span)
            assert cold_pre and any(s["ops"].get("pdbl", 0) > 0
                                    for s in cold_pre)
            assert _preprocess_spans(warm.job_span) == []

    def test_inline_contexts_persist_across_batches(self):
        with ProvingService(workers=0, parallel_msm=False) as svc:
            svc.prove_batch([ProofJob("ALT-BN128", "cubic", (2,))])
            res = svc.prove_batch([ProofJob("ALT-BN128", "cubic", (9,))])[0]
            events = {(e["kind"], e["detail"])
                      for e in res.telemetry["events"]}
            assert ("prover-context-cache", "hit") in events

    def test_warm_pool_worker(self):
        with ProvingService(workers=1, parallel_msm=False, timeout=300,
                            warm=[("ALT-BN128", "square", "python")]) as svc:
            res = svc.prove_batch([
                ProofJob("ALT-BN128", "square", (6,), backend="python")
            ])[0]
            assert res.ok and res.verified
            events = {(e["kind"], e["detail"])
                      for e in res.telemetry["events"]}
            assert ("prover-context-cache", "hit") in events
            assert _preprocess_spans(res.job_span) == []

    def test_invalid_warm_entries_rejected(self):
        with pytest.raises(ServiceError, match="unknown curve"):
            ProvingService(workers=0, warm=[("nope", "cubic")])
        with pytest.raises(ServiceError, match="invalid"):
            ProvingService(workers=0, warm=[("ALT-BN128", "nope")])
        with pytest.raises(ServiceError, match="warm entries"):
            ProvingService(workers=0, warm=[("ALT-BN128",)])


def _all_spans(span):
    yield span
    for child in span.get("children", []):
        yield from _all_spans(child)
