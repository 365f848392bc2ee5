"""Tests for the async sharded pipeline: wire frames (no pickle on the
worker boundary), bounded-queue backpressure, shard affinity with warm
caches, verify modes, per-shard telemetry, and the seeded load
generator."""

import pickle
import time

import pytest

from repro.errors import ServiceOverloadedError, ValidationError
from repro.service import wire
from repro.service.loadgen import (LoadGenerator, burst_arrivals, percentile,
                                   poisson_arrivals, synthesize_jobs)
from repro.service.registry import CIRCUIT_REGISTRY, CircuitSpec, \
    register_circuit
from repro.service.service import ProofJob, ProvingService
from repro.service.shard import ShardMap, ShardStats
from repro.service.telemetry import splice_phase

BN = "ALT-BN128"


# -- wire frames: the zero-copy worker boundary -------------------------------------


class TestJobFrames:
    def test_job_frame_round_trip(self):
        request = wire.encode_request(BN, "square", (7,))
        data = wire.encode_job_frame(42, 3, "job-42", request)
        frame = wire.decode_job_frame(data)
        assert frame.ticket == 42
        assert frame.shard == 3
        assert frame.job_id == "job-42"
        # the embedded request is the caller's buffer, byte for byte
        assert frame.request == request
        req = wire.decode_request(frame.request)
        assert (req.curve, req.circuit, req.witness) == (BN, "square", (7,))

    def test_pickled_payload_rejected(self):
        # the acceptance criterion: a pickle can never cross the worker
        # boundary as a job
        payload = pickle.dumps({"curve": BN, "circuit": "square",
                                "witness": (7,)})
        with pytest.raises(ValidationError, match="magic"):
            wire.decode_job_frame(payload)
        with pytest.raises(ValidationError, match="pickled or foreign"):
            wire.frame_kind(payload)

    def test_truncated_job_frame_rejected(self):
        request = wire.encode_request(BN, "square", (7,))
        data = wire.encode_job_frame(1, 0, "j", request)
        with pytest.raises(ValidationError):
            wire.decode_job_frame(data[:-3])
        with pytest.raises(ValidationError, match="trailing"):
            wire.decode_job_frame(data + b"\x00")

    def test_result_frame_round_trip(self):
        result = {
            "ticket": 7, "ok": True, "verified": False, "worker": 2,
            "job_id": "job-7", "curve": BN, "circuit": "square",
            "backend": "python", "error": None, "error_kind": None,
            "public_inputs": (9, 1 << 200), "proof": b"\x01" * 33,
            "telemetry": {"spans": [], "events": [{"kind": "x",
                                                   "detail": "y"}]},
        }
        out = wire.decode_result_frame(wire.encode_result_frame(result))
        for key, value in result.items():
            assert out[key] == value, key

    def test_result_frame_error_round_trip(self):
        result = {"ticket": 1, "ok": False, "job_id": "j", "curve": BN,
                  "circuit": "nope", "error": "unknown circuit",
                  "error_kind": "validation"}
        out = wire.decode_result_frame(wire.encode_result_frame(result))
        assert out["ok"] is False
        assert out["error"] == "unknown circuit"
        assert out["error_kind"] == "validation"
        assert out["proof"] is None

    def test_control_frame_round_trip(self):
        data = wire.encode_control_frame(wire.OP_SHUTDOWN)
        assert wire.decode_control_frame(data) == wire.OP_SHUTDOWN
        assert wire.frame_kind(data) == wire.CONTROL_MAGIC

    def test_frame_reader_round_trip(self, tmp_path):
        import os

        r, w = os.pipe()
        frames = [wire.encode_control_frame(0),
                  wire.encode_job_frame(1, 0, "a", b"req")]
        for frame in frames:
            wire.write_frame(w, frame)
        os.close(w)
        reader = wire.FrameReader(r)
        got = [reader.next_frame(), reader.next_frame(),
               reader.next_frame()]
        os.close(r)
        assert got[0] == frames[0]
        assert got[1] == frames[1]
        assert got[2] is None   # EOF


# -- shard dispatch -----------------------------------------------------------------


class TestShardMap:
    def test_sticky_and_spread(self):
        smap = ShardMap(2)
        keys = [(BN, f"c{i}") for i in range(6)]
        shards = [smap.assign(k) for k in keys]
        # least-loaded placement alternates fresh keys across shards
        assert shards.count(0) == 3 and shards.count(1) == 3
        # sticky: re-assigning never moves a key
        assert [smap.assign(k) for k in keys] == shards
        assert sorted(len(smap.keys_for(s)) for s in (0, 1)) == [3, 3]

    def test_single_shard(self):
        smap = ShardMap(1)
        assert smap.assign((BN, "a")) == 0
        assert smap.assign((BN, "b")) == 0

    def test_stats_rollup(self):
        stats = ShardStats(0)
        stats.note_depth(3)
        stats.note_depth(1)
        stats.note_rejection()
        stats.note_result(True, 2.0, {"MSM": 1.5},
                          [{"kind": "prover-context-cache",
                            "detail": "miss"}])
        stats.note_result(False, 1.0, {"MSM": 0.5},
                          [{"kind": "prover-context-cache",
                            "detail": "hit"}])
        out = stats.to_dict()
        assert out["queue_depth_hwm"] == 3
        assert out["rejections"] == 1
        assert out["jobs"] == 2 and out["errors"] == 1
        assert out["context_cache"] == {"hits": 1, "misses": 1}
        assert out["phase_seconds"]["MSM"] == 2.0
        assert 0 < stats.retry_after(2) <= 2 * 2.0

    def test_retry_after_before_first_job(self):
        assert ShardStats(0).retry_after(3) == 3.0


def test_splice_phase_preserves_tiling():
    span = {"name": "job", "seconds": 1.0, "ops": {}, "meta": {},
            "children": [{"name": "MSM", "seconds": 0.9, "ops": {},
                          "meta": {}, "children": []}]}
    child = splice_phase(span, "verify", 0.5, stage="pool")
    assert child in span["children"]
    total = sum(c["seconds"] for c in span["children"])
    assert span["seconds"] == pytest.approx(1.5)
    assert 0.5 * span["seconds"] <= total <= 1.05 * span["seconds"]


# -- the pipeline under load --------------------------------------------------------


def _register_napper(name: str, naps: float) -> None:
    if name in CIRCUIT_REGISTRY:
        return
    square = CIRCUIT_REGISTRY["square"]

    def assign(field, witness):
        time.sleep(naps)
        return square.assign(field, witness)

    register_circuit(CircuitSpec(name, 1, square.build, assign,
                                 f"square with a {naps}s nap"))


class TestBackpressure:
    def test_bounded_queue_rejects_with_retry_after(self):
        _register_napper("napper", 0.5)
        with ProvingService(workers=1, parallel_msm=False,
                            queue_depth=1, verify="off") as svc:
            futures, overloads = [], []
            for i in range(6):
                try:
                    futures.append(svc.submit(
                        ProofJob(BN, "napper", (3,), "python"),
                        wait=False))
                except ServiceOverloadedError as exc:
                    overloads.append(exc)
            assert overloads, "a 1-deep queue never overloaded"
            exc = overloads[0]
            assert exc.shard == 0
            assert exc.depth >= 1
            assert exc.retry_after > 0
            assert "retry after" in str(exc)
            results = [f.result() for f in futures]
            assert all(r.ok for r in results)
            stats = svc.shard_stats()[0]
            assert stats["rejections"] == len(overloads)
            assert stats["queue_depth_hwm"] >= 1

    def test_wait_true_blocks_instead_of_rejecting(self):
        _register_napper("napper", 0.5)
        with ProvingService(workers=1, parallel_msm=False,
                            queue_depth=1, verify="off") as svc:
            futures = [svc.submit(ProofJob(BN, "napper", (3,), "python"),
                                  wait=True)
                       for _ in range(4)]
            assert all(f.result().ok for f in futures)
            assert svc.shard_stats()[0]["rejections"] == 0


class TestShardAffinity:
    def test_same_key_lands_on_same_shard_and_hits_warm_cache(self):
        jobs = [ProofJob(BN, circuit, (3,), "python")
                for circuit in ("square", "cubic")] * 2
        with ProvingService(workers=2, parallel_msm=False,
                            verify="off") as svc:
            results = svc.prove_batch(jobs)
            assert all(r.ok for r in results)
            # distinct keys spread over both shards...
            assert svc.shard_of(BN, "square") != svc.shard_of(BN, "cubic")
            by_circuit = {}
            for r in results:
                by_circuit.setdefault(r.circuit, set()).add(
                    (r.shard, r.worker))
            # ...and every job of a key ran on that key's single shard
            for circuit, placements in by_circuit.items():
                assert len(placements) == 1, (circuit, placements)
                ((shard, _worker),) = placements
                assert shard == svc.shard_of(BN, circuit)
            # round 2 of each key hit the warm prover-handle cache
            hits = [r for r in results
                    if any(e.get("kind") == "prover-context-cache"
                           and e.get("detail") == "hit"
                           for e in r.telemetry.get("events", []))]
            assert len(hits) == 2
            stats = svc.shard_stats()
            assert sum(s["context_cache"]["hits"] for s in stats) == 2
            assert sum(s["context_cache"]["misses"] for s in stats) == 2

    def test_worker_cache_bound_evicts(self):
        # 3 keys through a 1-deep handle cache on one worker: every
        # uniform revisit misses (the unbounded case would hit)
        circuits = ("square", "cubic", "range4")
        jobs = [ProofJob(BN, c, (3,), "python") for c in circuits] * 2
        with ProvingService(workers=1, parallel_msm=False, verify="off",
                            worker_cache=1) as svc:
            results = svc.prove_batch(jobs)
            assert all(r.ok for r in results)
            stats = svc.shard_stats()[0]["context_cache"]
            assert stats["hits"] == 0
            assert stats["misses"] == len(jobs)


def _replayed(svc, good, job_id, public_inputs):
    """A worker-side ok result carrying ``good``'s proof bytes under
    other public inputs — what a corrupted or lying worker would hand
    the parent's verify stage."""
    return svc._wrap({
        "job_id": job_id, "ok": True, "curve": good.curve,
        "circuit": good.circuit, "proof": good.proof_bytes,
        "public_inputs": public_inputs, "backend": "python",
        "telemetry": {},
    }, 1)


class TestVerifyModes:
    def test_verify_off_skips_verification(self):
        with ProvingService(workers=1, parallel_msm=False,
                            verify="off") as svc:
            r = svc.prove_batch([ProofJob(BN, "square", (5,),
                                          "python")])[0]
            assert r.ok and not r.verified
            assert r.proof_bytes
            assert "verify" not in r.phase_seconds()

    def test_window_of_one_splices_span(self):
        """Per-proof verification is verify_window=1: the exact single
        check (4 Miller loops, 1 final exponentiation), spliced in."""
        with ProvingService(workers=1, parallel_msm=False,
                            verify_window=1) as svc:
            r = svc.prove_batch([ProofJob(BN, "square", (5,),
                                          "python")])[0]
            assert r.ok and r.verified
            phases = r.phase_seconds()
            assert "verify" in phases
            # the spliced verify keeps phases tiling the job span
            total = sum(phases.values())
            wall = r.wall_seconds()
            assert 0.5 * wall <= total <= 1.05 * wall
            verify_meta = [c["meta"] for c in r.job_span["children"]
                           if c["name"] == "verify"]
            assert verify_meta == [{"stage": "batched", "window": 1,
                                    "miller_loops": 4, "final_exps": 1}]
            assert svc._batch_stage.windows_timed_out == 0

    def test_window_of_one_catches_forged_proof(self):
        with ProvingService(workers=1, parallel_msm=False,
                            verify_window=1) as svc:
            good = svc.prove_batch([ProofJob(BN, "square", (5,),
                                             "python")])[0]
            assert good.verified
            # same service, job whose worker-side result we corrupt:
            # drive it through the parent's verify stage directly
            forged = _replayed(svc, good, "forged",
                               (int(good.public_inputs[0]) + 1,))
            finished = []
            svc._batch_stage.add(forged, finished.append)
            svc._batch_stage.drain()
            assert finished == [forged]
            assert not forged.ok and not forged.verified
            assert forged.error_kind == "verify"
            assert forged.proof_bytes is None

    def test_bad_verify_mode_rejected(self):
        from repro.errors import ServiceError

        # "pool" and "inline" were modes once; they are unknown now
        for mode in ("sometimes", "pool", "inline"):
            with pytest.raises(ServiceError, match="verify"):
                ProvingService(workers=0, verify=mode)


class TestBatchedVerifyMode:
    """verify="batched": finished proofs are checked in RLC windows —
    N + 3 Miller loops and one final exponentiation per window."""

    def test_inline_window_telemetry(self):
        jobs = [ProofJob(BN, "square", (3 + i,), "python")
                for i in range(3)]
        with ProvingService(workers=0, parallel_msm=False,
                            verify="batched", verify_window=4,
                            verify_window_timeout=5.0) as svc:
            # window of 4 never fills with 3 jobs: prove_batch's
            # flush_verify() must close the partial window
            results = svc.prove_batch(jobs)
            assert all(r.ok and r.verified for r in results)
            for r in results:
                meta = [c["meta"] for c in r.job_span["children"]
                        if c["name"] == "verify"]
                assert len(meta) == 1
                assert meta[0]["stage"] == "batched"
                assert meta[0]["window"] == 3
                # one window of N=3: N + 3 Miller loops, 1 final exp
                assert meta[0]["miller_loops"] == 6
                assert meta[0]["final_exps"] == 1
                phases = r.phase_seconds()
                assert "verify" in phases
            stats = svc.shard_stats()
            assert stats[0]["jobs"] == 3

    def test_pooled_window_end_to_end(self):
        jobs = [ProofJob(BN, "square", (3 + i,), "python")
                for i in range(3)]
        with ProvingService(workers=1, parallel_msm=False,
                            verify="batched", verify_window=3,
                            verify_window_timeout=5.0) as svc:
            results = svc.prove_batch(jobs)
            assert all(r.ok and r.verified for r in results)
            meta = [c["meta"] for c in results[0].job_span["children"]
                    if c["name"] == "verify"]
            assert meta and meta[0]["stage"] == "batched"
            assert sum(s["jobs"] for s in svc.shard_stats()) == 3

    def test_window_timeout_flushes_trickle_submit(self):
        with ProvingService(workers=0, parallel_msm=False,
                            verify="batched", verify_window=8,
                            verify_window_timeout=0.2) as svc:
            future = svc.submit(ProofJob(BN, "square", (5,), "python"))
            r = future.result(timeout=30)
            assert r.ok and r.verified
            meta = [c["meta"] for c in r.job_span["children"]
                    if c["name"] == "verify"]
            assert meta[0]["window"] == 1
            assert svc._batch_stage.windows_timed_out >= 1

    def test_forged_proof_isolated_from_window_siblings(self):
        """One forged proof in a window: the window fails, bisection
        pinpoints the forgery, and the sibling jobs still verify."""
        with ProvingService(workers=0, parallel_msm=False,
                            verify="batched", verify_window=8,
                            verify_window_timeout=30.0) as svc:
            good = svc.prove_batch(
                [ProofJob(BN, "square", (5,), "python")])[0]
            assert good.verified

            window = [
                _replayed(svc, good, "sibling-1",
                          tuple(good.public_inputs)),
                _replayed(svc, good, "forged",
                          (int(good.public_inputs[0]) + 1,)),
                _replayed(svc, good, "sibling-2",
                          tuple(good.public_inputs)),
            ]
            finished = {}
            for result in window:
                svc._batch_stage.add(
                    result, lambda res: finished.setdefault(res.job_id, res))
            svc._batch_stage.drain()
            assert finished["sibling-1"].verified
            assert finished["sibling-2"].verified
            assert not finished["forged"].ok
            assert finished["forged"].error_kind == "verify"

    @staticmethod
    def _honest_and_wrong_arity(svc):
        """An honest result and a replay of it carrying one public
        input too many.  The pair used to raise out of the window
        check: ``ProofError: expected 1 public inputs, got 2``."""
        good = svc.prove_batch([ProofJob(BN, "square", (5,), "python")])[0]
        assert good.verified
        publics = tuple(good.public_inputs)
        return [_replayed(svc, good, "honest", publics),
                _replayed(svc, good, "forged", publics + (7,))]

    def test_wrong_arity_job_fails_alone_in_its_window(self):
        """Regression: the forged job failed its honest sibling too."""
        with ProvingService(workers=0, parallel_msm=False,
                            verify_window=8,
                            verify_window_timeout=30.0) as svc:
            finished = {}
            for result in self._honest_and_wrong_arity(svc):
                svc._batch_stage.add(
                    result, lambda res: finished.setdefault(res.job_id, res))
            svc._batch_stage.drain()
            assert finished["honest"].ok and finished["honest"].verified
            assert not finished["forged"].ok
            assert finished["forged"].error_kind == "verify"
            assert "expected 1 public inputs, got 2" in \
                finished["forged"].error

    def test_aggregate_verify_names_wrong_arity_job(self):
        """Regression: aggregate_verify raised instead of answering."""
        with ProvingService(workers=0, parallel_msm=False) as svc:
            verdict = svc.aggregate_verify(
                self._honest_and_wrong_arity(svc))
            assert not verdict["ok"]
            assert verdict["bad_jobs"] == ["forged"]
            assert verdict["proofs_checked"] == 2

    def test_aggregate_verify_verdict(self):
        jobs = [ProofJob(BN, "square", (3 + i,), "python")
                for i in range(3)]
        with ProvingService(workers=0, parallel_msm=False,
                            verify="off") as svc:
            results = svc.prove_batch(jobs)
            assert all(r.ok and not r.verified for r in results)
            verdict = svc.aggregate_verify(results)
            assert verdict["ok"]
            assert verdict["bad_jobs"] == []
            assert verdict["proofs_checked"] == 3
            # one group window: N + 3 Miller loops, one final exp
            assert verdict["miller_loops"] == 6
            assert verdict["final_exps"] == 1
            # corrupt one job's public input: verdict flips, the
            # offender is named, siblings are not
            results[1].public_inputs = (
                int(results[1].public_inputs[0]) + 1,)
            verdict = svc.aggregate_verify(results)
            assert not verdict["ok"]
            assert verdict["bad_jobs"] == [results[1].job_id]

    def test_bad_window_knobs_rejected(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="verify_window"):
            ProvingService(workers=0, verify="batched", verify_window=0)
        with pytest.raises(ServiceError, match="verify_window_timeout"):
            ProvingService(workers=0, verify="batched",
                           verify_window_timeout=0.0)
        with pytest.raises(ServiceError, match="soundness_bits"):
            ProvingService(workers=0, verify="batched", soundness_bits=0)


class TestPerShardTelemetry:
    def test_pooled_stats_export(self):
        jobs = [ProofJob(BN, c, (3,), "python")
                for c in ("square", "cubic", "square", "cubic")]
        with ProvingService(workers=2, parallel_msm=False,
                            verify="off") as svc:
            assert all(r.ok for r in svc.prove_batch(jobs))
            stats = svc.shard_stats()
        assert [s["shard"] for s in stats] == [0, 1]
        for s in stats:
            assert s["jobs"] == 2
            assert s["queue_depth_hwm"] >= 1
            assert s["ewma_job_seconds"] > 0
            assert "MSM" in s["phase_seconds"]
            assert s["context_cache"]["hits"] + \
                s["context_cache"]["misses"] == 2

    def test_inline_stats_export(self):
        with ProvingService(workers=0, parallel_msm=False) as svc:
            svc.prove_batch([ProofJob(BN, "square", (3,), "python")])
            stats = svc.shard_stats()
        assert len(stats) == 1
        assert stats[0]["jobs"] == 1
        assert stats[0]["context_cache"]["misses"] == 1


# -- load generation ----------------------------------------------------------------


class TestArrivals:
    def test_poisson_deterministic(self):
        a = poisson_arrivals(10.0, 50, seed=7)
        b = poisson_arrivals(10.0, 50, seed=7)
        c = poisson_arrivals(10.0, 50, seed=8)
        assert a == b
        assert a != c
        assert len(a) == 50
        assert all(y > x for x, y in zip(a, a[1:]))
        # mean inter-arrival ~ 1/rate
        assert 0.03 < a[-1] / 50 < 0.3

    def test_burst_shape(self):
        offsets = burst_arrivals(6, 3, 1.5)
        assert offsets == [0.0, 0.0, 0.0, 1.5, 1.5, 1.5]

    def test_synthesize_jobs_deterministic(self):
        keys = [(BN, "square"), (BN, "cubic")]
        a = synthesize_jobs(keys, 20, seed=3, backend="python")
        b = synthesize_jobs(keys, 20, seed=3, backend="python")
        assert [(j.circuit, j.witness, j.job_id) for j in a] == \
            [(j.circuit, j.witness, j.job_id) for j in b]
        assert {j.circuit for j in a} == {"square", "cubic"}
        assert all(j.backend == "python" for j in a)

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile([], 50) == 0.0
        assert percentile([4.2], 99) == 4.2


class TestLoadGeneratorRoundTrip:
    def test_seeded_run_against_inline_service(self):
        keys = [(BN, "square"), (BN, "cubic")]
        jobs = synthesize_jobs(keys, 6, seed=11, backend="python")
        offsets = poisson_arrivals(50.0, 6, seed=11)
        with ProvingService(workers=0, parallel_msm=False) as svc:
            report = LoadGenerator(svc).run(jobs, offsets,
                                            arrival_mode="poisson")
        out = report.to_dict()
        assert out["jobs"] == 6
        assert out["ok"] == 6 and out["errors"] == 0
        assert out["dropped"] == 0
        assert out["jobs_per_second"] > 0
        lat = out["latency_seconds"]
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"]
        assert len(out["per_shard"]) == 1

    def test_burst_run_exercises_backpressure(self):
        _register_napper("napper", 0.5)
        jobs = [ProofJob(BN, "napper", (3,), "python",
                         f"burst-{i}") for i in range(5)]
        offsets = burst_arrivals(5, 5, 0.0)
        with ProvingService(workers=1, parallel_msm=False,
                            queue_depth=1, verify="off") as svc:
            report = LoadGenerator(svc).run(jobs, offsets,
                                            arrival_mode="burst")
        assert report.ok == 5
        assert report.dropped == 0
        # a 5-job burst into a 1-deep queue must have been pushed back
        assert report.rejections >= 1
