"""Tests for the async sharded pipeline: wire frames (no pickle on the
worker boundary), bounded-queue backpressure, shard affinity with warm
caches, verify modes, per-shard telemetry, and the seeded job stream."""

import pickle
import threading
import time

import pytest

from repro.errors import ServiceOverloadedError, ValidationError
from repro.service import wire
from repro.service.loadgen import percentile, synthesize_jobs
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
    the parent's verify stage.  Its job span is empty, so the verify
    stage's spliced ``verify`` phase is the only child."""
    span = {"name": "job", "seconds": 0.0, "ops": {}, "meta": {},
            "children": []}
    return svc._wrap({
        "job_id": job_id, "ok": True, "curve": good.curve,
        "circuit": good.circuit, "proof": good.proof_bytes,
        "public_inputs": public_inputs, "backend": "python",
        "telemetry": {"spans": [span]},
    }, 1)


def _verify_meta(result):
    return [c["meta"] for c in result.job_span["children"]
            if c["name"] == "verify"]


class _GatedFirstCheck:
    """Holds the verify stage's first check inside its ``bundle_for``
    until :meth:`release`, so whatever is parked for the key meanwhile
    is checked as the drainer's next group — a real group of several,
    whatever the thread timing."""

    def __init__(self, stage):
        self.entered = threading.Event()
        self._released = threading.Event()
        bundle_for = stage._bundle_for

        def gated(*key):
            if not self.entered.is_set():
                self.entered.set()
                assert self._released.wait(timeout=120)
            return bundle_for(*key)

        stage._bundle_for = gated

    def wait_blocked(self) -> None:
        assert self.entered.wait(timeout=120)

    def release(self) -> None:
        self._released.set()


def _checked_after_blocker(svc, good, results):
    """Block the stage on a check of an honest replay of ``good``, park
    ``results`` behind it, then release: ``results`` form one group.
    Returns every finished result by job id."""
    stage = svc._batch_stage
    gate = _GatedFirstCheck(stage)
    finished = {}

    def park(result):
        stage.add(result, lambda res: finished.setdefault(res.job_id, res))

    park(_replayed(svc, good, "blocker", tuple(good.public_inputs)))
    gate.wait_blocked()
    for result in results:
        park(result)
    gate.release()
    stage.drain()
    assert _verify_meta(finished.pop("blocker"))[0]["window"] == 1
    return finished


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
        """A lone proof is a group of one: the exact single check
        (4 Miller loops, 1 final exponentiation), spliced in."""
        with ProvingService(workers=1, parallel_msm=False) as svc:
            r = svc.prove_batch([ProofJob(BN, "square", (5,),
                                          "python")])[0]
            assert r.ok and r.verified
            phases = r.phase_seconds()
            assert "verify" in phases
            # the spliced verify keeps phases tiling the job span
            total = sum(phases.values())
            wall = r.wall_seconds()
            assert 0.5 * wall <= total <= 1.05 * wall
            assert _verify_meta(r) == [{"stage": "batched", "window": 1,
                                        "miller_loops": 4,
                                        "final_exps": 1}]

    def test_window_of_one_catches_forged_proof(self):
        with ProvingService(workers=1, parallel_msm=False) as svc:
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
    """verify="batched": whatever is parked for a key when a verify
    thread is free is checked as one RLC batch — N + 3 Miller loops and
    one final exponentiation per group."""

    def test_backlog_becomes_one_group(self):
        """Three proofs parked behind a busy check form one group."""
        with ProvingService(workers=0, parallel_msm=False) as svc:
            gate = _GatedFirstCheck(svc._batch_stage)
            first = svc.submit(ProofJob(BN, "square", (3,), "python"))
            gate.wait_blocked()
            backlog = [svc.submit(ProofJob(BN, "square", (4 + i,),
                                           "python"))
                       for i in range(3)]
            gate.release()
            assert _verify_meta(first.result(timeout=120)) == [
                {"stage": "batched", "window": 1, "miller_loops": 4,
                 "final_exps": 1}]
            results = [f.result(timeout=120) for f in backlog]
            assert all(r.ok and r.verified for r in results)
            spans = [[c for c in r.job_span["children"]
                      if c["name"] == "verify"] for r in results]
            # one check, one span: same meta and the same wall share
            assert spans[0] == spans[1] == spans[2]
            assert len(spans[0]) == 1
            assert spans[0][0]["meta"] == {
                "stage": "batched", "window": 3,
                # a group of N = 3: N + 3 Miller loops, 1 final exp
                "miller_loops": 6, "final_exps": 1}
            assert svc.shard_stats()[0]["jobs"] == 4

    def test_lone_submit_needs_no_timer(self):
        with ProvingService(workers=0, parallel_msm=False) as svc:
            future = svc.submit(ProofJob(BN, "square", (5,), "python"))
            r = future.result(timeout=120)
            assert r.ok and r.verified
            meta = _verify_meta(r)
            assert meta[0]["window"] == 1
            assert meta[0]["miller_loops"] == 4
            assert not [t for t in threading.enumerate()
                        if isinstance(t, threading.Timer)]

    def test_pooled_window_end_to_end(self):
        jobs = [ProofJob(BN, "square", (3 + i,), "python")
                for i in range(3)]
        with ProvingService(workers=1, parallel_msm=False,
                            verify="batched") as svc:
            results = svc.prove_batch(jobs)
            assert all(r.ok and r.verified for r in results)
            meta = _verify_meta(results[0])
            assert meta and meta[0]["stage"] == "batched"
            assert sum(s["jobs"] for s in svc.shard_stats()) == 3

    @pytest.mark.parametrize("workers", [0, 1])
    def test_close_with_a_backlog_resolves_every_job_once(self, workers):
        """close() while a check is blocked and more proofs are parked:
        every accepted job reaches exactly one terminal state."""
        svc = ProvingService(workers=workers, parallel_msm=False)
        stage = svc._batch_stage
        gate = _GatedFirstCheck(stage)
        resolved = {}

        def submit(witness):
            future = svc.submit(ProofJob(BN, "square", (witness,),
                                         "python"))
            future.add_done_callback(
                lambda f: resolved.setdefault(f, []).append(f.result()))
            return future

        futures = [submit(3)]
        gate.wait_blocked()
        futures += [submit(4 + i) for i in range(3)]
        closer = threading.Thread(target=svc.close)
        closer.start()
        # the parked jobs are proved (pooled: by close's dispatcher
        # shutdown) and wait behind the blocked check
        deadline = time.monotonic() + 120
        while sum(len(g) for g in stage._parked.values()) < 3:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert closer.is_alive()
        gate.release()
        closer.join(timeout=120)
        assert not closer.is_alive()
        assert all(f.done() for f in futures)
        assert [len(resolved[f]) for f in futures] == [1] * len(futures)
        assert all(f.result().ok and f.result().verified for f in futures)
        with pytest.raises(RuntimeError, match="closed"):
            stage.add(futures[0].result(), lambda res: None)

    def test_forged_proof_isolated_from_window_siblings(self):
        """One forged proof in a group: the group fails, bisection
        pinpoints the forgery, and the sibling jobs still verify."""
        with ProvingService(workers=0, parallel_msm=False) as svc:
            good = svc.prove_batch(
                [ProofJob(BN, "square", (5,), "python")])[0]
            assert good.verified
            finished = _checked_after_blocker(svc, good, [
                _replayed(svc, good, "sibling-1",
                          tuple(good.public_inputs)),
                _replayed(svc, good, "forged",
                          (int(good.public_inputs[0]) + 1,)),
                _replayed(svc, good, "sibling-2",
                          tuple(good.public_inputs)),
            ])
            assert finished["sibling-1"].verified
            assert finished["sibling-2"].verified
            assert not finished["forged"].ok
            assert finished["forged"].error_kind == "verify"
            # the three really were one group
            assert {_verify_meta(r)[0]["window"]
                    for r in finished.values()} == {3}

    @staticmethod
    def _honest_and_wrong_arity(svc):
        """An honest result and a replay of it carrying one public
        input too many.  The pair used to raise out of the window
        check: ``ProofError: expected 1 public inputs, got 2``."""
        good = svc.prove_batch([ProofJob(BN, "square", (5,), "python")])[0]
        assert good.verified
        publics = tuple(good.public_inputs)
        return good, [_replayed(svc, good, "honest", publics),
                      _replayed(svc, good, "forged", publics + (7,))]

    def test_wrong_arity_job_fails_alone_in_its_window(self):
        """Regression: the forged job failed its honest sibling too."""
        with ProvingService(workers=0, parallel_msm=False) as svc:
            good, pair = self._honest_and_wrong_arity(svc)
            finished = _checked_after_blocker(svc, good, pair)
            assert finished["honest"].ok and finished["honest"].verified
            assert not finished["forged"].ok
            assert finished["forged"].error_kind == "verify"
            assert "expected 1 public inputs, got 2" in \
                finished["forged"].error
            assert {_verify_meta(r)[0]["window"]
                    for r in finished.values()} == {2}

    def test_aggregate_verify_names_wrong_arity_job(self):
        """Regression: aggregate_verify raised instead of answering."""
        with ProvingService(workers=0, parallel_msm=False) as svc:
            _, pair = self._honest_and_wrong_arity(svc)
            verdict = svc.aggregate_verify(pair)
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

        # the window size, its timer and the verify pool size are gone
        for knob in ("verify_window", "verify_window_timeout",
                     "verify_workers"):
            with pytest.raises(TypeError, match=knob):
                ProvingService(workers=0, **{knob: 1})
        with pytest.raises(ServiceError, match="soundness_bits"):
            ProvingService(workers=0, verify="batched", soundness_bits=0)


class TestGroupCommitStage:
    """The stage's bookkeeping with the pairing check stubbed out: one
    drainer per key, every parked result checked once."""

    @staticmethod
    def _stage(monkeypatch, checked):
        from repro.service import batchverify

        def fake_check_group(results, bundle, soundness_bits, counter):
            checked.append([r.job_id for r in results])
            return [None] * len(results)

        monkeypatch.setattr(batchverify, "check_group", fake_check_group)
        return batchverify.BatchVerifyStage(lambda *key: None)

    @staticmethod
    def _result(job_id, circuit="square"):
        import types

        return types.SimpleNamespace(
            job_id=job_id, curve=BN, circuit=circuit, job_span=None,
            ok=True, verified=False, proof_bytes=b"", error=None,
            error_kind=None)

    def test_concurrent_adds_each_checked_once(self, monkeypatch):
        import sys

        class YieldingLock:
            """The stage's lock, but every acquire first yields the
            interpreter — widening each window between two critical
            sections that a lost update would fall into."""

            def __init__(self):
                self._lock = threading.Lock()

            def __enter__(self):
                time.sleep(0)
                self._lock.acquire()

            def __exit__(self, *exc):
                self._lock.release()

        checked, fired = [], {}
        lock = threading.Lock()
        stage = self._stage(monkeypatch, checked)
        stage._lock = YieldingLock()

        def done(result):
            with lock:
                fired[result.job_id] = fired.get(result.job_id, 0) + 1

        def producer(r, t):
            for i in range(6):
                stage.add(self._result(f"{r}-{t}-{i}", "abc"[i % 3]), done)

        # a result parked as a drainer retires is lost only if no later
        # add revives its key, so check after every short burst
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for r in range(60):
                threads = [threading.Thread(target=producer, args=(r, t))
                           for t in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                stage.drain()
                assert len(fired) == (r + 1) * 8 * 6
        finally:
            sys.setswitchinterval(interval)
            stage.close()
        assert set(fired.values()) == {1}
        assert sorted(j for group in checked for j in group) == \
            sorted(fired)
        assert not stage._parked and not stage._drainers

    def test_a_raising_done_does_not_strand_its_key(self, monkeypatch):
        """A ``done`` that raises (say, on a future its caller cancelled)
        ends its drainer; what is parked behind it is still checked."""
        checked, fired = [], []
        stage = self._stage(monkeypatch, checked)
        entered, released = threading.Event(), threading.Event()

        def blocked_then_raises(result):
            entered.set()
            assert released.wait(timeout=120)
            raise RuntimeError("caller went away")

        stage.add(self._result("first"), blocked_then_raises)
        assert entered.wait(timeout=120)
        stage.add(self._result("parked"), fired.append)
        released.set()
        stage.drain()
        stage.add(self._result("later"), fired.append)
        stage.close()
        assert [r.job_id for r in fired] == ["parked", "later"]
        assert checked == [["first"], ["parked"], ["later"]]


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


# -- job streams -------------------------------------------------------------------


class TestArrivals:
    """The seeded job stream a paced arrival loop submits, and the
    percentile its latencies are reported with."""

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
