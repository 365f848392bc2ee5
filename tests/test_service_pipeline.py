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
        with ProvingService(workers=1, queue_depth=1, verify="off") as svc:
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
        with ProvingService(workers=1, queue_depth=1, verify="off") as svc:
            futures = [svc.submit(ProofJob(BN, "napper", (3,), "python"),
                                  wait=True)
                       for _ in range(4)]
            assert all(f.result().ok for f in futures)
            assert svc.shard_stats()[0]["rejections"] == 0


class TestShardAffinity:
    def test_same_key_lands_on_same_shard_and_hits_warm_cache(self):
        jobs = [ProofJob(BN, circuit, (3,), "python")
                for circuit in ("square", "cubic")] * 2
        with ProvingService(workers=2, verify="off") as svc:
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
        with ProvingService(workers=1, verify="off", worker_cache=1) as svc:
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
    until :meth:`release`, so that check stays in flight, whatever the
    thread timing."""

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


def _assert_single_check_meta(result):
    """One verify phase: the 4 + 1 single check, and its decode and
    queue-wait seconds."""
    (meta,) = _verify_meta(result)
    assert set(meta) == {"miller_loops", "final_exps", "decode_s",
                         "wait_s"}
    assert (meta["miller_loops"], meta["final_exps"]) == (4, 1)
    assert meta["decode_s"] >= 0 and meta["wait_s"] >= 0


class TestVerifyModes:
    def test_verify_off_skips_verification(self):
        with ProvingService(workers=1, verify="off") as svc:
            r = svc.prove_batch([ProofJob(BN, "square", (5,),
                                          "python")])[0]
            assert r.ok and not r.verified
            assert r.proof_bytes
            assert "verify" not in r.phase_seconds()

    def test_window_of_one_splices_span(self):
        """A proof's verify is the single check (4 Miller loops, 1 final
        exponentiation), spliced in with its decode inside the phase."""
        with ProvingService(workers=1) as svc:
            r = svc.prove_batch([ProofJob(BN, "square", (5,),
                                          "python")])[0]
            assert r.ok and r.verified
            phases = r.phase_seconds()
            assert "verify" in phases
            # the spliced verify keeps phases tiling the job span
            total = sum(phases.values())
            wall = r.wall_seconds()
            assert 0.5 * wall <= total <= 1.05 * wall
            _assert_single_check_meta(r)
            assert _verify_meta(r)[0]["decode_s"] <= phases["verify"]

    def test_window_of_one_catches_forged_proof(self):
        with ProvingService(workers=1) as svc:
            good = svc.prove_batch([ProofJob(BN, "square", (5,),
                                             "python")])[0]
            assert good.verified
            # same service, job whose worker-side result we corrupt:
            # drive it through the parent's verify stage directly
            forged = _replayed(svc, good, "forged",
                               (int(good.public_inputs[0]) + 1,))
            finished = []
            svc._verify_stage.add(forged, finished.append)
            svc._verify_stage.close()
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


def _forging(svc, forgeries):
    """Make ``svc`` hand its verify stage forged results: the job whose
    id is a key of ``forgeries`` has its ok worker result passed
    through that function first — what a corrupted or lying worker
    would send the parent."""
    wrap = svc._wrap

    def wrapped(raw, attempts):
        result = wrap(raw, attempts)
        forge = forgeries.get(result.job_id)
        return forge(result) if forge and result.ok else result

    if svc._pipeline is not None:
        svc._pipeline._wrap_result = wrapped
    else:
        svc._wrap = wrapped


def _plus_one(result):
    result.public_inputs = (int(result.public_inputs[0]) + 1,)
    return result


def _undecodable(result):
    result.proof_bytes = result.proof_bytes[:-1]
    return result


def _wrong_arity(result):
    result.public_inputs = (*result.public_inputs, 7)
    return result


class TestBatchedVerifyMode:
    """verify="batched": each finished proof gets one single-proof
    check — 4 Miller loops and 1 final exponentiation — on the verify
    stage's threads."""

    def test_lone_submit_needs_no_timer(self):
        with ProvingService(workers=0) as svc:
            future = svc.submit(ProofJob(BN, "square", (5,), "python"))
            r = future.result(timeout=120)
            assert r.ok and r.verified
            _assert_single_check_meta(r)
            assert not [t for t in threading.enumerate()
                        if isinstance(t, threading.Timer)]

    def test_pooled_window_end_to_end(self):
        jobs = [ProofJob(BN, "square", (3 + i,), "python")
                for i in range(3)]
        with ProvingService(workers=1, verify="batched") as svc:
            results = svc.prove_batch(jobs)
            assert all(r.ok and r.verified for r in results)
            for r in results:
                _assert_single_check_meta(r)
            assert sum(s["jobs"] for s in svc.shard_stats()) == 3

    @pytest.mark.parametrize("floor", ["default", "REPRO_NATIVE=0"])
    @pytest.mark.parametrize("workers", [0, 1])
    def test_forged_jobs_fail_alone_in_a_burst(self, workers, floor,
                                               monkeypatch):
        """A burst of one key mixing honest jobs with forgeries — a
        wrong public input, proof bytes that do not decode, a public
        input too many: exactly the forged jobs fail, each on its
        own, and every sibling verifies."""
        if floor != "default":
            monkeypatch.setenv("REPRO_NATIVE", "0")
        forgeries = {"input+1": _plus_one, "undecodable": _undecodable,
                     "arity": _wrong_arity}
        ids = ["honest-0", "input+1", "honest-1", "undecodable",
               "honest-2", "arity", "honest-3"]
        with ProvingService(workers=workers) as svc:
            _forging(svc, forgeries)
            futures = [svc.submit(ProofJob(BN, "square", (3 + i,),
                                           job_id=job_id))
                       for i, job_id in enumerate(ids)]
            finished = {f.result(timeout=120).job_id: f.result()
                        for f in futures}
        assert set(finished) == set(ids)
        for job_id, r in finished.items():
            if job_id in forgeries:
                assert not r.ok and not r.verified, job_id
                assert r.error_kind == "verify", job_id
                assert r.proof_bytes is None, job_id
            else:
                assert r.ok and r.verified, job_id
                _assert_single_check_meta(r)
        assert "expected 1 public inputs, got 2" in finished["arity"].error

    @pytest.mark.parametrize("workers", [0, 1])
    def test_close_with_a_backlog_resolves_every_job_once(self, workers):
        """close() while a check is in flight: every accepted job
        reaches exactly one terminal state, and the stage refuses any
        later add."""
        svc = ProvingService(workers=workers)
        stage = svc._verify_stage
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
        # the later jobs are proved (pooled: by close's dispatcher
        # shutdown) and checked on the other stage thread, while close
        # waits on the blocked check
        deadline = time.monotonic() + 120
        while not all(f.done() for f in futures[1:]):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert closer.is_alive() and not futures[0].done()
        gate.release()
        closer.join(timeout=120)
        assert not closer.is_alive()
        assert all(f.done() for f in futures)
        assert [len(resolved[f]) for f in futures] == [1] * len(futures)
        assert all(f.result().ok and f.result().verified for f in futures)
        with pytest.raises(RuntimeError, match="shutdown"):
            stage.add(futures[0].result(), lambda res: None)

    def test_a_raising_done_does_not_stop_later_checks(self):
        """A ``done`` that raises (say, on a future its caller
        cancelled) is that job's problem: the stage checks what is
        added after it."""
        with ProvingService(workers=0) as svc:
            good = svc.prove_batch(
                [ProofJob(BN, "square", (5,), "python")])[0]
            stage, fired, raised = svc._verify_stage, [], threading.Event()

            def raises(result):
                raised.set()
                raise RuntimeError("caller went away")

            publics = tuple(good.public_inputs)
            stage.add(_replayed(svc, good, "first", publics), raises)
            assert raised.wait(timeout=120)
            for job_id in ("later-1", "later-2", "later-3"):
                stage.add(_replayed(svc, good, job_id, publics),
                          fired.append)
            stage.close()
        assert sorted(r.job_id for r in fired) == \
            ["later-1", "later-2", "later-3"]
        assert all(r.verified for r in fired)

    def test_bad_window_knobs_rejected(self):
        # the window size, its timer, the verify pool size and the
        # group check's coefficient width are gone
        for knob in ("verify_window", "verify_window_timeout",
                     "verify_workers", "soundness_bits"):
            with pytest.raises(TypeError, match=knob):
                ProvingService(workers=0, **{knob: 1})


def test_msm_pool_knobs_rejected():
    from repro.service.worker import WorkerState
    from repro.snark.gzkp_prover import make_gzkp_prover
    from repro.snark.prover import Groth16Prover

    # the five MSMs run one after the other: no executor to hand in
    for build in (Groth16Prover, make_gzkp_prover):
        with pytest.raises(TypeError, match="msm_executor"):
            build(None, None, None, msm_executor=object())
    with pytest.raises(TypeError, match="parallel_msm"):
        WorkerState(parallel_msm=True)
    # benchmarks/ledger/stations.py still passes it to the service
    ProvingService(workers=0, parallel_msm=False).close()


class TestInlineConcurrency:
    """Inline jobs submitted from several threads run one at a time, as
    a worker proves one job at a time, and every job counts its ops on
    its own spans — also while the verify stage checks earlier jobs."""

    JOBS = {"square": (3,), "range4": (9,)}

    @staticmethod
    def _msm_ops(result):
        msm = next(c for c in result.job_span["children"]
                   if c["name"] == "MSM")
        return {c["name"]: c["ops"] for c in msm["children"]}

    def test_two_threads_leave_no_counter_and_count_alike(self):
        from repro.ff.opcount import _ACTIVE

        assert _ACTIVE.get() is None
        with ProvingService(workers=0, verify="off") as svc:
            # single-threaded reference, one job per circuit
            want = {c: self._msm_ops(svc.prove_batch(
                        [ProofJob(BN, c, w)])[0])
                    for c, w in self.JOBS.items()}
            results = {c: [] for c in self.JOBS}

            def submitter(circuit):
                job = ProofJob(BN, circuit, self.JOBS[circuit])
                futures = [svc.submit(job) for _ in range(30)]
                results[circuit] = [f.result(timeout=120)
                                    for f in futures]

            threads = [threading.Thread(target=submitter, args=(c,))
                       for c in self.JOBS]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert _ACTIVE.get() is None
        for circuit, got in results.items():
            assert len(got) == 30 and all(r.ok for r in got)
            for r in got:
                assert self._msm_ops(r) == want[circuit], circuit

    def test_batched_verify_does_not_count_on_the_proving_job(self):
        """With the default ``verify="batched"`` the stage's pool threads
        verify earlier jobs (decode, IC fold, pairing) while the
        submitting thread proves the next one; none of that lands in a
        proving job's MSM ops."""
        job = ProofJob(BN, "range4", self.JOBS["range4"])
        with ProvingService(workers=0) as svc:
            want = self._msm_ops(svc.prove_batch([job])[0])
            futures = [svc.submit(job) for _ in range(12)]
            got = [f.result(timeout=120) for f in futures]
        assert all(r.ok and r.verified for r in got)
        for r in got:
            assert self._msm_ops(r) == want


class TestPerShardTelemetry:
    def test_pooled_stats_export(self):
        jobs = [ProofJob(BN, c, (3,), "python")
                for c in ("square", "cubic", "square", "cubic")]
        with ProvingService(workers=2, verify="off") as svc:
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
        with ProvingService(workers=0) as svc:
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
