"""End-to-end tests for the concurrent proving service.

Covers the service's whole contract: batches of jobs across all three
curves on a real worker pool, independently re-verifiable proof bytes,
per-phase telemetry whose top-level spans tile the job wall clock,
strict wire-format decoding, parent-side validation that never reaches
a worker, in-worker failures that never kill a worker, per-job timeout
with bounded retry, and graceful degradation when the native kernels
are disabled.
"""

import json
import time

import pytest

from repro.curves.params import CURVES
from repro.errors import ServiceError, ValidationError
from repro.service import (ProofJob, ProvingService, Telemetry,
                           encode_request, decode_request)
from repro.service.registry import CIRCUIT_REGISTRY, CircuitSpec, \
    register_circuit
from repro.service.service import setup_for
from repro.service.wire import MAGIC
from repro.snark.serialize import deserialize_proof
from repro.snark.verifier import Groth16Verifier

ALL_CURVES = ["ALT-BN128", "BLS12-381", "MNT4753"]


def _independently_verifies(result) -> bool:
    """Re-derive the verifying key from public names + seed and check
    the returned proof bytes — no trust in the worker."""
    curve = CURVES[result.curve]
    _, keys = setup_for(result.curve, result.circuit)
    proof = deserialize_proof(result.proof_bytes, curve)
    verifier = Groth16Verifier(keys.verifying_key, curve)
    return verifier.verify(proof, result.public_inputs)


# -- the big batch ------------------------------------------------------------------


@pytest.fixture(scope="module")
def batch_results():
    jobs = [
        ProofJob("ALT-BN128", "square", (3,)),
        ProofJob("ALT-BN128", "product", (4, 5)),
        ProofJob("ALT-BN128", "cubic", (2,)),
        ProofJob("BLS12-381", "square", (6,)),
        ProofJob("BLS12-381", "range4", (7,)),
        ProofJob("BLS12-381", "product", (8, 9)),
        ProofJob("MNT4753", "square", (10,)),
        ProofJob("MNT4753", "cubic", (4,)),
        encode_request("ALT-BN128", "range4", [13]),
    ]
    with ProvingService(workers=2, timeout=120, retries=1) as svc:
        results = svc.prove_batch(jobs)
    return jobs, results


def test_batch_all_jobs_verify(batch_results):
    jobs, results = batch_results
    assert len(results) == len(jobs) >= 8
    assert all(r.ok and r.verified for r in results)
    assert {r.curve for r in results} == set(ALL_CURVES)
    for r in results:
        assert _independently_verifies(r)


def test_batch_uses_both_workers(batch_results):
    _, results = batch_results
    assert {r.worker for r in results} == {0, 1}


def test_batch_phase_breakdown(batch_results):
    _, results = batch_results
    for r in results:
        phases = r.phase_seconds()
        assert {"POLY", "MSM", "verify", "serialize"} <= set(phases)
        assert phases["MSM"] > 0
        # Top-level phases tile the job span: their sum approximates
        # the job's wall clock (gaps are only rng and glue code).
        wall = r.wall_seconds()
        assert wall > 0
        assert 0.5 * wall <= sum(phases.values()) <= 1.05 * wall


def test_batch_msm_spans_and_ops(batch_results):
    _, results = batch_results
    for r in results:
        msm = next(c for c in r.job_span["children"] if c["name"] == "MSM")
        names = {c["name"] for c in msm["children"]}
        assert names == {"MSM-A", "MSM-B-G1", "MSM-B-G2", "MSM-C", "MSM-H"}
        # every MSM child attributed real group-op counts (MSM-H is
        # legitimately empty for 1-constraint circuits: |h_query| = 0)
        for child in msm["children"]:
            assert child["ops"] or child["name"] == "MSM-H", child["name"]
        poly = next(c for c in r.job_span["children"]
                    if c["name"] == "POLY")
        assert poly["ops"].get("fr_mul", 0) > 0


def test_job_ids_and_request_bytes_job(batch_results):
    jobs, results = batch_results
    assert len({r.job_id for r in results}) == len(results)
    # the request-bytes job decoded to the right circuit
    assert results[-1].circuit == "range4"


# -- wire format --------------------------------------------------------------------


def test_request_roundtrip():
    blob = encode_request("BLS12-381", "product", [123, 456],
                          backend="numpy")
    req = decode_request(blob)
    assert (req.curve, req.circuit, req.witness, req.backend) == \
        ("BLS12-381", "product", (123, 456), "numpy")


def test_request_decode_strictness():
    blob = encode_request("ALT-BN128", "square", [7])
    with pytest.raises(ValidationError):
        decode_request(b"NOTRQ" + blob[5:])          # bad magic
    with pytest.raises(ValidationError):
        decode_request(blob[:len(MAGIC)] + b"\x63" + blob[7:])  # version
    for cut in (3, len(MAGIC), len(blob) - 1):
        with pytest.raises(ValidationError):
            decode_request(blob[:cut])               # truncations
    with pytest.raises(ValidationError):
        decode_request(blob + b"\x00")               # trailing bytes


# -- validation and per-job failure isolation ---------------------------------------


def test_validation_rejects_without_reaching_workers():
    fr = CURVES["ALT-BN128"].fr
    bad_jobs = [
        ProofJob("NO-SUCH-CURVE", "square", (1,)),
        ProofJob("ALT-BN128", "no-such-circuit", (1,)),
        ProofJob("ALT-BN128", "square", (1, 2)),          # arity
        ProofJob("ALT-BN128", "square", (fr.modulus,)),   # range
        ProofJob("ALT-BN128", "square", (-1,)),           # negative
    ]
    with ProvingService(workers=1, parallel_msm=False) as svc:
        results = svc.prove_batch(bad_jobs + [
            ProofJob("ALT-BN128", "square", (7,)),
        ])
    for r in results[:-1]:
        assert not r.ok and r.error_kind == "validation"
        assert r.worker is None          # never queued
    assert results[-1].ok               # pool unharmed


def test_unsatisfiable_witness_is_a_job_error_not_a_dead_worker():
    with ProvingService(workers=1) as svc:
        results = svc.prove_batch([
            ProofJob("ALT-BN128", "range4", (99,)),   # out of [0, 16)
            ProofJob("ALT-BN128", "range4", (9,)),
        ])
    assert not results[0].ok and results[0].error_kind == "proof"
    assert "satisfy" in results[0].error
    assert results[1].ok and results[1].verified


# -- timeout and retry --------------------------------------------------------------


def _sleepy_assign(field, witness):
    time.sleep(60)
    return [1, field.mul(witness[0], witness[0]), witness[0]]


def test_timeout_kills_worker_retries_then_fails():
    register_circuit(CircuitSpec(
        "sleepy", 1, CIRCUIT_REGISTRY["square"].build, _sleepy_assign,
        "hangs in witness assignment (test only)"))
    try:
        # timeout must sit between a real job's cost and the sleepy
        # circuit's 60s hang. The square job on a respawned worker,
        # send to result, measured 0.15-0.40 s on a 2-core x86 host
        # (python, numpy and numpy with REPRO_NATIVE=0; 3 runs each):
        # 3 s is 7.5x the worst of those.
        with ProvingService(workers=1, timeout=3.0, retries=1,
                            parallel_msm=False) as svc:
            results = svc.prove_batch([
                ProofJob("ALT-BN128", "sleepy", (3,)),
                ProofJob("ALT-BN128", "square", (3,)),
            ])
        assert not results[0].ok
        assert results[0].error_kind == "timeout"
        assert results[0].attempts == 2        # 1 try + 1 retry
        # respawned worker still proves the next job
        assert results[1].ok and results[1].verified
    finally:
        del CIRCUIT_REGISTRY["sleepy"]


# -- graceful degradation -----------------------------------------------------------


def test_native_disabled_degrades_gracefully():
    with ProvingService(workers=1, env={"REPRO_NATIVE": "0"}) as svc:
        results = svc.prove_batch([
            ProofJob("ALT-BN128", "product", (3, 4)),
        ])
    r = results[0]
    assert r.ok and r.verified and r.backend == "python"
    downs = r.downgrades()
    assert [(d["kind"], d["requested"], d["used"]) for d in downs] == [
        ("backend-downgrade", "numpy", "python")]
    # the worker honoured its env override from scratch (reset_native
    # post-fork) and the loader's disable event reached job telemetry
    kinds = [e["kind"] for e in r.telemetry.get("events", [])]
    assert "native-kernel-disabled" in kinds


def test_native_disabled_worker_still_independently_verifies():
    """Per-worker REPRO_NATIVE=0 changes the compute path, never
    soundness: the scalar-fallback proof verifies against a key
    derived outside the service."""
    job = ProofJob("ALT-BN128", "cubic", (3,), backend="numpy")
    with ProvingService(workers=1, env={"REPRO_NATIVE": "0"}) as svc:
        off = svc.prove_batch([job])[0]
    assert off.ok and off.verified and off.backend == "python"
    assert [d["kind"] for d in off.downgrades()] == ["backend-downgrade"]
    assert _independently_verifies(off)


def test_bad_msm_override_rejected_at_construction():
    """A (k, M) no engine can run is a ServiceError from the
    constructor. It used to get in: ``msm_interval=0`` raised
    ZeroDivisionError out of an inline ``prove_batch`` and, with
    ``warm=``, out of the constructor itself."""
    with pytest.raises(ServiceError, match="interval"):
        ProvingService(workers=0, msm_interval=0).prove_batch(
            [ProofJob("ALT-BN128", "cubic", (5,))])
    with pytest.raises(ServiceError, match="interval"):
        ProvingService(workers=0, msm_interval=0,
                       warm=[("ALT-BN128", "cubic")])
    with pytest.raises(ServiceError, match="window"):
        ProvingService(workers=0, msm_window=300)


def test_unknown_backend_downgrades_to_python():
    with ProvingService(workers=0) as svc:
        r = svc.prove_batch([
            ProofJob("ALT-BN128", "square", (5,), backend="cuda"),
        ])[0]
    assert r.ok and r.backend == "python"
    assert any(d["kind"] == "backend-downgrade" for d in r.downgrades())


# -- inline mode --------------------------------------------------------------------


def test_inline_mode_matches_pool_contract():
    with ProvingService(workers=0, parallel_msm=False) as svc:
        results = svc.prove_batch([
            ProofJob("BLS12-381", "cubic", (5,)),
            encode_request("ALT-BN128", "square", [11]),
        ])
    assert all(r.ok and r.verified for r in results)
    for r in results:
        assert _independently_verifies(r)
        assert {"POLY", "MSM"} <= set(r.phase_seconds())


def _poisoned_assign(field, witness):
    if witness[0] == 13:
        raise ValueError(f"kernel fault on {witness[0]}")
    return CIRCUIT_REGISTRY["square"].assign(field, witness)


def test_inline_job_fault_fails_alone():
    """A fault that is not a ReproError (a kernel's ValueError) used to
    escape an inline ``prove_batch`` and take the batch with it, where
    the pooled path answers it with an error frame. One poisoned job in
    an inline batch of three is two proofs and one ``internal`` error
    naming the exception type only."""
    register_circuit(CircuitSpec(
        "poisoned", 1, CIRCUIT_REGISTRY["square"].build, _poisoned_assign,
        "raises ValueError on witness 13 (test only)"))
    try:
        with ProvingService(workers=0, parallel_msm=False) as svc:
            results = svc.prove_batch([
                ProofJob("ALT-BN128", "poisoned", (5,)),
                ProofJob("ALT-BN128", "poisoned", (13,)),
                ProofJob("ALT-BN128", "poisoned", (7,)),
            ])
    finally:
        del CIRCUIT_REGISTRY["poisoned"]
    assert [r.ok for r in results] == [True, False, True]
    assert results[0].verified and results[2].verified
    bad = results[1]
    assert bad.error_kind == "internal" and bad.error == "ValueError"
    assert "kernel fault" not in json.dumps(bad.telemetry)


# -- telemetry unit behaviour -------------------------------------------------------


def test_telemetry_span_nesting_and_ops():
    t = Telemetry()
    with t.span("outer"):
        with t.span("inner") as inner:
            inner.counter.count("fr_mul", 3)
    assert len(t.spans) == 1
    outer = t.spans[0]
    assert outer.child("inner") is not None
    assert outer.total_ops()["fr_mul"] == 3
    assert outer.own_ops == {}
    exported = t.to_dict()
    assert exported["spans"][0]["children"][0]["ops"] == {"fr_mul": 3}


def test_telemetry_events_and_downgrades():
    t = Telemetry()
    t.record_event("backend-downgrade", "numpy -> python")
    t.record_event("retry", "attempt 2")
    assert len(t.downgrades()) == 1
    assert t.to_dict()["events"][1]["kind"] == "retry"
