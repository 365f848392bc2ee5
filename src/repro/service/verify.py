"""The proving service's verify stage: one check per finished job.

Workers prove; this stage, in the parent, verifies. Each ok result is
one task on the stage's private pool of :data:`VERIFY_THREADS`
threads, off the workers' critical path: decode the proof bytes
(subgroup checks included), check the public inputs' arity, run one
:meth:`~repro.snark.verifier.Groth16Verifier.verify` — 4 Miller loops
and 1 final exponentiation — then splice the verdict into the result
and fire its ``done``. A job that fails any step fails alone, with
``error_kind="verify"``; no job waits on another.

The stage is thread-agnostic: results arrive from the pipeline loop (or
the inline caller), each check runs on a stage pool thread — the only
threads that verify — and ``done`` is invoked from that thread; the
pipeline marshals back to its loop before touching shard stats or
futures.

Each checked job's exported span tree gets a ``verify`` phase spliced
in: its seconds are the decode plus the check, and its meta carries the
pairing economics (``miller_loops``, ``final_exps``), ``decode_s`` (the
part of the phase spent decoding the proof) and ``wait_s`` (from
:meth:`VerifyStage.add` until a pool thread started the check, which is
not part of the phase).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from repro.ff.opcount import OpCounter, counting
from repro.service.telemetry import splice_phase

__all__ = ["VerifyStage"]

#: threads that verify: at most this many jobs are checked at once
VERIFY_THREADS = 2


class VerifyStage:
    """Checks each finished proof with one single-proof verify on a
    private thread pool."""

    def __init__(self, bundle_for: Callable):
        self._bundle_for = bundle_for
        self._pool = ThreadPoolExecutor(max_workers=VERIFY_THREADS,
                                        thread_name_prefix="svc-verify")

    def add(self, result, done: Callable) -> None:
        """Queue one ok result for its check; ``done(result)`` fires
        from a stage pool thread once the verdict is in the result.
        Raises :class:`RuntimeError` once the stage is closed."""
        self._pool.submit(self._check, result, done, time.perf_counter())

    def close(self) -> None:
        """Refuse any later :meth:`add` and wait until every accepted
        check has run and its ``done`` has fired. Idempotent."""
        self._pool.shutdown(wait=True)

    def _check(self, result, done: Callable, added: float) -> None:
        """Decode, arity check, verify, splice, ``done``. The check
        never raises: a failure to check at all fails the job."""
        from repro.snark.serialize import deserialize_proof

        start = time.perf_counter()
        decode_s = 0.0
        counter = OpCounter()
        try:
            with counting(counter):
                bundle = self._bundle_for(result.curve, result.circuit)
                t_decode = time.perf_counter()
                proof = deserialize_proof(result.proof_bytes, bundle.curve)
                decode_s = time.perf_counter() - t_decode
                bundle.keys.verifying_key.check_public_inputs(
                    result.public_inputs)
                ok = bundle.verifier().verify(proof, result.public_inputs)
            reason = None if ok else "proof failed verification"
        except Exception as exc:  # noqa: BLE001 — bad input = that job only
            reason = f"{type(exc).__name__}: {exc}"
        span = result.job_span
        if span is not None:
            splice_phase(span, "verify", time.perf_counter() - start,
                         miller_loops=counter.total("miller_loop"),
                         final_exps=counter.total("final_exp"),
                         decode_s=decode_s, wait_s=start - added)
        if reason is None:
            result.verified = True
        else:
            result.ok = False
            result.verified = False
            result.proof_bytes = None
            result.error = reason
            result.error_kind = "verify"
        done(result)
