"""Group-commit verification: the proving service's one verify stage.

Workers prove; this stage, in the parent, verifies. A finished proof is
parked under its (curve, circuit) key, and the key gets one drainer on
the stage's small thread pool. Each pass the drainer takes everything
parked for the key and checks it as **one** random-linear-combination
batch — :meth:`~repro.snark.verifier.BatchVerifier.verify_window` —
costing N + 3 Miller loops and a single final exponentiation instead of
N per-proof checks at 4 + 1 each; it stops when a pass finds nothing
parked. A dirty group is bisected so only the offending job(s) fail;
clean siblings in the same group still verify.

There is no window size and no timer. A lone proof is checked the moment
a thread takes it — a group of one is the exact single check (4 + 1, no
coefficient drawn) — and a backlog becomes one group as soon as a thread
is free, so waiting could only hand work to a pool that is already busy.

The stage is thread-agnostic: results arrive from the pipeline loop (or
the inline caller), groups are checked on the stage's own pool — the
only threads that verify — and each job's completion callback is
invoked from a pool thread; the pipeline marshals back to its loop
before touching shard stats or futures.

Each verified job's exported span tree gets a ``verify`` phase spliced
in with ``stage="batched"`` plus the group's share of wall clock and
its pairing economics (``window``, the size of the group checked;
``miller_loops``; ``final_exps``) — so the N + 3 claim is visible in
every job's telemetry, not just in benchmarks.

:func:`check_group` is the one place a group of results is decoded,
screened and checked; the stage and :func:`verify_results_aggregate`
both go through it, so a job whose bytes do not decode or whose public
inputs have the wrong arity fails alone on either route.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Tuple

from repro.ff.opcount import OpCounter
from repro.service.telemetry import splice_phase

__all__ = ["BatchVerifyStage", "check_group", "verify_results_aggregate"]

#: threads that verify: at most this many keys are checked at once
VERIFY_THREADS = 2


def check_group(results, bundle, soundness_bits: int,
                counter=None) -> List[Optional[str]]:
    """Verify one (curve, circuit) group of ok results as a single RLC
    window. Returns, per result, ``None`` if its proof verified or the
    reason it did not.

    Each result is screened before the window sees it — proof bytes
    must decode (subgroup checks included) and the public inputs must
    have the key's arity — so a malformed job is rejected on its own
    and never reaches :meth:`BatchVerifier.verify_window`, where it
    would fail the whole window.
    """
    from repro.snark.serialize import deserialize_proof

    vk = bundle.keys.verifying_key
    reasons: List[Optional[str]] = [None] * len(results)
    slots, proofs, publics = [], [], []
    for slot, result in enumerate(results):
        try:
            vk.check_public_inputs(result.public_inputs)
            proof = deserialize_proof(result.proof_bytes, bundle.curve)
        except Exception as exc:  # noqa: BLE001 — bad input = that job only
            reasons[slot] = f"{type(exc).__name__}: {exc}"
            continue
        slots.append(slot)
        proofs.append(proof)
        publics.append(list(result.public_inputs))
    _, bad = bundle.batch_verifier(soundness_bits).verify_window(
        proofs, publics, counter=counter)
    for i in bad:
        reasons[slots[i]] = "proof failed batched verification"
    return reasons


class _Pending:
    """One finished-but-unverified job parked under its key."""

    __slots__ = ("result", "done")

    def __init__(self, result, done: Callable) -> None:
        self.result = result
        self.done = done


class BatchVerifyStage:
    """Parks finished proofs per key and checks whatever is parked as
    one RLC batch whenever a thread of its private pool is free."""

    def __init__(self, bundle_for: Callable, soundness_bits: int = 128):
        self._bundle_for = bundle_for
        self.soundness_bits = soundness_bits
        self._pool = ThreadPoolExecutor(max_workers=VERIFY_THREADS,
                                        thread_name_prefix="svc-batchverify")
        self._lock = threading.Lock()
        self._parked: Dict[Tuple[str, str], List[_Pending]] = {}
        self._drainers: Dict[Tuple[str, str], Future] = {}
        self._closed = False

    def add(self, result, done: Callable) -> None:
        """Park one ok result; ``done(result)`` fires (from a stage pool
        thread) once the group it joined is checked."""
        key = (result.curve, result.circuit)
        with self._lock:
            if self._closed:
                raise RuntimeError("batch verify stage is closed")
            self._parked.setdefault(key, []).append(_Pending(result, done))
            if key not in self._drainers:
                self._drainers[key] = self._pool.submit(self._drain_key, key)

    def _drain_key(self, key) -> None:
        """Runs on the stage pool: check everything parked for ``key``,
        pass after pass, until a pass finds nothing parked."""
        try:
            while True:
                with self._lock:
                    group = self._parked.pop(key, None)
                if group is None:
                    return
                self._check(key, group)
        finally:
            # results parked after the last pass, or behind a check
            # whose ``done`` raised, get a fresh drainer: no key is left
            # with parked results and no drainer
            with self._lock:
                del self._drainers[key]
                if key in self._parked:
                    self._drainers[key] = self._pool.submit(
                        self._drain_key, key)

    def drain(self) -> None:
        """Block until every parked result has been checked and its
        ``done`` has fired (shutdown path)."""
        while True:
            with self._lock:
                drainers = list(self._drainers.values())
            if not drainers:
                return
            wait(drainers)

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self.drain()
        self._pool.shutdown(wait=True)

    def _check(self, key, group: List[_Pending]) -> None:
        """One :func:`check_group` over the group, then splice telemetry
        and complete every job. The check never raises — a failure to
        check at all fails the group's jobs."""
        t0 = time.perf_counter()
        counter = OpCounter()
        try:
            reasons = check_group([p.result for p in group],
                                  self._bundle_for(*key),
                                  self.soundness_bits, counter)
        except Exception as exc:  # noqa: BLE001 — no verdict = no verified job
            reasons = [f"{type(exc).__name__}: {exc}"] * len(group)
        share = (time.perf_counter() - t0) / len(group)
        meta = {
            "stage": "batched",
            "window": len(group),
            "miller_loops": counter.total("miller_loop"),
            "final_exps": counter.total("final_exp"),
        }
        for pending, reason in zip(group, reasons):
            result = pending.result
            span = result.job_span
            if span is not None:
                splice_phase(span, "verify", share, **meta)
            if reason is None:
                result.verified = True
            else:
                result.ok = False
                result.verified = False
                result.proof_bytes = None
                result.error = reason
                result.error_kind = "verify"
            pending.done(result)


def verify_results_aggregate(results, bundle_for: Callable,
                             soundness_bits: int = 128) -> dict:
    """One accept/reject verdict over a whole job batch.

    Groups ok results by (curve, circuit), runs one :func:`check_group`
    per group, and folds the verdicts: ``ok`` is True iff every proof
    in every group verifies (and no job in ``results`` had already
    failed). ``bad_jobs`` names the offending job ids — screened or
    isolated by bisection, so one forged proof does not smear its
    siblings.
    """
    groups: Dict[Tuple[str, str], list] = {}
    bad_jobs: List[str] = []
    counter = OpCounter()
    for result in results:
        if not result.ok or result.proof_bytes is None:
            bad_jobs.append(result.job_id)
            continue
        groups.setdefault((result.curve, result.circuit), []).append(result)
    for key, members in groups.items():
        reasons = check_group(members, bundle_for(*key), soundness_bits,
                              counter)
        bad_jobs.extend(result.job_id
                        for result, reason in zip(members, reasons)
                        if reason is not None)
    return {
        "ok": not bad_jobs,
        "bad_jobs": sorted(bad_jobs),
        "proofs_checked": sum(len(m) for m in groups.values()),
        "miller_loops": counter.total("miller_loop"),
        "final_exps": counter.total("final_exp"),
    }
