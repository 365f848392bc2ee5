"""Windowed verification: the proving service's one verify stage.

Workers prove; this stage, in the parent, verifies. Finished proofs
accumulate per (curve, circuit) until a window fills (``verify_window``
jobs) or ages out (``verify_window_timeout`` seconds), then the whole
window is checked with **one** random-linear-combination batch —
:meth:`~repro.snark.verifier.BatchVerifier.verify_window` — costing
N + 3 Miller loops and a single final exponentiation instead of N
per-proof checks at 4 + 1 each. A dirty window is bisected so only the
offending job(s) fail; clean siblings in the same window still verify.
Per-proof verification is the same stage at ``verify_window=1``: a
window of one is the exact single check (4 + 1, no coefficient drawn).

The stage is thread-agnostic: results arrive from the pipeline loop (or
the inline caller), windows are flushed onto the stage's own small
thread pool — the only threads that verify — and each job's completion
callback is invoked from a pool thread; the pipeline marshals back to
its loop before touching shard stats or futures. Timers guarantee
progress for trickle traffic (a direct ``submit()`` never waits for a
window that will not fill).

Each verified job's exported span tree gets a ``verify`` phase spliced
in with ``stage="batched"`` plus the window's share of wall clock and
its pairing economics (``window``, ``miller_loops``, ``final_exps``) —
so the N + 3 claim is visible in every job's telemetry, not just in
benchmarks.

:func:`check_group` is the one place a group of results is decoded,
screened and checked; the stage and :func:`verify_results_aggregate`
both go through it, so a job whose bytes do not decode or whose public
inputs have the wrong arity fails alone on either route.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.ff.opcount import OpCounter
from repro.service.telemetry import splice_phase

__all__ = ["BatchVerifyStage", "check_group", "verify_results_aggregate"]


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
    """One finished-but-unverified job parked in a window."""

    __slots__ = ("result", "done")

    def __init__(self, result, done: Callable) -> None:
        self.result = result
        self.done = done


class BatchVerifyStage:
    """Accumulates finished proofs into per-key windows and verifies
    each window as one RLC batch on a private thread pool."""

    def __init__(self, bundle_for: Callable, window_size: int = 8,
                 window_timeout: float = 0.25,
                 soundness_bits: int = 128,
                 verify_workers: int = 2):
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        if window_timeout <= 0:
            raise ValueError("window_timeout must be > 0")
        from concurrent.futures import ThreadPoolExecutor

        self._bundle_for = bundle_for
        self.window_size = window_size
        self.window_timeout = window_timeout
        self.soundness_bits = soundness_bits
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, verify_workers),
            thread_name_prefix="svc-batchverify")
        self._lock = threading.Lock()
        self._windows: Dict[Tuple[str, str], List[_Pending]] = {}
        self._timers: Dict[Tuple[str, str], threading.Timer] = {}
        self._inflight: set = set()
        self._closed = False
        #: windows flushed by fill vs. by timer (introspection/tests)
        self.windows_filled = 0
        self.windows_timed_out = 0

    # -- intake ------------------------------------------------------------------

    def add(self, result, done: Callable) -> None:
        """Park one ok result for windowed verification; ``done(result)``
        fires (from a stage pool thread) once its window is checked."""
        key = (result.curve, result.circuit)
        batch: Optional[List[_Pending]] = None
        with self._lock:
            if self._closed:
                raise RuntimeError("batch verify stage is closed")
            window = self._windows.setdefault(key, [])
            window.append(_Pending(result, done))
            if len(window) >= self.window_size:
                batch = self._windows.pop(key)
                self._cancel_timer(key)
                self.windows_filled += 1
            elif key not in self._timers:
                timer = threading.Timer(self.window_timeout,
                                        self._timer_flush, args=(key,))
                timer.daemon = True
                self._timers[key] = timer
                timer.start()
        if batch:
            self._submit(key, batch)

    def _cancel_timer(self, key) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()

    def _timer_flush(self, key) -> None:
        with self._lock:
            self._timers.pop(key, None)
            batch = self._windows.pop(key, None)
            if batch:
                self.windows_timed_out += 1
        if batch:
            self._submit(key, batch)

    def flush(self) -> None:
        """Flush every partial window now (verification still runs
        asynchronously on the stage pool)."""
        with self._lock:
            drained = list(self._windows.items())
            self._windows.clear()
            for key, _ in drained:
                self._cancel_timer(key)
        for key, batch in drained:
            if batch:
                self._submit(key, batch)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Flush everything and block until all in-flight windows have
        completed (shutdown path)."""
        self.flush()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                inflight = list(self._inflight)
            if not inflight:
                return
            for fut in inflight:
                remaining = (None if deadline is None
                             else max(0.0, deadline - time.monotonic()))
                try:
                    fut.result(timeout=remaining)
                except Exception:  # noqa: BLE001 — per-job errors already routed
                    pass

    def close(self) -> None:
        self.drain()
        with self._lock:
            self._closed = True
            for key in list(self._timers):
                self._cancel_timer(key)
        self._pool.shutdown(wait=True)

    # -- the window check --------------------------------------------------------

    def _submit(self, key, batch: List[_Pending]) -> None:
        fut = self._pool.submit(self._verify_window, key, batch)
        with self._lock:
            self._inflight.add(fut)
        fut.add_done_callback(self._forget)

    def _forget(self, fut) -> None:
        with self._lock:
            self._inflight.discard(fut)

    def _verify_window(self, key, batch: List[_Pending]) -> None:
        """Runs on the stage pool: one :func:`check_group` over the
        window, then splice telemetry and complete every job. Never
        raises — a failure to check at all fails the window's jobs."""
        t0 = time.perf_counter()
        counter = OpCounter()
        try:
            reasons = check_group([p.result for p in batch],
                                  self._bundle_for(*key),
                                  self.soundness_bits, counter)
        except Exception as exc:  # noqa: BLE001 — no verdict = no verified job
            reasons = [f"{type(exc).__name__}: {exc}"] * len(batch)
        share = (time.perf_counter() - t0) / len(batch)
        meta = {
            "stage": "batched",
            "window": len(batch),
            "miller_loops": counter.total("miller_loop"),
            "final_exps": counter.total("final_exp"),
        }
        for pending, reason in zip(batch, reasons):
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
