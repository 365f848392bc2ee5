"""Worker-side execution for the sharded proving pipeline.

A shard worker is a forked process that consumes binary job frames from
a pipe, proves them, and writes binary result frames back — no pickle
in either direction (:mod:`repro.service.wire`).  A worker proves and
serializes; verification is the parent's verify stage
(:mod:`repro.service.batchverify`).  The code here also
backs the service's ``workers=0`` inline mode: both paths share one
:class:`WorkerState` and one :func:`execute_job`, so inline behaviour
is the pool behaviour minus the process boundary.

Warm-state layering (the dedupe the fork-pool design lacked):

* **Setup bundles** (:class:`SetupBundle`) — the deterministic
  per-(curve, circuit) R1CS + trusted setup (and, in the parent, the
  batch verifier over its key).  The parent builds these once before
  forking; every shard worker inherits them copy-on-write instead of
  re-deriving them per process.
* **Prover handles** (:class:`ProverHandle`) — a backend-specific
  prover with its preprocessed MSM checkpoint tables.  These are the
  memory hogs (GZKP Figure 9 budgets them against device memory), so
  each worker keeps them in a bounded, shard-scoped LRU
  (:class:`~repro.msm.context.ScopedContextCache`); a worker whose key
  population exceeds its residency budget rebuilds tables on miss —
  the cost shard affinity exists to avoid.
"""

from __future__ import annotations

import os
import random
import threading
from typing import Dict, Optional, Tuple

from repro.analysis.declass import declassify
from repro.curves.params import CURVES
from repro.errors import ReproError, ValidationError
from repro.msm.context import MsmContextCache, ScopedContextCache
from repro.service import wire
from repro.service.telemetry import Telemetry

__all__ = ["SetupBundle", "ProverHandle", "WorkerState", "execute_job",
           "worker_main", "SETUP_SEED_FMT", "reset_backend_state",
           "resolve_backend", "public_statement"]

#: Seed format for the deterministic per-(curve, circuit) trusted setup.
#: Anyone holding the job's curve and circuit names can re-derive the
#: verifying key and check the returned proof bytes.
SETUP_SEED_FMT = "gzkp-service-setup:{curve}:{circuit}"


def reset_backend_state() -> None:
    """Forked workers inherit the parent's native-kernel load state and
    dispatch tally; drop both so the worker's environment (e.g. a
    ``REPRO_NATIVE=0`` override) is honoured from scratch. Backend
    instances are stateless and ``get_backend`` re-probes the kernels
    on every call, so they need no reset."""
    import repro.backend.native as native_mod
    from repro.backend import coverage

    native_mod.reset_native()
    coverage.reset()


def resolve_backend(requested: Optional[str],
                    telemetry: Telemetry) -> str:
    """The compute backend a job runs on: the name
    :func:`repro.backend.get_backend` resolves the request to, and
    ``python`` for a name it does not know. When that is not the name
    asked for (``numpy`` without its kernels, an unknown name) the job
    records one ``backend-downgrade`` event. Any native loader events
    queued since the last job (compiles, cache hits, self-heals,
    compile failures, a disabled loader) are forwarded into the job's
    telemetry so operators see them without scraping stderr."""
    from repro.backend import get_backend, requested_backend
    from repro.backend.native import drain_kernel_events

    asked = requested_backend(requested)
    try:
        name = get_backend(asked).name
    except ValueError:
        name = "python"
    if name != asked:
        telemetry.record_event("backend-downgrade", f"{asked} -> {name}",
                               requested=asked, used=name)
    for event in drain_kernel_events():
        telemetry.record_event(event.pop("kind"), event.pop("detail"),
                               **event)
    return name


class SetupBundle:
    """Deterministic per-(curve, circuit) artifacts: R1CS, trusted
    setup, and the memoized batch verifier over its key.
    Backend-independent (field elements are plain ints), so one bundle
    serves every backend and survives a fork.  This constructor is the
    one place the seeded setup is derived."""

    def __init__(self, curve_name: str, circuit_name: str):
        from repro.service.registry import get_circuit
        from repro.snark.keys import setup

        self.curve_name = curve_name
        self.circuit_name = circuit_name
        self.curve = CURVES[curve_name]
        self.spec = get_circuit(circuit_name)
        self.r1cs = self.spec.build(self.curve.fr)
        rng = random.Random(SETUP_SEED_FMT.format(curve=curve_name,
                                                  circuit=circuit_name))
        self.keys = setup(self.r1cs, self.curve, rng=rng)
        self._batch_verifiers: Dict[int, object] = {}
        self._batch_lock = threading.Lock()

    def batch_verifier(self, soundness_bits: int = 128):
        """The memoized :class:`~repro.snark.verifier.BatchVerifier`
        for this bundle — shared across checks so its verifying-key
        G2 line precomputation and IC window tables build once."""
        from repro.snark.verifier import BatchVerifier

        with self._batch_lock:
            checker = self._batch_verifiers.get(soundness_bits)
            if checker is None:
                checker = self._batch_verifiers[soundness_bits] = \
                    BatchVerifier(self.keys.verifying_key, self.curve,
                                  soundness_bits=soundness_bits)
            return checker


class ProverHandle:
    """One backend-specific prover over a setup bundle, with its MSM
    checkpoint tables preprocessed.  Building one is the amortized cost
    a warm worker never pays again; ``preprocess_bytes`` is the
    residency footprint the shard cache budgets."""

    def __init__(self, bundle: SetupBundle, backend: str,
                 msm_window: int, msm_interval: int,
                 telemetry: Optional[Telemetry] = None):
        from repro.snark.gzkp_prover import make_gzkp_prover

        self.bundle = bundle
        self.backend = backend
        self.prover = make_gzkp_prover(
            bundle.r1cs, bundle.keys.proving_key, bundle.curve,
            msm_window=msm_window, msm_interval=msm_interval,
            backend=backend, telemetry=telemetry,
        )

    # duck-typed for MsmContextCache's byte budget
    @property
    def preprocess_bytes(self) -> int:
        contexts = getattr(self.prover, "msm_contexts", None)
        return contexts.total_bytes if contexts is not None else 0

    # convenience passthroughs
    @property
    def spec(self):
        return self.bundle.spec

    @property
    def r1cs(self):
        return self.bundle.r1cs

    @property
    def curve(self):
        return self.bundle.curve


class WorkerState:
    """Everything one worker (or the inline path) holds between jobs."""

    def __init__(self, *, shard: int = 0,
                 msm_window: int = 6, msm_interval: int = 2,
                 cache_entries: Optional[int] = None,
                 setups: Optional[Dict[Tuple[str, str], SetupBundle]] = None):
        self.shard = shard
        self.msm_window = msm_window
        self.msm_interval = msm_interval
        # Setup bundles are small and deterministic: shared when
        # inherited from the parent, grown locally on first sight.
        self.setups: Dict[Tuple[str, str], SetupBundle] = (
            dict(setups) if setups else {})
        # Prover handles (checkpoint tables) live in the bounded,
        # shard-scoped residency cache.
        self.handles: ScopedContextCache = MsmContextCache(
            max_entries=cache_entries, max_bytes=None,
        ).scoped(f"shard-{shard}")

    def bundle_for(self, curve_name: str, circuit_name: str) -> SetupBundle:
        key = (curve_name, circuit_name)
        bundle = self.setups.get(key)
        if bundle is None:
            bundle = self.setups[key] = SetupBundle(curve_name, circuit_name)
        return bundle

    def handle_for(self, curve_name: str, circuit_name: str, backend: str,
                   telemetry: Optional[Telemetry] = None,
                   ) -> Tuple[ProverHandle, bool]:
        """(handle, cache_hit) for one job's key, building on miss."""
        key = (curve_name, circuit_name, backend)
        handle = self.handles.get(key)
        if handle is not None:
            return handle, True
        bundle = self.bundle_for(curve_name, circuit_name)
        handle = ProverHandle(bundle, backend, self.msm_window,
                              self.msm_interval, telemetry=telemetry)
        self.handles.put(key, handle)
        return handle, False

    def preload(self, handles: Dict[Tuple[str, str, str], ProverHandle],
                keys) -> None:
        """Adopt parent-built warm handles for this worker's keys (the
        pre-fork dedupe): setups are adopted for every entry, prover
        handles only up to the residency bound."""
        for (curve_name, circuit_name, backend), handle in handles.items():
            self.setups.setdefault((curve_name, circuit_name),
                                   handle.bundle)
            if (curve_name, circuit_name) in keys:
                self.handles.put((curve_name, circuit_name, backend),
                                 handle)


@declassify("the first n_public slots of a full assignment are the "
            "job's public statement — the x the verifier receives in "
            "the clear; slots past them (the actual witness) are never "
            "touched here")
def public_statement(assignment, n_public: int) -> tuple:
    """Project the public inputs out of a full R1CS assignment.

    Slot 0 is the constant ONE wire; slots ``1 .. n_public`` are the
    statement being proven, which Groth16 hands to the verifier in the
    clear.  Witness slots start after the cut and stay inside the
    worker.
    """
    return tuple(assignment[1:1 + n_public])


def execute_job(task: dict, state: WorkerState,
                worker_index: Optional[int] = None) -> dict:
    """Run one job end to end: context lookup/build, prove (POLY +
    MSMs), serialize — one telemetry span tree.  The result is
    unverified; the caller hands it to the verify stage."""
    from repro.backend import coverage as _coverage
    from repro.snark.serialize import serialize_proof

    _coverage.reset()  # per-job tally; anything older is another job's
    telemetry = Telemetry()
    result = {
        "ticket": task.get("ticket", 0),
        "job_id": task["job_id"], "ok": False,
        "curve": task["curve"], "circuit": task["circuit"],
    }
    meta = {"job_id": task["job_id"], "shard": state.shard}
    if worker_index is not None:
        meta["worker"] = worker_index
    with telemetry.span("job", **meta):
        backend = resolve_backend(task.get("backend"), telemetry)
        result["backend"] = backend
        try:
            with telemetry.span("context"):
                handle, hit = state.handle_for(
                    task["curve"], task["circuit"], backend,
                    telemetry=telemetry)
                telemetry.record_event(
                    "prover-context-cache",
                    "hit" if hit else "miss",
                    curve=task["curve"], circuit=task["circuit"],
                    backend=backend, shard=state.shard,
                )
                assignment = handle.spec.assign(handle.curve.fr,
                                                task["witness"])
            proof = handle.prover.prove(assignment, telemetry=telemetry)
            public_inputs = public_statement(assignment,
                                             handle.r1cs.n_public)
            result["public_inputs"] = public_inputs
            with telemetry.span("serialize"):
                blob = serialize_proof(proof, handle.curve)
            result.update(ok=True, proof=blob, verified=False)
        except ReproError as exc:
            result.update(error=f"{type(exc).__name__}: {exc}",
                          error_kind="proof")
        except Exception as exc:
            # A fault below the program's own errors (a kernel's
            # ValueError, a MemoryError) fails this job, not an inline
            # batch; its message may quote witness-derived values, so
            # only the type is reported.
            result.update(error=type(exc).__name__, error_kind="internal")
    cov = _coverage.drain()
    if cov:
        # One event per job: how often each kernel family dispatched
        # to the compiled kernels (batched-dispatch decisions).
        telemetry.record_event("native-coverage", _coverage.summarize(cov),
                               **cov)
    result["telemetry"] = telemetry.to_dict()
    return result


def _task_from_frame(frame: wire.JobFrame) -> dict:
    """Decode a job frame's embedded request into the executor's task
    dict.  Raises ValidationError on any malformation — the parent
    validated the request, so a failure here means boundary corruption
    and is answered with an error frame, never a dead worker."""
    request = wire.decode_request(frame.request)
    return {
        "ticket": frame.ticket, "job_id": frame.job_id,
        "curve": request.curve, "circuit": request.circuit,
        "witness": request.witness, "backend": request.backend,
    }


def worker_main(index: int, shard: int, task_fd: int, result_fd: int,
                cfg: dict, setups=None, warm_handles=None) -> None:
    """Shard-worker process entry point: a frame loop over the task
    pipe until shutdown.  A job can fail; the worker must not."""
    for fd in cfg.get("close_fds", ()):
        # parent-side pipe ends inherited across the fork: close them so
        # EOF propagates when either side goes away
        try:
            os.close(fd)
        except OSError:
            pass
    env = cfg.get("env")
    if env:
        os.environ.update(env)
    reset_backend_state()
    state = WorkerState(
        shard=shard,
        msm_window=cfg.get("msm_window", 6),
        msm_interval=cfg.get("msm_interval", 2),
        cache_entries=cfg.get("cache_entries"),
        setups=setups,
    )
    if warm_handles:
        # With an env override the worker's backends may resolve
        # differently from the parent's; per-job resolution rebuilds on
        # mismatch, so adopting is still safe.
        state.preload(warm_handles, set(cfg.get("shard_keys") or []))
    reader = wire.FrameReader(task_fd)
    while True:
        frame_bytes = reader.next_frame()
        if frame_bytes is None:
            break       # parent closed the pipe
        try:
            kind = wire.frame_kind(frame_bytes)
            if kind == wire.CONTROL_MAGIC:
                if wire.decode_control_frame(frame_bytes) == wire.OP_SHUTDOWN:
                    break
                continue
            frame = wire.decode_job_frame(frame_bytes)
            task = _task_from_frame(frame)
        except ValidationError as exc:
            wire.write_frame(result_fd, wire.encode_result_frame({
                "ticket": 0, "ok": False, "job_id": "?",
                "curve": "?", "circuit": "?",
                "error": f"bad frame: {exc}", "error_kind": "wire",
                "worker": index,
            }))
            continue
        try:
            result = execute_job(task, state, worker_index=index)
        except BaseException as exc:  # noqa: BLE001 — worker stays alive
            result = {
                "ticket": frame.ticket, "job_id": frame.job_id,
                "ok": False, "curve": task["curve"],
                "circuit": task["circuit"],
                "error": f"{type(exc).__name__}: {exc}",
                "error_kind": "internal", "telemetry": {},
            }
        result["worker"] = index
        wire.write_frame(result_fd, wire.encode_result_frame(result))
    os.close(result_fd)
