"""The concurrent proving service.

GZKP's evaluation (§6) runs *batches* of proofs — Table 4's workloads
are thousands of Zcash transactions, each one proof. This module is the
serving layer for that shape of work, now an async sharded pipeline
(:mod:`repro.service.pipeline`):

* **ingest** — thread-safe submission into bounded per-shard queues;
  a full queue either blocks the submitter (``wait=True``) or rejects
  with :class:`~repro.errors.ServiceOverloadedError` carrying a
  ``retry_after`` hint (``wait=False``);
* **shard dispatch** — jobs route by (curve, circuit) key through a
  sticky :class:`~repro.service.shard.ShardMap`, so each shard's
  workers keep their prover-context caches hot for their own key
  population (GZKP §4.1: preprocessing amortizes only if the
  table-owning worker sees the next proof for its circuit);
* **workers** — forked processes fed strict binary frames over pipes
  (:mod:`repro.service.wire`); witness bytes cross the boundary in the
  request's wire form, never as a pickle;
* **verify** — workers only prove; the parent's verify stage
  (:mod:`repro.service.verify`) checks each finished proof with one
  single-proof verify on its own threads while the workers move on to
  the next job (``verify="batched"``, the default).  ``"off"`` skips
  verification.

Parallelism is across jobs only: ``workers`` processes, the multi-GPU
batch mode.  Within a job the five Groth16 MSMs run one after the
other, and inline jobs (``workers=0``) run one at a time.

Reliability model:

* every job is validated in the parent before it is queued — bad
  curves, unknown circuits, wrong witness arity and out-of-range
  scalars are rejected as per-job errors, never sent to a worker;
* a worker never dies on a job: any exception becomes an error result;
* each job attempt has an optional wall-clock ``timeout``; on expiry
  the worker is terminated and respawned and the job retried up to
  ``retries`` more times before failing;
* when the requested compute backend resolves to another one (an
  unknown name, or ``numpy`` without its native C kernels) the job
  still runs — on the python backend — and one ``backend-downgrade``
  event is recorded in the job's telemetry.

Setups are deterministic per (curve, circuit): both the parent and any
external verifier can re-derive the verifying key from the public seed
(:func:`setup_for`), so returned proof bytes are independently
checkable.  The parent builds each warm key's setup once before
forking; shard workers inherit it copy-on-write instead of re-deriving
it per process.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.curves.params import CURVES
from repro.errors import ServiceError, ValidationError
from repro.msm.gzkp import check_override
from repro.service import wire
from repro.service.shard import ShardMap, ShardStats
from repro.service.telemetry import Telemetry, phase_breakdown
from repro.service.validation import validate_job_inputs
from repro.service.worker import (SETUP_SEED_FMT, ProverHandle, SetupBundle,
                                  WorkerState, execute_job, resolve_backend)

__all__ = ["ProofJob", "JobResult", "ProvingService", "setup_for",
           "SETUP_SEED_FMT"]

VERIFY_MODES = ("batched", "off")


def setup_for(curve_name: str, circuit_name: str):
    """(r1cs, Groth16Setup) for one service circuit — the same setup
    every worker uses (it *is* a :class:`SetupBundle`'s), re-derivable
    by any party from the names."""
    bundle = SetupBundle(curve_name, circuit_name)
    return bundle.r1cs, bundle.keys


@dataclass(frozen=True)
class ProofJob:
    """One unit of service work: prove ``circuit`` over ``curve`` for
    the supplied witness values."""

    curve: str
    circuit: str
    witness: Tuple[int, ...]
    backend: Optional[str] = None
    job_id: Optional[str] = None

    @classmethod
    def from_request_bytes(cls, data: bytes,
                           job_id: Optional[str] = None) -> "ProofJob":
        """Decode a serialized proof request (see
        :mod:`repro.service.wire`) into a job."""
        req = wire.decode_request(data)
        return cls(curve=req.curve, circuit=req.circuit,
                   witness=tuple(req.witness), backend=req.backend,
                   job_id=job_id)

    def request_bytes(self) -> bytes:
        """This job in its wire form — what crosses the worker pipe."""
        return wire.encode_request(self.curve, self.circuit,
                                   self.witness, self.backend)


@dataclass
class JobResult:
    """Outcome of one job: either serialized verified proof bytes or a
    structured error, plus the worker's telemetry export."""

    job_id: str
    ok: bool
    curve: str
    circuit: str
    proof_bytes: Optional[bytes] = None
    public_inputs: Tuple[int, ...] = ()
    verified: bool = False
    backend: Optional[str] = None
    error: Optional[str] = None
    error_kind: Optional[str] = None     # validation | proof | verify |
    #                                      timeout | internal | wire
    attempts: int = 0
    worker: Optional[int] = None
    telemetry: dict = field(default_factory=dict)

    @property
    def job_span(self) -> Optional[dict]:
        spans = self.telemetry.get("spans") or []
        return spans[0] if spans else None

    @property
    def shard(self) -> Optional[int]:
        span = self.job_span
        return span["meta"].get("shard") if span else None

    def phase_seconds(self) -> Dict[str, float]:
        """Top-level per-phase wall-clock breakdown (setup / POLY / MSM
        / assemble / verify / serialize); sums to ~ the job wall."""
        span = self.job_span
        return phase_breakdown(span) if span else {}

    def wall_seconds(self) -> float:
        span = self.job_span
        return span["seconds"] if span else 0.0

    def downgrades(self) -> List[dict]:
        return [e for e in self.telemetry.get("events", [])
                if "downgrade" in e.get("kind", "")]


class ProvingService:
    """A sharded pool of proving workers consuming proof jobs.

    ``workers=0`` runs jobs inline in the calling process (no pool, no
    queues, no timeouts) — the mode benchmarks use for a clean
    single-process baseline; its prover contexts persist across
    batches, so amortization behaves like a long-lived worker. ``env``
    is applied in each worker before any proving (e.g.
    ``{"REPRO_NATIVE": "0"}`` to run the python floor).

    Pipeline knobs (pooled mode):

    * ``shards`` — shard count for (curve, circuit) affinity routing;
      defaults to ``workers``; must be in [1, workers].  Worker ``i``
      serves shard ``i % shards``.
    * ``queue_depth`` — per-shard ingest queue bound.  ``submit(...,
      wait=False)`` raises :class:`ServiceOverloadedError` (with a
      ``retry_after`` priced from the shard's smoothed job time) once
      the shard queue is full; ``wait=True`` blocks instead.
    * ``verify`` — ``"batched"`` (default) verifies each finished
      proof in the parent, off the workers' critical path: one
      single-proof check, 4 Miller loops and 1 final exponentiation,
      on the verify stage's threads (:mod:`repro.service.verify`; the
      name is kept from when the stage checked groups);
      ``"off"`` skips verification (results have ``verified=False``).
    * ``worker_cache`` — bound on each worker's resident prover
      handles (the MSM checkpoint tables; GZKP Figure 9's
      preprocessing-memory budget).  ``None`` means unbounded.

    ``warm`` is an iterable of (curve, circuit) or (curve, circuit,
    backend) combinations to pre-build **in the parent, before
    forking**: setup derivation and MSM checkpoint preprocessing happen
    once and every shard worker inherits the result copy-on-write, so
    even job 1 runs the amortized hot path. Entries are validated
    here — an unknown curve or circuit raises :class:`ServiceError`
    immediately rather than failing inside every worker.
    """

    def __init__(self, workers: int = 2, parallel_msm: bool = False,
                 timeout: Optional[float] = None, retries: int = 1,
                 msm_window: int = 6, msm_interval: int = 2,
                 env: Optional[dict] = None,
                 warm: Optional[Sequence] = None,
                 shards: Optional[int] = None,
                 queue_depth: int = 16,
                 verify: str = "batched",
                 worker_cache: Optional[int] = None):
        if workers < 0:
            raise ServiceError("workers must be >= 0")
        if retries < 0:
            raise ServiceError("retries must be >= 0")
        if verify not in VERIFY_MODES:
            raise ServiceError(
                f"verify must be one of {VERIFY_MODES}, got {verify!r}")
        if queue_depth < 1:
            raise ServiceError("queue_depth must be >= 1")
        if shards is None:
            shards = workers or 1
        if workers and not (1 <= shards <= workers):
            raise ServiceError(
                f"shards must be in [1, workers]; got shards={shards} "
                f"workers={workers}")
        if worker_cache is not None and worker_cache < 1:
            raise ServiceError("worker_cache must be >= 1 (or None)")
        check_override(msm_window, msm_interval, ServiceError)
        # ``parallel_msm`` is accepted and unused: the frozen perf ledger
        # (benchmarks/ledger/stations.py) still passes it.
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.msm_window = msm_window
        self.msm_interval = msm_interval
        self.env = dict(env) if env else None
        self.warm = self._validate_warm(warm)
        self.shards = shards
        self.queue_depth = queue_depth
        self.verify = verify
        self.worker_cache = worker_cache

        self._job_seq = 0
        self._seq_lock = threading.Lock()
        self._setups: Dict[Tuple[str, str], SetupBundle] = {}
        self._setup_lock = threading.Lock()
        self._pipeline = None
        self._inline_state: Optional[WorkerState] = None
        # inline mode is a worker minus the process boundary, and a
        # worker proves one job at a time
        self._inline_lock = threading.Lock()
        self._inline_stats = ShardStats(0)
        self._inline_stats_lock = threading.Lock()
        self._verify_stage = None
        if verify == "batched":
            from repro.service.verify import VerifyStage

            self._verify_stage = VerifyStage(self._bundle_for)

        if workers:
            self._start_pipeline()
        else:
            self._inline_state = WorkerState(
                shard=0, msm_window=msm_window, msm_interval=msm_interval,
                cache_entries=worker_cache,
            )
            self._inline_state.setups = self._setups
            for key, handle in self._build_warm_handles().items():
                self._inline_state.handles.put(key, handle)

    # -- construction helpers -----------------------------------------------------

    @staticmethod
    def _validate_warm(warm) -> tuple:
        if not warm:
            return ()
        from repro.service.registry import get_circuit

        entries = []
        for raw in warm:
            entry = tuple(raw)
            if len(entry) not in (2, 3):
                raise ServiceError(
                    "warm entries must be (curve, circuit) or "
                    f"(curve, circuit, backend), got {raw!r}"
                )
            if entry[0] not in CURVES:
                raise ServiceError(
                    f"warm entry references unknown curve {entry[0]!r}"
                )
            try:
                get_circuit(entry[1])
            except ValidationError as exc:
                raise ServiceError(f"warm entry invalid: {exc}") from exc
            entries.append(entry)
        return tuple(entries)

    def _build_warm_handles(self) -> Dict[tuple, ProverHandle]:
        """Pre-build each warm key's setup + prover (checkpoint tables
        included) exactly once in this process.  In pooled mode this
        runs before the fork, so workers inherit instead of rebuild."""
        self._warm_handles: Dict[tuple, ProverHandle] = {}
        for entry in self.warm:
            requested = entry[2] if len(entry) > 2 else None
            backend = resolve_backend(requested, Telemetry())
            key = (entry[0], entry[1], backend)
            if key in self._warm_handles:
                continue
            bundle = self._bundle_for(entry[0], entry[1])
            self._warm_handles[key] = ProverHandle(
                bundle, backend, self.msm_window, self.msm_interval)
        return self._warm_handles

    def _start_pipeline(self) -> None:
        from repro.service.pipeline import Pipeline

        shard_map = ShardMap(self.shards)
        self._build_warm_handles()
        for entry in self.warm:
            shard_map.assign((entry[0], entry[1]))
        worker_cfg = {
            "msm_window": self.msm_window,
            "msm_interval": self.msm_interval,
            "cache_entries": self.worker_cache,
            "env": self.env,
        }
        self._pipeline = Pipeline(
            workers=self.workers, shards=self.shards,
            queue_depth=self.queue_depth, timeout=self.timeout,
            retries=self.retries, worker_cfg=worker_cfg,
            setups=self._setups, warm_handles=self._warm_handles,
            shard_map=shard_map, wrap_result=self._wrap,
            verify_stage=self._verify_stage,
        )

    def _bundle_for(self, curve_name: str, circuit_name: str) -> SetupBundle:
        key = (curve_name, circuit_name)
        with self._setup_lock:
            bundle = self._setups.get(key)
            if bundle is None:
                bundle = self._setups[key] = SetupBundle(curve_name,
                                                         circuit_name)
            return bundle

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        if self._pipeline is not None:
            self._pipeline.close()
            self._pipeline = None
        if self._verify_stage is not None:
            self._verify_stage.close()
            self._verify_stage = None

    def __enter__(self) -> "ProvingService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- job intake -------------------------------------------------------------

    def _as_job(self, item) -> Tuple[ProofJob, Optional[bytes]]:
        """Normalize one submission; returns the decoded job plus its
        original wire bytes when the caller already sent wire form (the
        bytes are forwarded to the worker verbatim — zero-copy)."""
        if isinstance(item, ProofJob):
            return item, None
        if isinstance(item, (bytes, bytearray, memoryview)):
            raw = bytes(item)
            return ProofJob.from_request_bytes(raw), raw
        raise ValidationError(
            f"jobs must be ProofJob or request bytes, got "
            f"{type(item).__name__}"
        )

    def _next_job_id(self) -> str:
        with self._seq_lock:
            self._job_seq += 1
            return f"job-{self._job_seq}"

    def submit(self, item, wait: bool = True):
        """Submit one job (a :class:`ProofJob` or raw request bytes);
        returns a ``concurrent.futures.Future`` resolving to its
        :class:`JobResult`.

        ``wait=False`` applies backpressure: if the job's shard queue is
        full, raises :class:`~repro.errors.ServiceOverloadedError`
        (carrying ``retry_after`` seconds) instead of blocking.
        Validation failures never raise — they resolve the future with
        an ``error_kind="validation"`` result, like :meth:`prove_batch`.
        """
        import concurrent.futures

        try:
            job, raw = self._as_job(item)
            if job.job_id is None:
                job = ProofJob(job.curve, job.circuit, job.witness,
                               job.backend, self._next_job_id())
            validate_job_inputs(job.curve, job.circuit, job.witness)
        except ValidationError as exc:
            future = concurrent.futures.Future()
            future.set_result(JobResult(
                job_id=getattr(item, "job_id", None) or "invalid",
                ok=False,
                curve=getattr(item, "curve", "?"),
                circuit=getattr(item, "circuit", "?"),
                error=str(exc), error_kind="validation",
            ))
            return future

        if not self.workers:
            future = concurrent.futures.Future()
            result = self._run_one_inline(job)
            if self._verify_stage is not None and result.ok:
                # the future resolves once the verify stage has
                # checked the proof
                self._verify_stage.add(
                    result,
                    lambda res, fut=future: self._finish_inline(fut, res))
            else:
                self._note_inline(result)
                future.set_result(result)
            return future

        from repro.service.pipeline import JobItem

        shard = self._pipeline.shard_map.assign((job.curve, job.circuit))
        item_ = JobItem(job.job_id, job.curve, job.circuit, shard,
                        raw if raw is not None else job.request_bytes())
        self._pipeline.submit(item_, wait=wait)
        return item_.future

    # -- the batch loop ---------------------------------------------------------

    def prove_batch(self, jobs: Sequence) -> List[JobResult]:
        """Prove a batch. Accepts :class:`ProofJob` objects and/or raw
        request byte strings; returns one :class:`JobResult` per job,
        in submission order."""
        futures = [self.submit(item, wait=True) for item in jobs]
        return [f.result() for f in futures]

    def _note_inline(self, result: JobResult) -> None:
        span = result.job_span
        with self._inline_stats_lock:
            self._inline_stats.note_result(
                result.ok, result.wall_seconds(),
                phase_breakdown(span) if span else {},
                (result.telemetry or {}).get("events", []))

    def _finish_inline(self, future, result: JobResult) -> None:
        """Completion callback for the inline verify — runs on a stage
        pool thread, hence the stats lock."""
        self._note_inline(result)
        future.set_result(result)

    def _run_one_inline(self, job: ProofJob) -> JobResult:
        # Contexts persist on the service: later batches hit warm provers.
        task = {
            "job_id": job.job_id, "curve": job.curve,
            "circuit": job.circuit, "witness": tuple(job.witness),
            "backend": job.backend,
        }
        with self._inline_lock:
            raw = execute_job(task, self._inline_state)
        return self._wrap(raw, 1)

    # -- introspection ----------------------------------------------------------

    def shard_stats(self) -> List[dict]:
        """Per-shard utilization rollup: queue-depth high-water mark,
        prover-context cache hits/misses, per-phase seconds, smoothed
        job time (see :class:`~repro.service.shard.ShardStats`)."""
        if self._pipeline is not None:
            return self._pipeline.shard_stats()
        return [self._inline_stats.to_dict()]

    def shard_of(self, curve: str, circuit: str) -> int:
        """The shard that owns (curve, circuit) — assigning it now if
        the key has never been seen (inline mode is one shard)."""
        if self._pipeline is not None:
            return self._pipeline.shard_map.assign((curve, circuit))
        return 0

    @staticmethod
    def _wrap(raw: dict, attempts: int) -> JobResult:
        return JobResult(
            job_id=raw["job_id"], ok=raw["ok"],
            curve=raw["curve"], circuit=raw["circuit"],
            proof_bytes=raw.get("proof"),
            public_inputs=tuple(raw.get("public_inputs", ())),
            verified=raw.get("verified", False),
            backend=raw.get("backend"),
            error=raw.get("error"), error_kind=raw.get("error_kind"),
            attempts=attempts, worker=raw.get("worker"),
            telemetry=raw.get("telemetry") or {},
        )
