"""The async sharded pipeline behind :class:`ProvingService`.

Layering (ingest -> shard dispatch -> worker -> verify stage):

* **Ingest** — an asyncio event loop on a dedicated thread owns one
  bounded queue per shard.  Submission is thread-safe; a full queue
  either applies backpressure (``wait=True``: the submitter blocks
  until space) or rejects with
  :class:`~repro.errors.ServiceOverloadedError` carrying a
  ``retry_after`` priced from the shard's smoothed job time.
* **Shard dispatch** — jobs are keyed by (curve, circuit) and routed
  through a sticky :class:`~repro.service.shard.ShardMap`, so a key's
  jobs always reach the worker(s) holding its warm prover state.
* **Workers** — forked processes fed binary job frames over pipes and
  answering with binary result frames (:mod:`repro.service.wire`); the
  witness never crosses the boundary as a pickle.  Each worker has one
  dispatcher coroutine enforcing the per-job timeout; on expiry (or
  worker death) the process is terminated and respawned and the job
  retried up to ``retries`` more times on its shard.
* **Verify stage** — workers prove and serialize; they never touch a
  verifier.  Each ok result is parked in the parent-side group-commit
  stage (:class:`~repro.service.batchverify.BatchVerifyStage`) *after*
  the worker round-trip, so the prover pipeline is never serialized
  behind pairing checks (the fork-pool design spent ~70% of its wall
  clock there): whatever is parked for a (curve, circuit) when a
  verify thread is free is checked as one random-linear-combination
  batch — N + 3 Miller loops and one final exponentiation for N
  proofs, the exact 4 + 1 single check for a lone proof — with
  bisection isolating any offending job.  The verify span is spliced
  back into the job's exported span tree, keeping the
  phases-tile-the-wall telemetry invariant.  Stage callbacks marshal back to the loop thread
  (:meth:`Pipeline._complete`) before shard stats or futures are
  touched.  Without a stage (``verify="off"``) results complete as they
  arrive.

The pipeline reports per-shard utilization
(:class:`~repro.service.shard.ShardStats`): queue-depth high-water
mark, context-cache hits/misses, per-phase seconds — the
ZKProphet-style occupancy attribution, per shard instead of per kernel.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

import multiprocessing as mp

from repro.errors import ServiceError, ServiceOverloadedError
from repro.service import wire
from repro.service.shard import ShardMap, ShardStats
from repro.service.telemetry import phase_breakdown
from repro.service.worker import SetupBundle, worker_main

__all__ = ["Pipeline", "JobItem"]

_DEAD = object()        # reader sentinel: worker's result pipe closed
_SHUTDOWN = object()    # queue sentinel: dispatcher should exit


class JobItem:
    """One submitted job riding through the pipeline."""

    __slots__ = ("job_id", "curve", "circuit", "shard", "request",
                 "future", "attempts", "submitted_at")

    def __init__(self, job_id: str, curve: str, circuit: str, shard: int,
                 request: bytes):
        import concurrent.futures

        self.job_id = job_id
        self.curve = curve
        self.circuit = circuit
        self.shard = shard
        self.request = request
        self.future = concurrent.futures.Future()
        self.attempts = 1
        self.submitted_at = time.monotonic()


class _WorkerProc:
    """Parent-side handle for one forked shard worker: its process,
    task-pipe write end, and a reader thread draining result frames
    into an asyncio queue on the pipeline loop."""

    def __init__(self, ctx, loop: asyncio.AbstractEventLoop, index: int,
                 shard: int, cfg: dict, setups, warm_handles):
        self.index = index
        self.shard = shard
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        self.task_fd = task_w
        cfg = dict(cfg, close_fds=(task_w, result_r))
        self.process = ctx.Process(
            target=worker_main,
            args=(index, shard, task_r, result_w, cfg,
                  setups, warm_handles),
            daemon=True,
        )
        self.process.start()
        # close the child's ends immediately so (a) later forks do not
        # inherit them and (b) the reader sees EOF when the child dies
        os.close(task_r)
        os.close(result_w)
        self.results: asyncio.Queue = asyncio.Queue()
        self._loop = loop
        self._reader = threading.Thread(
            target=self._read_results, args=(result_r,),
            name=f"svc-reader-w{index}", daemon=True)
        self._reader.start()

    def _read_results(self, fd: int) -> None:
        reader = wire.FrameReader(fd)
        try:
            while True:
                frame = reader.next_frame()
                if frame is None:
                    break
                try:
                    raw = wire.decode_result_frame(frame)
                except Exception:  # noqa: BLE001 — corrupt frame = dead worker
                    break
                self._deliver(raw)
        finally:
            self._deliver(_DEAD)
            try:
                os.close(fd)
            except OSError:  # pragma: no cover
                pass

    def _deliver(self, item) -> None:
        try:
            self._loop.call_soon_threadsafe(self.results.put_nowait, item)
        except RuntimeError:  # pragma: no cover — loop already closed
            pass

    def send(self, frame: bytes) -> None:
        wire.write_frame(self.task_fd, frame)

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)
        try:
            os.close(self.task_fd)
        except OSError:
            pass

    def shutdown(self) -> None:
        """Graceful stop: control frame, then close the task pipe."""
        try:
            self.send(wire.encode_control_frame(wire.OP_SHUTDOWN))
        except OSError:
            pass
        try:
            os.close(self.task_fd)
        except OSError:
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover
            self.process.terminate()
            self.process.join(timeout=5)


class _WorkerSlot:
    """Mutable binding of one dispatcher to its (respawnable) worker."""

    __slots__ = ("index", "shard", "proc")

    def __init__(self, index: int, shard: int, proc: _WorkerProc):
        self.index = index
        self.shard = shard
        self.proc = proc


class Pipeline:
    """The running async pipeline: loop thread, shard queues,
    dispatchers and worker processes, feeding the verify stage."""

    def __init__(self, *, workers: int, shards: int, queue_depth: int,
                 timeout: Optional[float], retries: int,
                 worker_cfg: dict, setups: Dict[Tuple[str, str], SetupBundle],
                 warm_handles: dict, shard_map: ShardMap,
                 wrap_result, batch_stage=None):
        if "fork" not in mp.get_all_start_methods():
            raise ServiceError(
                "the pooled proving service requires the fork start "
                "method (linux); use workers=0 inline mode")
        self._ctx = mp.get_context("fork")
        self.timeout = timeout
        self.retries = retries
        self._worker_cfg = worker_cfg
        self._setups = setups
        self._warm_handles = warm_handles
        self.shard_map = shard_map
        self._wrap_result = wrap_result
        self._batch_stage = batch_stage
        self.stats: List[ShardStats] = [ShardStats(s) for s in range(shards)]
        self._ticket = 0
        self._closing = False

        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run_loop,
                                        name="svc-ingest", daemon=True)
        self._thread.start()

        # bounded per-shard ingest queues must be created on the loop
        fut = asyncio.run_coroutine_threadsafe(
            self._bootstrap(workers, shards, queue_depth), self._loop)
        fut.result()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()
        # drain callbacks scheduled right before stop
        self._loop.run_until_complete(asyncio.sleep(0))
        self._loop.close()

    async def _bootstrap(self, workers: int, shards: int,
                         queue_depth: int) -> None:
        self._queues = [asyncio.Queue(maxsize=queue_depth)
                        for _ in range(shards)]
        self._slots = []
        self._dispatchers = []
        for index in range(workers):
            shard = index % shards
            slot = _WorkerSlot(index, shard, self._spawn(index, shard))
            self._slots.append(slot)
            self._dispatchers.append(
                self._loop.create_task(self._dispatch(slot)))

    def _spawn(self, index: int, shard: int) -> _WorkerProc:
        cfg = dict(self._worker_cfg)
        cfg["shard_keys"] = self.shard_map.keys_for(shard)
        return _WorkerProc(self._ctx, self._loop, index, shard, cfg,
                           self._setups, self._warm_handles)

    def _next_ticket(self) -> int:
        self._ticket += 1
        return self._ticket

    # -- ingest ------------------------------------------------------------------

    def submit(self, item: JobItem, wait: bool = True) -> None:
        """Enqueue one job from any thread.  ``wait=False`` raises
        ServiceOverloadedError when the shard queue is full."""
        asyncio.run_coroutine_threadsafe(
            self._enqueue(item, wait), self._loop).result()

    async def _enqueue(self, item: JobItem, wait: bool) -> None:
        queue = self._queues[item.shard]
        stats = self.stats[item.shard]
        if wait:
            await queue.put(item)
        else:
            try:
                queue.put_nowait(item)
            except asyncio.QueueFull:
                stats.note_rejection()
                raise ServiceOverloadedError(
                    item.shard, queue.qsize(),
                    stats.retry_after(queue.qsize() + 1)) from None
        stats.note_depth(queue.qsize())

    # -- dispatch ----------------------------------------------------------------

    async def _dispatch(self, slot: _WorkerSlot) -> None:
        queue = self._queues[slot.shard]
        while True:
            item = await queue.get()
            if item is _SHUTDOWN:
                break
            await self._run_job(slot, item)

    async def _run_job(self, slot: _WorkerSlot, item: JobItem) -> None:
        while True:
            worker = slot.proc
            ticket = self._next_ticket()
            frame = wire.encode_job_frame(ticket, item.shard, item.job_id,
                                          item.request)
            failure = "died"
            try:
                worker.send(frame)
                raw = await asyncio.wait_for(
                    self._next_result(worker, ticket), self.timeout)
                if raw is not _DEAD:
                    self._finalize(item, raw)
                    return
            except asyncio.TimeoutError:
                failure = "timeout"
            except OSError:
                failure = "died"
            # timeout or death: terminate, respawn, maybe retry
            worker.kill()
            slot.proc = self._spawn(slot.index, slot.shard)
            if item.attempts <= self.retries:
                item.attempts += 1
                continue
            reason = ("timed out" if failure == "timeout"
                      else "worker process died")
            result = self._wrap_result({
                "job_id": item.job_id, "ok": False,
                "curve": item.curve, "circuit": item.circuit,
                "error": (f"{reason} after {item.attempts} attempt(s) "
                          f"of {self.timeout}s"),
                "error_kind": ("timeout" if failure == "timeout"
                               else "internal"),
                "worker": slot.index, "telemetry": {},
            }, item.attempts)
            self.stats[item.shard].note_result(False, 0.0, {}, [])
            item.future.set_result(result)
            return

    async def _next_result(self, worker: _WorkerProc, ticket: int):
        while True:
            raw = await worker.results.get()
            if raw is _DEAD or raw.get("ticket") == ticket:
                return raw
            # stale or wire-error frame from a superseded attempt: drop

    # -- verify stage ------------------------------------------------------------

    def _finalize(self, item: JobItem, raw: dict) -> None:
        result = self._wrap_result(raw, item.attempts)
        if self._batch_stage is not None and result.ok:
            # Park the result in the verify stage; its completion
            # callback runs on a stage pool thread, so marshal back to
            # the loop before touching shard stats or the future.
            self._batch_stage.add(
                result,
                lambda res: self._loop.call_soon_threadsafe(
                    self._complete, item, res))
            return
        self._complete(item, result)

    def _complete(self, item: JobItem, result) -> None:
        """Finish one job — always on the pipeline loop thread, where
        :class:`~repro.service.shard.ShardStats` may be touched
        unlocked."""
        span = result.job_span
        self.stats[item.shard].note_result(
            result.ok, result.wall_seconds(),
            phase_breakdown(span) if span else {},
            (result.telemetry or {}).get("events", []))
        item.future.set_result(result)

    # -- shutdown ----------------------------------------------------------------

    def close(self) -> None:
        if self._closing:
            return
        self._closing = True
        try:
            asyncio.run_coroutine_threadsafe(
                self._shutdown(), self._loop).result(timeout=60)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)

    async def _shutdown(self) -> None:
        for slot in self._slots:
            self._queues[slot.shard].put_nowait(_SHUTDOWN)
        if self._dispatchers:
            await asyncio.gather(*self._dispatchers,
                                 return_exceptions=True)
        if self._batch_stage is not None:
            # wait out the verify stage so every accepted job's future
            # resolves before the loop stops
            await self._loop.run_in_executor(None, self._batch_stage.drain)
            await asyncio.sleep(0)  # let marshalled completions land
        for slot in self._slots:
            await self._loop.run_in_executor(None, slot.proc.shutdown)

    # -- introspection -----------------------------------------------------------

    def shard_stats(self) -> List[dict]:
        return [s.to_dict() for s in self.stats]

    def queue_depths(self) -> List[int]:
        return [q.qsize() for q in self._queues]
