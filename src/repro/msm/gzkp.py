"""GZKP's MSM module: cross-window computation consolidation (§4.1).

The design, reproduced in full:

**Consolidation.** Sub-MSM partitioning is discarded. Every (scalar,
window) pair whose digit is d contributes its *weighted* point
``2^(t*k) * P_i`` to the single global bucket ``B_d`` — merging across
both sub-MSMs and windows. The window-reduction step disappears; one
bucket-reduction ``sum j * B_j`` (parallel-prefix style) finishes the MSM.

**Preprocessing & checkpoints (Algorithm 1).** Weighted points are
precomputed (the point vector is fixed at setup). Full preprocessing
(interval M = 1) stores every window's weighting — over 5 GB at scale
2^21/381-bit — so GZKP stores only every M-th window's weighting
(*checkpoints*) and recovers in-between weights with at most (M-1)*k
doublings. Two faithful realisations are provided:

* :meth:`GzkpMsm.compute_literal` — Algorithm 1 exactly as printed:
  per-entry doubling chains from the nearest checkpoint.
* :meth:`GzkpMsm.compute` — the *residual sub-bucket* realisation: an
  entry at window t = m*M + w lands in sub-bucket (d, w) using checkpoint
  m's point; after merging, ``B_d = sum_w 2^(w*k) B_{d,w}`` costs only
  (M-1) * (k doublings + 1 add) per bucket — the amortisation that keeps
  the measured MSM time flat while Figure 9's memory plateaus. Both give
  identical results (tested); the cost model prices the residual form.

**Workload management (§4.2).** Buckets are grouped by load, scheduled
heaviest-first, and warps are allocated proportionally to bucket size —
:mod:`repro.msm.scheduling` implements the grouping/mapping and supplies
the utilisation this plan charges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.curves.weierstrass import AffinePoint, CurveGroup
from repro.errors import MsmError
from repro.ff.opcount import OpCounter
from repro.gpusim import cost
from repro.gpusim.trace import DFP_BACKEND, Trace
from repro.gpusim.device import GpuDevice
from repro.msm.common import (
    affine_point_bytes,
    coord_bits,
    counting,
    jacobian_point_bytes,
)
from repro.msm.context import MsmContext, check_table
from repro.msm.naive import check_msm_inputs
from repro.msm.pippenger import bucket_reduce
from repro.msm.windows import DigitStats, num_windows, scalar_digits

__all__ = ["GzkpMsmConfig", "GzkpMsm", "check_override"]

#: window sizes the profiling search sweeps (§4.1); its ceiling is also
#: the largest ``window=`` override accepted
WINDOW_RANGE = range(6, 25)


@dataclass(frozen=True)
class GzkpMsmConfig:
    """Resolved (window k, checkpoint interval M) for one MSM scale."""

    window: int
    interval: int          # M: checkpoint every M windows
    n_windows: int
    preprocess_bytes: int  # checkpoint table footprint


def check_override(window: Optional[int], interval: Optional[int],
                   error=MsmError) -> None:
    """Refuse — as ``error`` — an explicit (k, M) no engine can run: a
    window outside ``1 .. WINDOW_RANGE[-1]`` or a checkpoint interval
    below 1. ``None`` leaves the choice to :meth:`GzkpMsm.configure`."""
    if window is not None and not 1 <= window <= WINDOW_RANGE[-1]:
        raise error(
            f"MSM window must be in [1, {WINDOW_RANGE[-1]}], got {window}")
    if interval is not None and interval < 1:
        raise error(f"MSM checkpoint interval must be >= 1, got {interval}")


class GzkpMsm:
    """GZKP MSM: functional execution + cost plan."""

    def __init__(self, group: CurveGroup, scalar_bits: int, device: GpuDevice,
                 window: Optional[int] = None,
                 interval: Optional[int] = None,
                 fq_mul_factor: float = 1.0,
                 load_balanced: bool = True,
                 use_dfp_library: bool = True,
                 backend=None, tuner=None):
        # ``tuner`` is accepted and unused: the frozen perf ledger
        # (benchmarks/ledger/stations.py) still passes one.
        check_override(window, interval)
        self.group = group
        self.scalar_bits = scalar_bits
        self.device = device
        self._window_override = window
        self._interval_override = interval
        self.fq_mul_factor = fq_mul_factor
        #: disable for the "GZKP-no-LB" breakdown variant (Figure 10)
        self.load_balanced = load_balanced
        #: disable for the pre-library breakdown variants (Figure 10)
        self.use_dfp_library = use_dfp_library
        #: compute backend (name, instance or None = $REPRO_BACKEND)
        self.backend = backend
        #: memoized configure(n) results — the k=6..24 profiling search
        #: runs once per MSM scale, not once per call (§4.1 runs it
        #: "once per application")
        self._cfg_cache: dict = {}

    def _compute_backend(self):
        from repro.backend import get_backend

        return get_backend(self.backend)

    # -- configuration --------------------------------------------------------------

    def configure(self, n: int) -> GzkpMsmConfig:
        """The one place (k, M) is decided. The constructor's
        ``window=``/``interval=`` override wins; otherwise this is the
        paper's profiling-based window configuration (§4.1): evaluate
        the full cost model over candidate window sizes k — each with
        the smallest checkpoint interval M whose table fits the
        preprocessing memory budget — and keep the fastest. Searching k
        alone is exhaustive: a sparser table than the budget demands
        only adds residual-fold doublings, so modeled time never falls
        as M grows (DESIGN.md §9; the tests pin both that and the
        answers). The paper profiles once per application — so the
        result is memoized per n and the search never reruns for a
        scale this engine has already profiled."""
        cfg = self._cfg_cache.get(n)
        if cfg is not None:
            return cfg
        if self._window_override is not None:
            k = self._window_override
            cfg = self._make_config(n, k, self._interval_for(n, k))
        else:
            best_cfg = None
            best_time = float("inf")
            for k in WINDOW_RANGE:
                cand = self._make_config(n, k, self._interval_for(n, k))
                seconds = self.device.time_of(
                    self._plan_with_cfg(n, cand, None)
                )
                if seconds < best_time:
                    best_cfg, best_time = cand, seconds
            cfg = best_cfg
        self._cfg_cache[n] = cfg
        return cfg

    def _interval_for(self, n: int, k: int) -> int:
        if self._interval_override is not None:
            return self._interval_override
        w = num_windows(self.scalar_bits, k)
        budget = cost.GZKP_PREPROCESS_MEM_FRACTION * self.device.global_mem_bytes
        full = n * w * affine_point_bytes(self.group)
        return min(max(1, math.ceil(full / budget)), w)

    def _make_config(self, n: int, k: int, m: int) -> GzkpMsmConfig:
        return GzkpMsmConfig(
            window=k,
            interval=m,
            n_windows=num_windows(self.scalar_bits, k),
            preprocess_bytes=self._table_bytes(n, k, m),
        )

    def _table_bytes(self, n: int, k: int, m: int) -> int:
        """Extra storage for checkpoint rows beyond row 0 (row 0 is the
        input point vector itself, counted as input elsewhere)."""
        w = num_windows(self.scalar_bits, k)
        checkpoints = math.ceil(w / m)
        return n * (checkpoints - 1) * affine_point_bytes(self.group)

    def _backend(self) -> str:
        from repro.gpusim.trace import INT_BACKEND
        return DFP_BACKEND if self.use_dfp_library else INT_BACKEND

    # -- preprocessing (functional) ------------------------------------------------------

    def preprocess(self, points: Sequence[AffinePoint],
                   cfg: GzkpMsmConfig) -> List[Sequence[AffinePoint]]:
        """Checkpoint table: row m holds 2^(m*M*k) * P_i for every point
        (row 0 is the input itself). Runs at system-setup time in GZKP —
        the point vector never changes for an application (§4.1).

        Rows are in the compute backend's resident form
        (``resident_points``) and the doubling chain between two
        checkpoints runs on the backend's Jacobian rows, so on a
        backend with a kernel-side layout the table is born in word
        rows — each checkpoint row normalised with one shared inversion
        — and on the reference backend every step is the plain list
        loop it always was."""
        backend = self._compute_backend()
        rows = [backend.resident_points(self.group, points)]
        n_checkpoints = math.ceil(cfg.n_windows / cfg.interval)
        step = cfg.interval * cfg.window  # doublings between checkpoints
        for _ in range(1, n_checkpoints):
            jps = backend.batch_to_jacobian(self.group, rows[-1])
            for _ in range(step):  # whole row doubled per step (batch op)
                jps = backend.batch_jdouble(self.group, jps)
            rows.append(backend.batch_from_jacobian(self.group, jps))
        return rows

    def build_context(self, points: Sequence[AffinePoint],
                      counter: Optional[OpCounter] = None,
                      telemetry=None, label: str = "") -> MsmContext:
        """Resolve the config for this point vector and preprocess its
        checkpoint table once, returning the bound
        :class:`~repro.msm.context.MsmContext` — the amortized artefact
        every later ``compute(..., context=ctx)`` over the same points
        reuses. Checkpoint doublings are attributed to a dedicated
        ``preprocess`` phase on ``counter`` (and a ``preprocess``
        telemetry span), kept separate from the per-MSM kernel phases
        so Table 7/8 parity is unaffected."""
        from repro.service.telemetry import maybe_span

        n = len(points)
        cfg = self.configure(n)
        with maybe_span(telemetry, "preprocess", label=label, n=n) as sp:
            c = counter if counter is not None else sp.counter
            with counting(self.group, c, "preprocess"):
                table = self.preprocess(points, cfg)
        return MsmContext(group=self.group, scalar_bits=self.scalar_bits,
                          n=n, cfg=cfg, table=table, label=label)

    # -- functional execution --------------------------------------------------------------

    def compute(self, scalars: Sequence[int], points: Sequence[AffinePoint],
                counter: Optional[OpCounter] = None,
                table: Optional[Sequence[Sequence[AffinePoint]]] = None,
                telemetry=None,
                context: Optional[MsmContext] = None) -> AffinePoint:
        """Consolidated MSM via residual sub-buckets (the performant
        realisation of Algorithm 1; see module docstring).

        With ``context`` (from :meth:`build_context`) the profiling
        search and checkpoint build are both skipped — the amortized
        per-proof path, which only *reads* the resident table: digit
        matrix -> entry index vectors -> the backend gathers table rows
        into buckets -> residual fold -> bucket-reduction, all on the
        backend's rows, and one ``from_jacobian`` at the end. A raw
        ``table`` is validated against the resolved config (a table
        preprocessed under a different config would silently mis-weight
        every entry) and ingested row by row (``resident_points`` — a
        no-op for rows that already are resident); with neither, the
        table is built in-call and its doublings are counted under a
        dedicated ``preprocess`` phase/span. With ``telemetry``
        attached, the kernel phases (point-merging, bucket-reduction)
        report wall-clock sub-spans under the caller's current span; op
        counting stays on ``counter``, whose phase split carries the
        same names."""
        from repro.service.telemetry import maybe_span

        check_msm_inputs(self.group, scalars, points, self.scalar_bits)
        if not scalars:
            return None
        cfg = self.configure(len(scalars))
        group = self.group
        backend = self._compute_backend()
        if context is not None:
            if table is not None and table is not context.table:
                raise MsmError("pass either table= or context=, not both")
            if not context.matches(group, len(points)):
                raise MsmError(
                    f"MSM context bound to {context.n} point(s) on "
                    f"{getattr(context.group, 'name', '?')}; call is "
                    f"{len(points)} point(s) on {group.name}"
                )
            if context.cfg != cfg:
                raise MsmError(
                    f"MSM context preprocessed under {context.cfg}, "
                    f"but this engine resolves {cfg} for n={len(scalars)}"
                )
            table = context.table
        elif table is not None:
            check_table(table, cfg, len(points))
            table = [backend.resident_points(group, row) for row in table]
        with counting(group, counter):
            if table is None:
                with maybe_span(telemetry, "preprocess"), \
                        counting(group, counter, "preprocess"):
                    table = self.preprocess(points, cfg)
            k, m = cfg.window, cfg.interval
            n_buckets = (1 << k) - 1
            with maybe_span(telemetry, "point-merging"), \
                    counting(group, counter, "point-merging"):
                # Scalar front-end: every window of every scalar in one
                # backend call, then one entry per non-zero digit as
                # index vectors into the table and into the sub-buckets
                # — indexed [residual w][digit - 1], flattened to one
                # row so the merge is a single batch call.
                dm = backend.digits_matrix(scalars, self.scalar_bits, k)
                # Backends may reassociate each bucket's sum (the numpy
                # backend runs a sorted segmented batch-affine tree) and
                # return any group-equal Jacobian representative; the
                # fold below only jadd/jdoubles them, so the final point
                # is unchanged and op counts stay exact — see
                # ComputeBackend.accumulate_buckets for the contract.
                sub = backend.accumulate_table(
                    group, table, m * n_buckets,
                    *backend.digit_entries(dm, k, m))
                # Fold residual classes: B_d = sum_w 2^(w*k) B_{d,w}.
                buckets = sub[(m - 1) * n_buckets:]
                for residual in range(m - 2, -1, -1):
                    for _ in range(k):
                        buckets = backend.batch_jdouble(group, buckets)
                    buckets = backend.batch_jadd(
                        group, buckets,
                        sub[residual * n_buckets:(residual + 1) * n_buckets])
            with maybe_span(telemetry, "bucket-reduction"), \
                    counting(group, counter, "bucket-reduction"):
                # Backend contract mirrors accumulate_buckets: any
                # group-equal representative, ordered-fold op counts.
                total = backend.bucket_reduce(group, buckets)
            return group.from_jacobian(total)

    def compute_literal(self, scalars: Sequence[int],
                        points: Sequence[AffinePoint],
                        counter: Optional[OpCounter] = None) -> AffinePoint:
        """Algorithm 1 exactly as printed in the paper: per-entry
        doubling chains from the nearest checkpoint. Used to validate
        that the residual realisation computes the same function."""
        check_msm_inputs(self.group, scalars, points, self.scalar_bits)
        if not scalars:
            return None
        cfg = self.configure(len(scalars))
        with counting(self.group, counter):
            with counting(self.group, counter, "preprocess"):
                table = self.preprocess(points, cfg)
            o = self.group.ops
            infinity = (o.one, o.one, o.zero)
            k, m = cfg.window, cfg.interval
            buckets = [infinity] * ((1 << k) - 1)
            for i, s in enumerate(scalars):
                for t, d in enumerate(scalar_digits(s, self.scalar_bits, k)):
                    if not d:
                        continue
                    block, residual = divmod(t, m)
                    if residual == 0:
                        buckets[d - 1] = self.group.jmixed_add(
                            buckets[d - 1], table[block][i]
                        )
                    else:
                        tmp = self.group.to_jacobian(table[block][i])
                        for _ in range(residual * k):
                            tmp = self.group.jdouble(tmp)
                        buckets[d - 1] = self.group.jadd(buckets[d - 1], tmp)
            total = bucket_reduce(self.group, buckets)
            return self.group.from_jacobian(total)

    # -- analytic plan --------------------------------------------------------------------------

    def plan(self, n: int, stats: Optional[DigitStats] = None) -> Trace:
        cfg = self.configure(n)
        if stats is not None and stats.windows != cfg.n_windows:
            raise MsmError(
                f"digit stats computed for {stats.windows} windows, "
                f"config has {cfg.n_windows}"
            )
        return self._plan_with_cfg(n, cfg, stats)

    def _plan_with_cfg(self, n: int, cfg: GzkpMsmConfig,
                       stats: Optional[DigitStats]) -> Trace:
        k, m, w = cfg.window, cfg.interval, cfg.n_windows
        if stats is None:
            stats = DigitStats.dense_model(n, self.scalar_bits, k)
        bits = coord_bits(self.group)
        backend = self._backend()
        trace = Trace()

        # Point-merging: one mixed PADD per non-zero digit.
        merge_padds = stats.nonzero_digits
        # Residual folding: (M-1) * (k doublings + 1 add) per bucket/lane.
        n_buckets = (1 << k) - 1
        fold_dbls = n_buckets * (m - 1) * k
        fold_adds = n_buckets * (m - 1)
        # Bucket-reduction: running sum, 2 PADDs per bucket.
        reduce_padds = 2 * n_buckets
        gpu_muls = (
            merge_padds * cost.PMIXED_MULS
            + fold_dbls * cost.PDBL_MULS
            + (fold_adds + reduce_padds) * cost.PADD_MULS
        )
        trace.add_gpu_muls(bits, gpu_muls * self.fq_mul_factor, backend)
        trace.add_gpu_adds(
            bits,
            (merge_padds + fold_dbls + fold_adds + reduce_padds)
            * cost.PADD_ADDS,
        )

        # Memory: each merge reads one preprocessed affine point; the
        # bucket-info array is sorted so reads are near-sequential.
        point_bytes = affine_point_bytes(self.group)
        trace.add_global_traffic(merge_padds * point_bytes, coalescing=0.9)
        trace.add_global_traffic(n * self.scalar_bits / 8, coalescing=1.0)

        # Fine-grained task mapping: one warp (or more) per bucket task,
        # blocks of 32 warps; heaviest groups first (§4.2).
        warps = max(n_buckets * m, 1)
        trace.add_kernel(blocks=math.ceil(warps / 32), launches=3)
        stall = cost.msm_chain_stall(bits)
        if self.load_balanced:
            trace.parallel_efficiency = cost.GZKP_MSM_UTILIZATION / stall
        else:
            # One warp per task regardless of load: pay the raw bucket
            # skew plus a dense-tail penalty (Figure 10's LB gap).
            trace.parallel_efficiency = (
                cost.GZKP_MSM_UTILIZATION * cost.GZKP_NO_LB_PENALTY
            ) / (stall * stats.bucket_imbalance)

        trace.gpu_memory_bytes = (
            cfg.preprocess_bytes
            + n * point_bytes
            + n * self.scalar_bits / 8
            + n_buckets * m * jacobian_point_bytes(self.group)
        )
        return trace

    def estimate_seconds(self, n: int,
                         stats: Optional[DigitStats] = None) -> float:
        """Modeled single-MSM latency (Tables 7/8 GZKP columns),
        including the fixed per-call pipeline overhead."""
        return self.device.time_of(self.plan(n, stats)) + (
            cost.GPU_MSM_FIXED_OVERHEAD
        )

    def timeline(self, n: int, stats: Optional[DigitStats] = None):
        """Per-phase kernel timeline (reporting; the single-trace
        ``plan`` remains the calibrated pricing path)."""
        from repro.gpusim.executor import KernelTimeline

        cfg = self.configure(n)
        k, m, w = cfg.window, cfg.interval, cfg.n_windows
        if stats is None:
            stats = DigitStats.dense_model(n, self.scalar_bits, k)
        bits = coord_bits(self.group)
        backend = self._backend()
        stall = cost.msm_chain_stall(bits)
        efficiency = (
            cost.GZKP_MSM_UTILIZATION if self.load_balanced
            else cost.GZKP_MSM_UTILIZATION * cost.GZKP_NO_LB_PENALTY
            / stats.bucket_imbalance
        ) / stall
        point_bytes = affine_point_bytes(self.group)
        n_buckets = (1 << k) - 1
        timeline = KernelTimeline(device=self.device)

        sort = Trace()
        sort.add_global_traffic(4 * stats.nonzero_digits * 8, coalescing=1.0)
        sort.add_kernel(blocks=max(stats.nonzero_digits // 4096, 1),
                        launches=4)
        timeline.add("digit radix sort", "preprocess", sort)

        merge = Trace()
        merge.add_gpu_muls(
            bits, stats.nonzero_digits * cost.PMIXED_MULS * self.fq_mul_factor,
            backend,
        )
        merge.add_gpu_adds(bits, stats.nonzero_digits * cost.PADD_ADDS)
        merge.add_global_traffic(stats.nonzero_digits * point_bytes,
                                 coalescing=0.9)
        merge.parallel_efficiency = efficiency
        merge.add_kernel(blocks=max(n_buckets * m // 32, 1), launches=1)
        merge.gpu_memory_bytes = (cfg.preprocess_bytes + n * point_bytes
                                  + n * self.scalar_bits / 8)
        timeline.add("cross-window bucket merge", "point-merging", merge)

        if m > 1:
            fold = Trace()
            fold_dbls = n_buckets * (m - 1) * k
            fold_adds = n_buckets * (m - 1)
            fold.add_gpu_muls(
                bits,
                (fold_dbls * cost.PDBL_MULS + fold_adds * cost.PADD_MULS)
                * self.fq_mul_factor,
                backend,
            )
            fold.add_gpu_adds(bits, (fold_dbls + fold_adds) * cost.PADD_ADDS)
            fold.parallel_efficiency = efficiency
            fold.add_kernel(blocks=max(n_buckets // 32, 1), launches=m - 1)
            timeline.add("residual checkpoint fold", "point-merging", fold)

        reduce_trace = Trace()
        reduce_trace.add_gpu_muls(
            bits, 2 * n_buckets * cost.PADD_MULS * self.fq_mul_factor,
            backend,
        )
        reduce_trace.add_gpu_adds(bits, 2 * n_buckets * cost.PADD_ADDS)
        reduce_trace.parallel_efficiency = efficiency
        reduce_trace.add_kernel(blocks=max(n_buckets // 1024, 1), launches=1)
        timeline.add("parallel bucket reduction", "bucket-reduction",
                     reduce_trace)
        return timeline
