"""The perf ledger's vocabulary: metric tables, workload specs, the
in-memory span recorder, statistics and the set-to-set comparison.

Nothing here imports ``repro``: the tables must be loadable (by the
self-test and by ``compare``) without the program on the path.
``BENCHMARK.json`` at the repo root carries the same names, units,
directions and bounds; ``test_ledger.py`` keeps the two in step.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
RESULTS_DIR = LEDGER_DIR / "results"
SCHEMA_VERSION = 1

# -- end-to-end metrics: name -> (unit, better, bound) ---------------------------
#
# A bound is three times the widest ten-seed spread (IQR/median) the
# metric showed on any workload on the 2-core reference host, capped at
# the 0.25 the driver allows: see README.md "Bounds".  The host's speed
# swings by +-20% over minutes; what is left after the harness divides
# that out is 0.05-0.12 for the timed metrics, so they all sit at the cap.

END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "prove_s": ("s", "lower", 0.25),
    "verify_s": ("s", "lower", 0.25),
    "batch_verify_per_proof_s": ("s", "lower", 0.25),
    "proof_bytes_roundtrip_s": ("s", "lower", 0.25),
    "ntt_s": ("s", "lower", 0.25),
    "poly_s": ("s", "lower", 0.25),
    "msm_dense_s": ("s", "lower", 0.25),
    "msm_sparse_s": ("s", "lower", 0.25),
    "jobs_per_s": ("jobs/s", "higher", 0.25),
    "job_latency_p50_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
}

# -- per-layer metrics: name -> (unit, better, end-to-end metrics it feeds) -------
#
# The layer is the prefix (a ``repro`` module name).  "Feeds" is the
# written-down expectation of README.md's interaction table: a change
# that moves the layer metric should move these end-to-end metrics and
# no others.  The two harness-health ratios feed nothing.

_KERNEL_POLY = ("poly_s", "ntt_s")
_KERNEL_MSM = ("msm_dense_s", "msm_sparse_s")
_SERVICE = ("jobs_per_s", "job_latency_p50_s")
_VERIFY = ("verify_s", "batch_verify_per_proof_s", "jobs_per_s")

PER_LAYER: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "circuits.witness_s": ("s", "lower", _SERVICE),
    # set-up
    "snark.keygen_s": ("s", "lower", ("setup_s",)),
    "msm.context_build_s": ("s", "lower", ("setup_s",)),
    "msm.context_bytes": ("bytes", "lower", ("setup_s", "peak_rss_mb")),
    "msm.configure_s": ("s", "lower", ("setup_s",)),
    "snark.prover_build_s": ("s", "lower", ("setup_s",)),
    "backend.kernel_load_s": ("s", "lower", ("setup_s",)),
    # one proof, from the program's exported span tree
    "snark.satisfy_check_s": ("s", "lower", ("prove_s",)),
    "snark.abc_eval_s": ("s", "lower", ("prove_s",)),
    "snark.assemble_s": ("s", "lower", ("prove_s",)),
    "ntt.poly_s": ("s", "lower", ("prove_s",)),
    "ntt.poly_ntt_sum_s": ("s", "lower", ("prove_s",)),
    "ntt.poly_pointwise_s": ("s", "lower", ("prove_s",)),
    "msm.a_s": ("s", "lower", ("prove_s",)),
    "msm.b_g1_s": ("s", "lower", ("prove_s",)),
    "msm.b_g2_s": ("s", "lower", ("prove_s",)),
    "msm.c_s": ("s", "lower", ("prove_s",)),
    "msm.h_s": ("s", "lower", ("prove_s",)),
    # the MSM kernel, dense scalars
    "msm.digits_s": ("s", "lower", (*_KERNEL_MSM, "prove_s")),
    "msm.point_merging_s": ("s", "lower", (*_KERNEL_MSM, "prove_s")),
    "msm.bucket_reduction_s": ("s", "lower", (*_KERNEL_MSM, "prove_s")),
    # the NTT engine and what it adds over the backend call
    "ntt.intt_s": ("s", "lower", _KERNEL_POLY),
    "ntt.coset_ntt_s": ("s", "lower", _KERNEL_POLY),
    "ntt.engine_overhead_s": ("s", "lower", _KERNEL_POLY),
    # backend field ops at the kernel station's domain size
    "backend.encode_s": ("s", "lower", _KERNEL_POLY),
    "backend.decode_s": ("s", "lower", _KERNEL_POLY),
    "backend.ntt_call_s": ("s", "lower", _KERNEL_POLY),
    "backend.encode_share_of_ntt": ("ratio", "lower", _KERNEL_POLY),
    "backend.vmul_s": ("s", "lower", _KERNEL_POLY),
    "backend.vscale_s": ("s", "lower", _KERNEL_POLY),
    "backend.vmul_powers_s": ("s", "lower", _KERNEL_POLY),
    # backend curve ops over a batch of G1 lanes
    "backend.jdouble_s": ("s", "lower", (*_KERNEL_MSM, "setup_s")),
    "backend.jadd_s": ("s", "lower", _KERNEL_MSM),
    "backend.jmixed_add_s": ("s", "lower", _KERNEL_MSM),
    "backend.accumulate_buckets_s": ("s", "lower", _KERNEL_MSM),
    "backend.bucket_reduce_s": ("s", "lower", _KERNEL_MSM),
    # tier ladder (ROADMAP item 3): native wins today, so deleting a
    # losing tier must move no end-to-end metric
    "backend.ntt_native_s": ("s", "lower", _KERNEL_POLY),
    "backend.ntt_limb_s": ("s", "lower", ()),
    "backend.ntt_python_s": ("s", "lower", ()),
    "backend.vmul_native_s": ("s", "lower", _KERNEL_POLY),
    "backend.vmul_limb_s": ("s", "lower", ()),
    "backend.vmul_python_s": ("s", "lower", ()),
    "backend.jdouble_native_s": ("s", "lower", _KERNEL_MSM),
    "backend.jdouble_limb_s": ("s", "lower", ()),
    "backend.jdouble_python_s": ("s", "lower", ()),
    "backend.native_dispatch_ratio": (
        "ratio", "higher", ("prove_s", "poly_s", *_KERNEL_MSM)),
    # exact counted work: repeats bit-for-bit under one seed
    "ops.proof.butterfly": ("count", "lower", ("prove_s",)),
    "ops.proof.fr_mul": ("count", "lower", ("prove_s",)),
    "ops.proof.fr_add": ("count", "lower", ("prove_s",)),
    "ops.proof.padd": ("count", "lower", ("prove_s",)),
    "ops.proof.pdbl": ("count", "lower", ("prove_s",)),
    "ops.poly.butterfly": ("count", "lower", ("poly_s",)),
    "ops.poly.fr_mul": ("count", "lower", ("poly_s",)),
    "ops.poly.fr_add": ("count", "lower", ("poly_s",)),
    "ops.msm_dense.padd": ("count", "lower", ("msm_dense_s",)),
    "ops.msm_dense.pdbl": ("count", "lower", ("msm_dense_s",)),
    "ops.msm_sparse.padd": ("count", "lower", ("msm_sparse_s",)),
    # verification
    "curves.pairing_verify_s": ("s", "lower", _VERIFY),
    "curves.miller_loops_per_proof": ("count", "lower", ("verify_s",)),
    "curves.final_exps_per_proof": ("count", "lower", ("verify_s",)),
    "curves.batch_miller_loops_per_proof": (
        "count", "lower", ("batch_verify_per_proof_s", "jobs_per_s")),
    "snark.ic_msm_s": ("s", "lower", _VERIFY),
    "snark.serialize_s": ("s", "lower", ("proof_bytes_roundtrip_s",)),
    "snark.deserialize_s": ("s", "lower", ("proof_bytes_roundtrip_s",)),
    # the service, from JobResult telemetry and shard_stats()
    "service.wire_encode_s": ("s", "lower", ("job_latency_p50_s",)),
    "service.wire_decode_s": ("s", "lower", ("job_latency_p50_s",)),
    "service.queue_wait_p50_s": ("s", "lower", ("job_latency_p50_s",)),
    "service.queue_depth_hwm": ("count", "lower", ("job_latency_p50_s",)),
    "service.rejections": ("count", "lower", ("job_latency_p50_s",)),
    "service.generator_lag_p50_s": ("s", "lower", ("job_latency_p50_s",)),
    "service.context_s": ("s", "lower", _SERVICE),
    "service.ctx_hit_ratio": ("ratio", "higher", _SERVICE),
    "service.verify_s": ("s", "lower", _SERVICE),
    "service.verify_window_mean": ("count", "higher", _SERVICE),
    "service.verify_share": ("ratio", "lower", _SERVICE),
    "service.poly_s": ("s", "lower", ("jobs_per_s",)),
    "service.msm_s": ("s", "lower", ("jobs_per_s",)),
    "service.assemble_s": ("s", "lower", ("jobs_per_s",)),
    "service.latency_p90_s": ("s", "lower", ("job_latency_p50_s",)),
    # harness health
    "host_speed_ratio": ("ratio", "lower", ()),
    "trace_overhead_ratio": ("ratio", "lower", ()),
    "reconcile_residual_ratio": ("ratio", "lower", ()),
}

# -- workloads ---------------------------------------------------------------------------
#
# Every workload runs the same three stations (kernels, lifecycle,
# service) so that every metric has a row on every workload; what a
# workload *is* is which station is sized as in ISSUE 11 and which two
# are kept to a few repetitions at a small size.  ``share`` is the part
# of ``--seconds`` a timed series may use after its minimum repetitions.


@dataclass(frozen=True)
class KernelSpec:
    log_n: int                 # NTT / POLY domain
    msm_log_n: int             # MSM point count (context build ~ 1.2 ms/point)
    lanes: int = 4096          # batch width for the curve-op layer probes
    min_reps: int = 5
    share: float = 0.0         # of --seconds, split over the four series


@dataclass(frozen=True)
class LifecycleSpec:
    circuit: Tuple[str, object]    # ("sha256_like", rounds) or ("registry", name)
    min_proofs: int = 3
    min_verifies: int = 3
    batch_reps: int = 1
    share: float = 0.0


@dataclass(frozen=True)
class ServiceSpec:
    workers: int                   # 0 = the inline service (no pool)
    circuits: Tuple[str, ...]
    worker_cache: int
    open_jobs: int                 # open-loop phase: cycling over the keys
    open_interval_s: float         # ... one job due every so many seconds


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    curve: str
    kernels: KernelSpec
    lifecycle: LifecycleSpec
    service: ServiceSpec

    @property
    def pooled_service(self) -> bool:
        """Without a worker pool the service station is an inline probe
        that only the traced pass runs."""
        return self.service.workers > 0


_CHURN_KEYS = ("square", "cubic", "mulchain8", "mulchain12", "mulchain16",
               "mulchain20")
_PROBE_SERVICE = ServiceSpec(workers=0, circuits=("square", "cubic"),
                             worker_cache=4, open_jobs=2, open_interval_s=0.25)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="prove_lifecycle_bn128",
        why="Table 2/3 shape: keygen, context build, then a closed loop of "
            "proofs, (de)serialisation, single and batched verifies on a "
            "2^10 circuit; MSM ~82%, POLY ~5% of a proof",
        curve="ALT-BN128",
        kernels=KernelSpec(log_n=10, msm_log_n=10, lanes=1024, share=0.05),
        lifecycle=LifecycleSpec(("sha256_like", 48), min_proofs=8,
                                min_verifies=4, batch_reps=2, share=0.55),
        service=_PROBE_SERVICE),
    Workload(
        name="kernels_bn128_d14",
        why="Table 5/7 shape on 4-word fields: NTT and POLY at 2^14, MSM "
            "over 2^12 points, dense (h-query) and sparse (assignment) "
            "scalars, so a 5%-of-a-proof layer has its own number",
        curve="ALT-BN128",
        kernels=KernelSpec(log_n=14, msm_log_n=12, share=0.9),
        lifecycle=LifecycleSpec(("registry", "cubic")),
        service=_PROBE_SERVICE),
    Workload(
        name="kernels_mnt4753_d11",
        why="same kernels on a 753-bit, 12-word, a!=0 curve: NTT and POLY at "
            "2^11, MSM over 2^9 points; a gain tuned to 4-word BN128 that "
            "costs the wide field shows here",
        curve="MNT4753",
        kernels=KernelSpec(log_n=11, msm_log_n=9, lanes=1024, min_reps=6,
                           share=0.9),
        lifecycle=LifecycleSpec(("registry", "cubic"), min_verifies=4),
        service=_PROBE_SERVICE),
    Workload(
        name="service_churn_bn128",
        why="Table 4 serving shape: 6 circuit keys over 4 cache slots; a "
            "batch submitted at once, then a paced open loop timed from each "
            "due time; verify, context rebuilds and the pipeline dominate",
        curve="ALT-BN128",
        kernels=KernelSpec(log_n=6, msm_log_n=6, lanes=256, min_reps=9),
        lifecycle=LifecycleSpec(("registry", "cubic")),
        service=ServiceSpec(workers=2, circuits=_CHURN_KEYS, worker_cache=2,
                            open_jobs=6, open_interval_s=1.4)),
)}


def quick(w: Workload) -> Workload:
    """The same workload at smoke-test size (domain 2^8, 6 service
    jobs): every code path of the full run, none of its statistics."""
    pooled = w.pooled_service
    return Workload(
        name=w.name, why=w.why, curve=w.curve,
        kernels=KernelSpec(log_n=min(w.kernels.log_n, 8),
                           msm_log_n=min(w.kernels.msm_log_n, 6),
                           lanes=64, min_reps=2),
        lifecycle=LifecycleSpec(
            ("sha256_like", 8) if w.lifecycle.circuit[0] == "sha256_like"
            else ("registry", "cubic"),
            min_proofs=2, min_verifies=1),
        service=ServiceSpec(workers=min(w.service.workers, 1),
                            circuits=("square", "cubic")
                            if pooled else ("square",),
                            worker_cache=1, open_jobs=2 if pooled else 1,
                            open_interval_s=0.25))


# -- statistics -----------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def iqr(values: Sequence[float]) -> float:
    """Q3 - Q1 as ``statistics.quantiles(n=4)`` gives them (0 below two
    samples, where no quartile exists)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q3 - q1)


def summary(values: Sequence[float], unit: str) -> dict:
    """One metric cell: median with its spread and sample count."""
    return {"value": median(values), "unit": unit, "iqr": iqr(values),
            "n": len(values)}


# -- the span recorder ----------------------------------------------------------------------


class Recorder:
    """The harness's own spans: (id, parent, run, name, start, end) kept
    in memory and dumped once at exit.  ``attach`` files a program-side
    exported span tree (``Telemetry.to_dict()`` / ``JobResult.telemetry``)
    under the harness span that caused it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[dict] = []
        self.program_trees: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        rec = {"id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "name": name,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def attach(self, under: dict, tree: dict) -> None:
        self.program_trees.append({"under": under["id"], "run": self.run_id,
                                   "tree": tree})

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"schema": SCHEMA_VERSION, "run": self.run_id,
             "spans": self.spans, "program_trees": self.program_trees}))


def span_child(tree: dict, name: str) -> Optional[dict]:
    """A direct child of an exported program span, by name."""
    for child in tree["children"]:
        if child["name"] == name:
            return child
    return None


# -- the environment block ------------------------------------------------------------------


def _first_line(cmd: List[str]) -> str:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.splitlines()
    return lines[0].strip() if out.returncode == 0 and lines else "unknown"


def environment(native_available: bool, backend: str) -> dict:
    """What every result file records about where it was measured."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "commit": _first_line(["git", "-C", str(REPO_ROOT), "rev-parse",
                               "--short", "HEAD"]),
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "compiler": _first_line(["cc", "--version"]),
        "native_available": native_available,
        "backend_tier": backend + ("+native" if native_available else ""),
        "platform": platform.platform(),
    }


# -- result files and their comparison ----------------------------------------------------


def write_results(path: Path, env: dict, runs: List[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema": SCHEMA_VERSION, "env": env,
                                "runs": runs}, indent=1) + "\n")


def _cells(runs: List[dict], section: str) -> Dict[Tuple[str, str], dict]:
    """(workload, metric) -> {values, iqr}: the median over the file's
    runs of that workload, with the spread across runs — or, when the
    file holds a single run, the spread that run saw across its own
    repetitions."""
    grouped: Dict[Tuple[str, str], List[dict]] = {}
    for run in runs:
        for name, cell in run.get(section, {}).items():
            grouped.setdefault((run["workload"], name), []).append(cell)
    out = {}
    for key, cells in grouped.items():
        values = [c["value"] for c in cells]
        spread = iqr(values) if len(values) > 1 else cells[0].get("iqr", 0.0)
        out[key] = {"values": values, "median": median(values),
                    "iqr": spread, "unit": cells[0]["unit"]}
    return out


def spread_report(result: dict, out=print) -> float:
    """Per (workload, end-to-end metric): the median over the file's
    runs and their IQR as a share of it, against the bound — what the
    driver checks before it accepts a benchmark, and the number a bound
    is tightened from.  Returns the largest spread/bound seen, setup_s
    (which a run can afford only once) excepted."""
    worst = 0.0
    out(f"{'workload':<24}{'metric':<26}{'median':>12}{'n':>4}"
        f"{'iqr/median':>12}{'bound':>7}{'wall_s':>8}")
    walls: Dict[str, List[float]] = {}
    for run in result["runs"]:
        walls.setdefault(run["workload"], []).append(run["wall_s"])
    for (workload, name), cell in sorted(
            _cells(result["runs"], "end_to_end").items()):
        bound = END_TO_END[name][2]
        share = cell["iqr"] / abs(cell["median"]) if cell["median"] else 0.0
        if name != "setup_s":
            worst = max(worst, share / bound)
        out(f"{workload:<24}{name:<26}{cell['median']:>12.5g}"
            f"{len(cell['values']):>4}{share:>12.3f}{bound:>7.2f}"
            f"{median(walls[workload]):>8.1f}")
    return worst


def _worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0
    return (new - base) / base if better == "lower" else (base - new) / base


def compare(a: dict, b: dict, out=print) -> int:
    """Print the (workload, end-to-end metric) table for result files A
    (the base) and B, then per-layer blame; return the count of
    regressed rows."""
    ea, eb = _cells(a["runs"], "end_to_end"), _cells(b["runs"], "end_to_end")
    out(f"base A: commit {a['env'].get('commit')}  |  "
        f"B: commit {b['env'].get('commit')}")
    out(f"{'workload':<24}{'metric':<26}{'A median':>12}{'A iqr':>10}"
        f"{'B median':>12}{'B iqr':>10}{'B/A':>8}{'bound':>7}  verdict")
    regressed = 0
    for key in sorted(ea.keys() & eb.keys()):
        workload, name = key
        unit, better, bound = END_TO_END[name]
        ca, cb = ea[key], eb[key]
        ratio = cb["median"] / ca["median"] if ca["median"] else float("nan")
        spread = max(ca["iqr"] / abs(ca["median"]) if ca["median"] else 0.0,
                     cb["iqr"] / abs(cb["median"]) if cb["median"] else 0.0)
        worse = _worse_by(ca["median"], cb["median"], better)
        if better == "lower":
            b_always_better = max(cb["values"]) < min(ca["values"])
        else:
            b_always_better = min(cb["values"]) > max(ca["values"])
        if spread > bound and not b_always_better:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "regressed"
            regressed += 1
        else:
            verdict = "ok"
        out(f"{workload:<24}{name:<26}{ca['median']:>12.5g}{ca['iqr']:>10.3g}"
            f"{cb['median']:>12.5g}{cb['iqr']:>10.3g}{ratio:>8.3f}"
            f"{bound:>7.2f}  {verdict} ({unit}, base A)")
    la, lb = _cells(a["runs"], "per_layer"), _cells(b["runs"], "per_layer")
    blame = sorted(((lb[k]["median"] - la[k]["median"], k)
                    for k in la.keys() & lb.keys() if la[k]["unit"] == "s"),
                   key=lambda item: -abs(item[0]))
    if blame:
        out("per-layer blame (B - A, seconds, largest first):")
        for delta, (workload, name) in blame[:20]:
            feeds = ", ".join(PER_LAYER[name][2]) or "-"
            out(f"  {delta:+.5f}  {workload:<24}{name:<34} feeds {feeds}")
    return regressed
