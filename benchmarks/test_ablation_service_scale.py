"""Service-scale ablation: the async sharded pipeline under load.

Measures the property the pipeline was built for: sustained jobs/sec
increases with worker count *because shard affinity keeps bounded
prover-handle caches hot*, not because more processes magically beat a
fixed CPU budget.  Each worker may keep at most ``WORKER_CACHE``
resident prover handles (GZKP Figure 9's preprocessing-memory budget);
the job stream draws uniformly from ``len(KEYS)`` distinct
(curve, circuit) keys.  One worker cycles 10 keys through 4 slots and
rebuilds MSM checkpoint tables on most jobs; sharding the same key
population over 2 or 4 workers drops each worker's key count toward its
budget, so misses — the dominant cost — vanish.  That is GZKP §4.1's
amortization argument expressed as a capacity planning rule.

Rows:

* **capacity** — workers in {1, 2, 4}, shards = workers, verify off,
  one warm pass (unmeasured) then a fixed seeded uniform job stream
  through ``prove_batch``; reports jobs/sec and cache hit/miss.
* **latency** — workers = 2, per-proof verify (``verify_window=1``),
  the load generator's Poisson and burst arrivals; reports p50/p95/p99
  latency, jobs/sec and backpressure rejections.

Set ``SERVICE_SCALE_TINY=1`` (CI smoke) for a small 2-config run
(1 -> 2 workers, ~20 jobs) that still writes BENCH_service_scale.json
and asserts monotonic scaling.
"""

import json
import os
import re
import time
from pathlib import Path

from repro.backend import available_backends
from repro.service import ProofJob, ProvingService
from repro.service.loadgen import (LoadGenerator, burst_arrivals,
                                   poisson_arrivals, synthesize_jobs)

TINY = os.environ.get("SERVICE_SCALE_TINY", "") == "1"

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS_MD = REPO_ROOT / "EXPERIMENTS.md"
BENCH_JSON = REPO_ROOT / "BENCH_service_scale.json"
_MARK_START = "<!-- service-scale-ablation:start -->"
_MARK_END = "<!-- service-scale-ablation:end -->"

CURVE = "ALT-BN128"
# single-witness circuits satisfiable for any witness value (range4 is
# deliberately unsatisfiable outside [0, 16), so it stays out)
KEYS = [(CURVE, c) for c in
        ("square", "cubic", "mulchain8", "mulchain12", "mulchain16",
         "mulchain20", "mulchain24", "mulchain28", "mulchain32",
         "mulchain40")]
TINY_KEYS = KEYS[:6]
WORKER_CACHE = 4
TINY_CACHE = 2
N_JOBS = 40
TINY_N_JOBS = 20


def _backend():
    return "numpy" if "numpy" in available_backends() else "python"


def _capacity_row(workers, keys, n_jobs, backend, cache):
    """Jobs/sec for one worker count, warm window excluded."""
    with ProvingService(workers=workers, shards=workers,
                        parallel_msm=False, verify="off",
                        worker_cache=cache, timeout=600,
                        retries=0) as svc:
        # warm pass: one job per key, so every shard's workers build
        # their setups and fill their handle budget before measurement
        warm = [ProofJob(curve, circuit, (3,), backend)
                for curve, circuit in keys]
        warm_results = svc.prove_batch(warm)
        assert all(r.ok for r in warm_results), [
            (r.job_id, r.error) for r in warm_results if not r.ok]
        jobs = synthesize_jobs(keys, n_jobs, seed=202, backend=backend)
        t0 = time.perf_counter()
        results = svc.prove_batch(jobs)
        wall = time.perf_counter() - t0
        stats = svc.shard_stats()
    assert all(r.ok for r in results), [
        (r.job_id, r.error) for r in results if not r.ok]
    hits = sum(s["context_cache"]["hits"] for s in stats)
    misses = sum(s["context_cache"]["misses"] for s in stats)
    # subtract the warm pass' own lookups from the reported counters
    warm_lookups = len(keys)
    return {
        "workers": workers,
        "shards": workers,
        "jobs": n_jobs,
        "wall_s": round(wall, 3),
        "jobs_per_s": round(n_jobs / wall, 4),
        "cache_hits": hits,
        "cache_misses": misses,
        "measured_miss_rate": round(
            max(0, misses - warm_lookups) / n_jobs, 3),
    }


def _latency_row(arrival_mode, keys, n_jobs, backend, cache):
    """p50/p95/p99 latency under the load generator, every proof
    verified on its own (``verify_window=1``)."""
    if arrival_mode == "poisson":
        offsets = poisson_arrivals(0.6, n_jobs, seed=31)
    else:
        offsets = burst_arrivals(n_jobs, max(2, n_jobs // 3), 6.0)
    jobs = synthesize_jobs(keys, n_jobs, seed=303, backend=backend)
    with ProvingService(workers=2, shards=2, parallel_msm=False,
                        verify="batched", verify_window=1,
                        verify_workers=2,
                        worker_cache=cache, queue_depth=max(8, n_jobs),
                        timeout=600, retries=0) as svc:
        warm = [ProofJob(curve, circuit, (3,), backend)
                for curve, circuit in keys]
        assert all(r.ok for r in svc.prove_batch(warm))
        report = LoadGenerator(svc).run(jobs, offsets,
                                        arrival_mode=arrival_mode)
    assert report.errors == 0 and report.dropped == 0
    out = report.to_dict()
    return {
        "arrival_mode": arrival_mode,
        "workers": 2,
        "jobs": n_jobs,
        "jobs_per_s": out["jobs_per_second"],
        "rejections": out["rejections"],
        "latency_p50_s": out["latency_seconds"]["p50"],
        "latency_p95_s": out["latency_seconds"]["p95"],
        "latency_p99_s": out["latency_seconds"]["p99"],
    }


def _write_outputs(capacity, latency, backend, keys, cache, cores):
    ratios = {}
    by_workers = {r["workers"]: r["jobs_per_s"] for r in capacity}
    if 1 in by_workers and 2 in by_workers:
        ratios["2w_over_1w"] = round(by_workers[2] / by_workers[1], 3)
    if 2 in by_workers and 4 in by_workers:
        ratios["4w_over_2w"] = round(by_workers[4] / by_workers[2], 3)
    payload = {
        "benchmark": "service-scale",
        "unit": "jobs/sec and latency seconds (seeded uniform key "
                "stream, warm window excluded)",
        "cpu_cores": cores,
        "backend": backend,
        "key_population": len(keys),
        "worker_cache": cache,
        "capacity": capacity,
        "scaling": ratios,
        "latency": latency,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        _MARK_START,
        "## Service-scale ablation — sharded pipeline under load",
        "",
        f"A seeded uniform stream over {len(keys)} (curve, circuit) "
        f"keys on the {backend} backend, each worker bounded to "
        f"{cache} resident prover handles (the Figure 9 "
        "preprocessing-memory budget). On this "
        f"{cores}-core host extra workers cannot add CPU; throughput "
        "scales because shard affinity shrinks each worker's key "
        "population toward its handle budget, so checkpoint-table "
        "rebuild misses — the dominant per-job cost — disappear. "
        "Latency rows drive the same pipeline through the load "
        "generator (per-proof verify, `verify_window=1`). Raw rows: "
        "`BENCH_service_scale.json`.",
        "",
        "| workers | shards | jobs | wall (s) | jobs/sec | miss rate |",
        "|---|---|---|---|---|---|",
    ]
    for r in capacity:
        lines.append(
            f"| {r['workers']} | {r['shards']} | {r['jobs']} | "
            f"{r['wall_s']:.2f} | {r['jobs_per_s']:.3f} | "
            f"{r['measured_miss_rate']:.2f} |")
    lines += [
        "",
        "| arrivals | workers | jobs | jobs/sec | p50 (s) | p95 (s) "
        "| p99 (s) | rejections |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for r in latency:
        lines.append(
            f"| {r['arrival_mode']} | {r['workers']} | {r['jobs']} | "
            f"{r['jobs_per_s']:.3f} | {r['latency_p50_s']:.2f} | "
            f"{r['latency_p95_s']:.2f} | {r['latency_p99_s']:.2f} | "
            f"{r['rejections']} |")
    lines += ["", _MARK_END]
    block = "\n".join(lines)
    text = EXPERIMENTS_MD.read_text()
    pattern = re.compile(
        re.escape(_MARK_START) + ".*?" + re.escape(_MARK_END), re.DOTALL)
    if pattern.search(text):
        text = pattern.sub(block, text)
    else:
        text = text.rstrip("\n") + "\n\n" + block + "\n"
    EXPERIMENTS_MD.write_text(text)


def _run_tiny():
    backend = _backend()
    capacity = [_capacity_row(w, TINY_KEYS, TINY_N_JOBS, backend,
                              TINY_CACHE) for w in (1, 2)]
    assert capacity[1]["jobs_per_s"] > capacity[0]["jobs_per_s"], (
        "2-worker throughput did not exceed 1-worker: "
        f"{capacity}")
    _write_outputs(capacity, [], backend, TINY_KEYS, TINY_CACHE,
                   cores=os.cpu_count() or 1)
    return capacity


def _run_full():
    backend = _backend()
    capacity = [_capacity_row(w, KEYS, N_JOBS, backend, WORKER_CACHE)
                for w in (1, 2, 4)]
    rates = [r["jobs_per_s"] for r in capacity]
    assert rates[0] < rates[1] < rates[2], (
        f"jobs/sec not monotonic in workers: {rates}")
    assert rates[1] >= 1.5 * rates[0], (
        f"2-worker speedup below 1.5x: {rates[1] / rates[0]:.2f}")
    latency = [_latency_row(mode, KEYS, 15, backend, WORKER_CACHE)
               for mode in ("poisson", "burst")]
    _write_outputs(capacity, latency, backend, KEYS, WORKER_CACHE,
                   cores=os.cpu_count() or 1)
    return capacity, latency


def test_service_scale_ablation(regen):
    if TINY:
        _run_tiny()
        return
    capacity, latency = regen(_run_full)
    print()
    print("Service-scale (sharded pipeline, warm window excluded)")
    print(f"{'workers':>8} {'jobs/s':>8} {'miss rate':>10}")
    for r in capacity:
        print(f"{r['workers']:>8} {r['jobs_per_s']:>8.3f} "
              f"{r['measured_miss_rate']:>10.2f}")
    for r in latency:
        print(f"{r['arrival_mode']:>8} p50={r['latency_p50_s']:.2f}s "
              f"p99={r['latency_p99_s']:.2f}s "
              f"{r['jobs_per_s']:.3f} jobs/s")


if __name__ == "__main__":  # manual run without pytest-benchmark
    out = _run_tiny() if TINY else _run_full()
    print(json.dumps(out, indent=2))
