#!/usr/bin/env python3
"""A tour of the GZKP GPU pipeline: scheduling geometry, operation
counts, and the calibrated device model.

Walks through what the paper's two stages actually do:
  1. the NTT's batch plan and internal-shuffle geometry (Figure 4),
  2. the MSM's window profiling, checkpoint preprocessing and bucket
     scheduling (Figures 5-7, Algorithm 1),
  3. modeled V100 latencies next to measured operation counts from a
     real (small-scale) execution.

Run:  python examples/gpu_pipeline_tour.py
"""

import random

from repro.curves import CURVES
from repro.ff.opcount import OpCounter, counting
from repro.gpusim import V100
from repro.msm import GzkpMsm, bucket_histogram, group_tasks_by_load, naive_msm
from repro.ntt import GzkpNtt, block_chunks, ntt


def ntt_tour():
    print("=" * 64)
    print("POLY stage: GZKP's shuffle-less NTT (paper section 3)")
    print("=" * 64)
    bls = CURVES["BLS12-381"]
    engine = GzkpNtt(bls.fr, V100)

    for lg in (14, 20, 26):
        cfg = engine.configure(1 << lg)
        print(f"  2^{lg}: B={cfg.batch_width} iterations/batch, "
              f"G={cfg.groups_per_block} groups/block, "
              f"{cfg.n_batches} batches, {cfg.threads_per_block} threads")

    print("\n  Figure 4 geometry: batch at shift 2 (stride 4), 2 groups per")
    print("  block read these contiguous global-memory chunks:")
    for start, length in block_chunks(5, 2, 2, first_group=0, n_groups=2):
        print(f"    elements [{start}, {start + length})")

    # Run it for real and compare measured vs planned butterfly counts.
    n = 1 << 10
    rng = random.Random(1)
    values = [rng.randrange(bls.fr.modulus) for _ in range(n)]
    counter = OpCounter()
    with counting(counter):
        result = engine.compute(values)
    assert result == ntt(bls.fr, values)
    plan = engine.plan(n)
    print(f"\n  functional run at 2^10: {counter.total('butterfly')} "
          f"butterflies measured, plan says "
          f"{int(plan.gpu_muls[(bls.fr.bits, 'dfp')])} muls — equal: "
          f"{counter.total('fr_mul') == plan.gpu_muls[(bls.fr.bits, 'dfp')]}")
    print(f"  modeled V100 latency at 2^24: "
          f"{engine.estimate_seconds(1 << 24) * 1e3:.1f} ms "
          f"(paper Table 5: 20.99 ms)")


def msm_tour():
    print()
    print("=" * 64)
    print("MSM stage: consolidation + checkpoints + scheduling (section 4)")
    print("=" * 64)
    bls = CURVES["BLS12-381"]
    engine = GzkpMsm(bls.g1, bls.fr.bits, V100)

    for lg in (16, 22, 26):
        cfg = engine.configure(1 << lg)
        print(f"  2^{lg}: profiled window k={cfg.window}, checkpoint "
              f"interval M={cfg.interval}, {cfg.n_windows} windows, "
              f"table {cfg.preprocess_bytes / 2**30:.1f} GiB")

    # Real execution with phase-attributed operation counts.
    rng = random.Random(2)
    n = 48
    points = [bls.g1.random_point(rng) for _ in range(n)]
    scalars = [rng.randrange(bls.g1.order) for _ in range(n)]
    small = GzkpMsm(bls.g1, bls.fr.bits, V100, window=6, interval=3)
    counter = OpCounter()
    with counting(counter):
        result = small.compute(scalars, points)
    assert result == naive_msm(bls.g1, scalars, points)
    print(f"\n  functional run (n={n}, k=6, M=3): result matches the naive")
    print(f"  oracle; PADDs by phase: "
          f"{{p: dict(c)['padd'] for p, c in counter.by_phase.items()}}"
          .replace("{p: dict(c)['padd'] for p, c in counter.by_phase.items()}",
                   str({p: c['padd'] for p, c in counter.by_phase.items()})))

    # Bucket scheduling on a sparse vector (Figures 6-7).
    sparse = [0] * 40 + [1] * 40 + [rng.getrandbits(255) for _ in range(20)]
    hist = bucket_histogram(sparse, 255, 8)
    groups = group_tasks_by_load(hist, n_groups=4)
    print(f"\n  sparse vector -> {len(hist)} non-empty buckets, "
          f"heaviest-first groups of sizes "
          f"{[len(g.buckets) for g in groups]}")
    print(f"  modeled V100 latency at 2^26 (dense): "
          f"{engine.estimate_seconds(1 << 26):.2f} s "
          f"(paper Table 7: 4.00 s)")


if __name__ == "__main__":
    ntt_tour()
    msm_tour()
