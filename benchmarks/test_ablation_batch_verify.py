"""Ablation: batched verification — RLC windows vs per-proof pairing checks.

Two layers, matching how the batched verifier ships:

* **Verifier layer** — 32 proofs per curve, verified (a) one at a time
  (4 Miller loops + 1 final exponentiation each) and (b) as one RLC
  batch (N + 3 Miller loops + 1 final exponentiation total, MSM folds
  for the C and IC terms, fixed-argument G2 lines replayed from the
  verifying-key cache).  Both paths run warm — the G2 precomputation
  and the IC checkpoint table amortize across batches, so the timed
  run is the steady state a long-lived service sees.  The op counters
  are recorded alongside wall clock so the 128+32 -> 35+1 economics
  are visible in the JSON, not just the speedup.
* **Service layer** — one fixed batch of jobs through
  ``ProvingService``'s verify stage at ``verify_window=1`` (every proof
  its own window: the exact 4 + 1 check per proof) and at
  ``verify_window=len(jobs)`` (one RLC window over the batch); jobs/sec
  per window size.

Results land in EXPERIMENTS.md and BENCH_batch_verify.json.

Set ``BATCH_VERIFY_TINY=1`` (CI smoke) to run a small service batch at
both window sizes with correctness asserts and a
windowed >= one-proof-windows jobs/sec check — no file writes.
"""

import json
import os
import random
import re
import time
from pathlib import Path

from repro.curves import CURVES
from repro.ff.opcount import OpCounter
from repro.service import ProofJob, ProvingService
from repro.snark import BatchVerifier, Groth16Prover, Groth16Verifier, \
    R1CS, setup

TINY = os.environ.get("BATCH_VERIFY_TINY", "") == "1"

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS_MD = REPO_ROOT / "EXPERIMENTS.md"
BENCH_JSON = REPO_ROOT / "BENCH_batch_verify.json"
_MARK_START = "<!-- batch-verify-ablation:start -->"
_MARK_END = "<!-- batch-verify-ablation:end -->"

BATCH = 32
VERIFY_CURVES = ("ALT-BN128", "BLS12-381")

SERVICE_JOBS = [("square", (3 + i,)) for i in range(8)]
TINY_JOBS = SERVICE_JOBS[:4]


def _proof_batch(curve_name, distinct=4):
    """`distinct` real proofs over the square circuit, tiled to BATCH."""
    curve = CURVES[curve_name]
    f = curve.fr
    r1cs = R1CS(field=f, n_public=1)
    x = r1cs.new_variable()
    r1cs.add_constraint({x: 1}, {x: 1}, {1: 1})
    keys = setup(r1cs, curve, random.Random(5))
    prover = Groth16Prover(r1cs, keys.proving_key, curve)
    proofs, publics = [], []
    for i in range(distinct):
        x_val = 3 + i
        assignment = [1, x_val * x_val % f.modulus, x_val]
        proofs.append(prover.prove(assignment, random.Random(500 + i)))
        publics.append([x_val * x_val % f.modulus])
    tiled_p = [proofs[i % distinct] for i in range(BATCH)]
    tiled_x = [publics[i % distinct] for i in range(BATCH)]
    return curve, keys, tiled_p, tiled_x


def _verify_row(curve_name):
    curve, keys, proofs, publics = _proof_batch(curve_name)
    single = Groth16Verifier(keys.verifying_key, curve)
    batch = BatchVerifier(keys.verifying_key, curve)
    # warm both paths: IC checkpoint table + fixed-argument G2 lines
    assert single.verify(proofs[0], publics[0])
    assert batch.verify_batch(proofs[:2], publics[:2], random.Random(1))

    per_counter = OpCounter()
    t0 = time.perf_counter()
    for proof, inputs in zip(proofs, publics):
        assert single.verify(proof, inputs, counter=per_counter)
    per_proof_s = time.perf_counter() - t0

    batch_counter = OpCounter()
    t0 = time.perf_counter()
    assert batch.verify_batch(proofs, publics, random.Random(2),
                              counter=batch_counter)
    batched_s = time.perf_counter() - t0

    assert batch_counter.total("miller_loop") == BATCH + 3
    assert batch_counter.total("final_exp") == 1
    assert batch_counter.total("g2_precomp") == 0  # warm
    return {
        "kind": "verify",
        "curve": curve_name,
        "batch": BATCH,
        "per_proof_s": round(per_proof_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(per_proof_s / batched_s, 2),
        "per_proof_miller_loops": per_counter.total("miller_loop"),
        "per_proof_final_exps": per_counter.total("final_exp"),
        "batched_miller_loops": batch_counter.total("miller_loop"),
        "batched_final_exps": batch_counter.total("final_exp"),
    }


def _service_row(window, jobs_spec):
    jobs = [ProofJob("ALT-BN128", circuit, witness, backend="python")
            for circuit, witness in jobs_spec]
    with ProvingService(workers=2, timeout=300, retries=0,
                        verify_window=window,
                        verify_window_timeout=5.0) as svc:
        t0 = time.perf_counter()
        results = svc.prove_batch(jobs)
        wall = time.perf_counter() - t0
    assert all(r.ok and r.verified for r in results), [
        (r.job_id, r.error) for r in results if not r.ok
    ]
    return {
        "kind": "service",
        "verify_window": window,
        "jobs": len(jobs),
        "wall_s": round(wall, 4),
        "jobs_per_s": round(len(jobs) / wall, 4),
    }


def _write_outputs(verify_rows, service_rows):
    payload = {
        "benchmark": "batch-verify",
        "unit": ("seconds per 32-proof batch (verify rows); jobs/sec "
                 "(service rows)"),
        "cpu_cores": os.cpu_count() or 1,
        "rows": verify_rows + service_rows,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        _MARK_START,
        "## Batched-verification ablation — RLC windows vs per-proof checks",
        "",
        f"Verifier layer: {BATCH} square-circuit proofs per curve, "
        "verified one at a time (4 Miller loops + 1 final exponentiation "
        "each) vs as one random-linear-combination batch "
        f"({BATCH} + 3 Miller loops + 1 final exponentiation total, both "
        "paths warm). Service layer: one batch of "
        f"{len(SERVICE_JOBS)} ALT-BN128 jobs through the service's verify "
        "stage per window size (1 = every proof checked on its own), "
        "2 workers. Raw rows: `BENCH_batch_verify.json`.",
        "",
        "| curve | batch | per-proof (s) | batched (s) | speedup | "
        "Miller loops (per-proof -> batched) |",
        "|---|---|---|---|---|---|",
    ]
    for r in verify_rows:
        lines.append(
            f"| {r['curve']} | {r['batch']} | {r['per_proof_s']:.2f} | "
            f"{r['batched_s']:.2f} | {r['speedup']:.1f}x | "
            f"{r['per_proof_miller_loops']} -> "
            f"{r['batched_miller_loops']} |"
        )
    lines += [
        "",
        "| service verify_window | jobs | wall (s) | jobs/sec |",
        "|---|---|---|---|",
    ]
    for r in service_rows:
        lines.append(
            f"| {r['verify_window']} | {r['jobs']} | {r['wall_s']:.2f} | "
            f"{r['jobs_per_s']:.3f} |"
        )
    lines += ["", _MARK_END]
    block = "\n".join(lines)
    text = EXPERIMENTS_MD.read_text()
    pattern = re.compile(
        re.escape(_MARK_START) + ".*?" + re.escape(_MARK_END), re.DOTALL
    )
    if pattern.search(text):
        text = pattern.sub(block, text)
    else:
        text = text.rstrip("\n") + "\n\n" + block + "\n"
    EXPERIMENTS_MD.write_text(text)


def test_batch_verify_ablation(regen):
    if TINY:
        windowed = _service_row(len(TINY_JOBS), TINY_JOBS)
        per_proof = _service_row(1, TINY_JOBS)
        assert windowed["jobs_per_s"] > 0
        # one N + 3 window must not lose to N windows of one at 4 + 1
        assert windowed["jobs_per_s"] >= per_proof["jobs_per_s"]
        return

    def sweep():
        verify_rows = [_verify_row(curve) for curve in VERIFY_CURVES]
        service_rows = [_service_row(window, SERVICE_JOBS)
                        for window in (1, len(SERVICE_JOBS))]
        return verify_rows, service_rows

    verify_rows, service_rows = regen(sweep)
    print()
    print("Batched verification vs per-proof (32-proof batches)")
    for r in verify_rows:
        print(f"{r['curve']:>12} per-proof {r['per_proof_s']:>7.2f}s "
              f"batched {r['batched_s']:>6.2f}s -> {r['speedup']:.1f}x")
    for r in service_rows:
        print(f"service verify_window={r['verify_window']:<2} "
              f"{r['jobs_per_s']:.3f} jobs/s")

    for r in verify_rows:
        assert r["speedup"] >= 3.0, (
            f"{r['curve']}: batched speedup {r['speedup']}x < 3x")
    per_proof, windowed = service_rows
    assert windowed["jobs_per_s"] > per_proof["jobs_per_s"], (
        "one RLC window must beat one-proof windows on jobs/sec")
    _write_outputs(verify_rows, service_rows)


if __name__ == "__main__":  # manual run without pytest-benchmark
    verify_rows = [_verify_row(curve) for curve in VERIFY_CURVES]
    service_rows = [_service_row(window, SERVICE_JOBS)
                    for window in (1, len(SERVICE_JOBS))]
    for row in verify_rows + service_rows:
        print(row)
    _write_outputs(verify_rows, service_rows)
