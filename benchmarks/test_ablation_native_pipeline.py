"""End-to-end prover ablation: the native kernel floor vs the scalar
fallbacks.

Times one *full* Groth16 proof (POLY + all five MSMs) per curve under
three configurations of the same pipeline:

* **python** — the scalar reference backend;
* **numpy-scalar** — the numpy backend with ``REPRO_NATIVE=0``: its
  fallback, the same scalar loops as ``python`` for every op, plus the
  vectorized MSM digit front-end — the only place a compiler-less
  whole proof is timed;
* **native** — the numpy backend with the compiled CIOS kernels
  (Stockham NTT passes, pointwise passes, Jacobian point kernels and
  the segmented bucket tree).

Every configuration's MSM (k, M) is the same deterministic search
(:meth:`~repro.msm.gzkp.GzkpMsm.configure` prices modeled GPU seconds,
not this host), so the rows differ **only in the kernel floor**.

All three run ``_prove_with_masks`` with identical masks and must emit
byte-identical group elements — the ablation measures throughput of a
*fixed* computation, never a different proof. Results land in
``BENCH_native_pipeline.json`` and an EXPERIMENTS.md block.

Set ``NATIVE_PIPELINE_TINY=1`` (CI smoke) for a single-curve run that
still writes the JSON and asserts the acceptance bar: native beats the
numpy scalar fallback on a full proof.
"""

import json
import os
import re
import time
from pathlib import Path

import pytest

from repro.backend import _INSTANCES, available_backends
from repro.backend.native import NATIVE_ENV_VAR, native_available

TINY = os.environ.get("NATIVE_PIPELINE_TINY", "") == "1"

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS_MD = REPO_ROOT / "EXPERIMENTS.md"
BENCH_JSON = REPO_ROOT / "BENCH_native_pipeline.json"
_MARK_START = "<!-- native-pipeline-ablation:start -->"
_MARK_END = "<!-- native-pipeline-ablation:end -->"

CURVES_FULL = ("ALT-BN128", "BLS12-381", "MNT4753")
CURVES_TINY = ("ALT-BN128",)
ROUNDS = 16 if TINY else 48
REPS = 1 if TINY else 2
#: CI-noise tolerance on the tiny smoke's native-vs-numpy assertion
TINY_TOLERANCE = 1.10


def _set_native(enabled: bool) -> None:
    if enabled:
        os.environ.pop(NATIVE_ENV_VAR, None)
    else:
        os.environ[NATIVE_ENV_VAR] = "0"
    # engines resolve backends by name per proof; drop the singletons
    # so the flipped env is honoured (the loader self-resets)
    _INSTANCES.clear()


def _best_proof_time(prover, assignment, reps):
    best = float("inf")
    proof = None
    for _ in range(reps):
        t0 = time.perf_counter()
        proof = prover._prove_with_masks(assignment, 12345, 67890)
        best = min(best, time.perf_counter() - t0)
    return best, proof


def _curve_row(curve_name: str):
    import random

    from repro.circuits import sha256_like_circuit
    from repro.curves import CURVES
    from repro.snark import setup
    from repro.snark.gzkp_prover import make_gzkp_prover

    curve = CURVES[curve_name]
    r1cs, assignment = sha256_like_circuit(curve.fr, rounds=ROUNDS, seed=1)
    keys = setup(r1cs, curve, random.Random(31))
    configs = (
        ("python", "python", True),
        ("numpy_scalar", "numpy", False),
        ("native", "numpy", True),
    )
    times = {}
    proofs = {}
    try:
        for label, backend, native_on in configs:
            _set_native(native_on)
            prover = make_gzkp_prover(
                r1cs, keys.proving_key, curve, backend=backend)
            prover._prove_with_masks(assignment, 1, 2)  # warm caches
            times[label], proofs[label] = _best_proof_time(
                prover, assignment, REPS)
    finally:
        _set_native(True)
    ref = proofs["python"]
    for label, proof in proofs.items():
        assert (proof.a, proof.b, proof.c) == (ref.a, ref.b, ref.c), (
            f"{label} changed the proof — ablation invalid")
    return {
        "curve": curve_name,
        "circuit": f"sha256-like r={ROUNDS}",
        "constraints": len(r1cs.constraints),
        "domain": r1cs.domain_size(),
        "python_ms": times["python"] * 1e3,
        "numpy_scalar_ms": times["numpy_scalar"] * 1e3,
        "native_ms": times["native"] * 1e3,
        "native_vs_numpy": times["numpy_scalar"] / times["native"],
        "native_vs_python": times["python"] / times["native"],
    }


def sweep_native_pipeline():
    return [_curve_row(c) for c in (CURVES_TINY if TINY else CURVES_FULL)]


def _write_outputs(rows):
    payload = {
        "bench": "native-pipeline-ablation",
        "tiny": TINY,
        "reps": REPS,
        "rows": rows,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    lines = [
        _MARK_START,
        "## Native-pipeline ablation — full proofs, three backends",
        "",
        f"One full Groth16 proof (sha256-like circuit, r={ROUNDS}; "
        f"best of {REPS}, caches warm), identical proof bytes across "
        "configs:",
        "",
        "| curve | domain | python (ms) | numpy scalar (ms) | "
        "native (ms) | native vs numpy | native vs python |",
        "|---|---|---|---|---|---|---|",
    ]
    regressed = []
    for r in rows:
        vs_py = r["native_vs_python"]
        flag = "" if vs_py >= 1.0 else " ⚠ slower than python"
        if flag:
            regressed.append(r["curve"])
        lines.append(
            f"| {r['curve']} | {r['domain']} | {r['python_ms']:.0f} | "
            f"{r['numpy_scalar_ms']:.0f} | {r['native_ms']:.0f} | "
            f"{r['native_vs_numpy']:.2f}x | {vs_py:.2f}x{flag} |")
    lines += [
        "",
        "`native` routes the NTT butterflies, pointwise passes "
        "and Jacobian bucket folds through the compiled CIOS kernels; "
        "`numpy scalar` is the same pipeline with `REPRO_NATIVE=0` — "
        "the `python` backend's scalar loops for every op, beside the "
        "numpy digit front-end of the MSM. "
        "Every row's MSM (k, M) is the same deterministic search, so "
        "the rows differ only in the kernel floor. "
        "A `native vs python` below 1.0x is a regression "
        "flag: the native pipeline must not lose to the scalar "
        "reference. Raw rows in `BENCH_native_pipeline.json`.",
        _MARK_END,
    ]
    if regressed:
        lines.insert(-1, f"\n**Regression flagged:** native loses to "
                     f"python on {', '.join(regressed)}.")
    block = "\n".join(lines)
    text = EXPERIMENTS_MD.read_text()
    pattern = re.compile(
        re.escape(_MARK_START) + ".*?" + re.escape(_MARK_END), re.DOTALL)
    if pattern.search(text):
        text = pattern.sub(block, text)
    else:
        text = text.rstrip("\n") + "\n\n" + block + "\n"
    EXPERIMENTS_MD.write_text(text)


def test_native_pipeline_ablation(regen):
    assert "numpy" in available_backends(), "numpy backend unavailable"
    if not native_available():
        pytest.skip("no C compiler: native floor unavailable")
    rows = regen(sweep_native_pipeline)
    print()
    print(f"Native-pipeline ablation (sha256-like r={ROUNDS}, "
          f"best of {REPS}):")
    print(f"{'curve':>12} {'python':>9} {'numpy':>9} {'native':>9} "
          f"{'vs numpy':>9} {'vs python':>10}")
    for r in rows:
        print(f"{r['curve']:>12} {r['python_ms']:>8.0f}m "
              f"{r['numpy_scalar_ms']:>8.0f}m "
              f"{r['native_ms']:>8.0f}m "
              f"{r['native_vs_numpy']:>8.2f}x "
              f"{r['native_vs_python']:>9.2f}x")
    for r in rows:
        bar = TINY_TOLERANCE if TINY else 1.0
        assert r["native_ms"] <= r["numpy_scalar_ms"] * bar, (
            f"{r['curve']}: native ({r['native_ms']:.0f}ms) "
            f"did not beat the numpy scalar fallback "
            f"({r['numpy_scalar_ms']:.0f}ms)")
    if not TINY:
        # with the Jacobian bucket folds on the native floor, every
        # curve — including the wide-modulus MNT4753 — must beat the
        # scalar python reference on a full proof
        for r in rows:
            assert r["native_vs_python"] >= 1.0, (
                f"{r['curve']}: native pipeline "
                f"({r['native_ms']:.0f}ms) lost to python "
                f"({r['python_ms']:.0f}ms)")
    _write_outputs(rows)
