"""Convenience: a Groth16 prover wired with the actual GZKP engines.

The default :class:`~repro.snark.prover.Groth16Prover` uses reference
engines. This factory plugs in the real pipeline — the GZKP-scheduled
NTT for the POLY stage and the consolidated checkpointed MSM for all
five MSMs — so integration tests (and curious users) can confirm the
paper's engines produce byte-identical, verifying proofs.

Amortization (§4.1): the five proving-key point vectors never change
for a circuit, so the factory pre-builds one
:class:`~repro.msm.context.MsmContext` per query at construction and
every subsequent proof reuses the checkpoint tables — zero preprocess
doublings on the per-proof hot path. The contexts live in an
:class:`~repro.msm.context.MsmContextCache` bounded by the device's
preprocessing memory budget (Figure 9), so a query too large for the
budget simply falls back to per-call preprocessing.
"""

from __future__ import annotations

from typing import Optional

from repro.curves.params import CurvePair
from repro.gpusim import V100
from repro.gpusim import cost
from repro.gpusim.device import GpuDevice
from repro.msm.context import MsmContextCache
from repro.msm.gzkp import GzkpMsm
from repro.ntt.gpu_gzkp import GzkpNtt
from repro.snark.keys import ProvingKey
from repro.snark.prover import Groth16Prover
from repro.snark.r1cs import R1CS

__all__ = ["make_gzkp_prover"]


def make_gzkp_prover(r1cs: R1CS, pk: ProvingKey, curve: CurvePair,
                     device: GpuDevice = V100,
                     msm_window: Optional[int] = None,
                     msm_interval: Optional[int] = None,
                     backend=None, msm_executor=None,
                     precompute: bool = True,
                     telemetry=None,
                     autotune: bool = False) -> Groth16Prover:
    """A Groth16 prover whose POLY stage runs the GZKP shuffle-less NTT
    and whose MSMs run the consolidated checkpointed algorithm.

    ``msm_window``/``msm_interval`` override both MSM engines' (k, M)
    search (:meth:`~repro.msm.gzkp.GzkpMsm.configure`) — useful at test
    scales where profiling targets (GPU occupancy) are meaningless.
    ``backend`` (a ComputeBackend, name or None = $REPRO_BACKEND)
    reaches every engine in the pipeline: the GZKP NTT, both MSMs and
    the prover's pointwise POLY passes. ``msm_executor`` (an optional
    ``concurrent.futures.Executor``) dispatches the five MSMs as
    parallel tasks.

    ``precompute=True`` builds the per-query MSM contexts (checkpoint
    tables) once, here; with ``telemetry`` attached the build reports
    per-query ``preprocess`` spans. Proof-time calls then record an
    ``msm-context-cache`` hit/miss event per MSM on the job's
    telemetry. The cache is exposed as ``prover.msm_contexts``.
    """
    # ``autotune`` is accepted and unused: the frozen perf ledger
    # (benchmarks/ledger/stations.py) still passes it.
    ntt_engine = GzkpNtt(curve.fr, device, backend=backend)
    msm_g1 = GzkpMsm(curve.g1, curve.fr.bits, device,
                     window=msm_window, interval=msm_interval,
                     backend=backend)
    msm_g2 = GzkpMsm(curve.g2, curve.fr.bits, device,
                     window=msm_window, interval=msm_interval,
                     fq_mul_factor=3.0, backend=backend)

    # One bounded cache per prover, keyed by the identity of the
    # proving-key query vector each MSM call receives by reference.
    budget = int(cost.GZKP_PREPROCESS_MEM_FRACTION * device.global_mem_bytes)
    contexts = MsmContextCache(max_entries=8, max_bytes=budget)
    if precompute:
        queries = (
            ("a_query", msm_g1, pk.a_query),
            ("b_g1_query", msm_g1, pk.b_g1_query),
            ("b_g2_query", msm_g2, pk.b_g2_query),
            ("c_query", msm_g1, pk.c_query),
            ("h_query", msm_g1, pk.h_query),
        )
        for label, engine, pts in queries:
            if not pts:
                continue
            ctx = engine.build_context(list(pts), telemetry=telemetry,
                                       label=label)
            contexts.put(id(pts), ctx)

    def _run(engine, scalars, points, counter, telemetry):
        ctx = contexts.get(id(points))
        if telemetry is not None:
            telemetry.record_event(
                "msm-context-cache",
                "hit" if ctx is not None else "miss",
                label=ctx.label if ctx is not None else "",
                n=len(points),
            )
        return engine.compute(list(scalars), list(points), counter=counter,
                              telemetry=telemetry, context=ctx)

    def run_g1(scalars, points, counter=None, telemetry=None):
        return _run(msm_g1, scalars, points, counter, telemetry)

    def run_g2(scalars, points, counter=None, telemetry=None):
        return _run(msm_g2, scalars, points, counter, telemetry)

    prover = Groth16Prover(r1cs, pk, curve, ntt_engine=ntt_engine,
                           msm_g1=run_g1, msm_g2=run_g2, backend=backend,
                           msm_executor=msm_executor)
    prover.msm_contexts = contexts
    return prover
