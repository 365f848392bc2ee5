"""Calibration constants for the device cost model.

Every constant is calibrated ONCE against numbers the paper itself
reports, then held fixed for all experiments; EXPERIMENTS.md records the
paper-vs-model value for every regenerated cell. The claim is shape
fidelity (who wins, scaling, crossovers, OOM points), not absolute
nanoseconds — see DESIGN.md §2/§6.

Anchors used:

* V100 DFP throughput — GZKP single-NTT times, Table 5 (256-bit 2^24 =
  20.99 ms and 753-bit 2^24 = 141.4 ms). Fitting both gives the
  sub-quadratic limb-scaling exponent 1.74 (bigger operands utilise the
  pipelines better).
* V100 integer throughput — Figure 8's "BG w. lib is 1.6x faster than
  BG" at 256-bit (and cross-checked against Figure 10's 33% library gain
  at 381-bit, which the resulting ratio 1.38 matches).
* GTX 1080 Ti — Table 6 / Table 8 ratios vs the V100 (~3.3x slower).
* CPU modmul/add — §1's measured 230 ns / 43 ns at 381 bits.
* CPU NTT stall factor — libsnark 753-bit NTT at 2^26 (131.4 s, Table 5):
  strided accesses over a 1.6 GB vector leave the CPU memory-bound.
* Block scheduling overhead — Figure 8's analysis of bellperson's 2^16
  two-thread blocks at NTT scale 2^18.
"""

from __future__ import annotations

__all__ = [
    "LIMB_SCALING_EXPONENT",
    "V100_DFP_LIMB_RATE",
    "V100_INT_LIMB_RATE",
    "GTX1080TI_DFP_LIMB_RATE",
    "GTX1080TI_INT_LIMB_RATE",
    "GPU_ADD_RATE_SCALE",
    "BLOCK_SCHED_OVERHEAD",
    "CPU_PARALLEL_EFFICIENCY",
    "CPU_DISPATCH_OVERHEAD",
    "CPU_NTT_STALL_FACTOR",
    "PADD_MULS",
    "PDBL_MULS",
    "PMIXED_MULS",
    "PADD_ADDS",
    "G2_FQ_MUL_FACTOR",
    "STRIDED_COALESCING",
    "SHUFFLE_COALESCING",
    "BELLPERSON_MSM_UTILIZATION",
    "BELLPERSON_MSM_WINDOW",
    "BELLPERSON_NTT_BATCH_ITERS",
    "MINA_MSM_UTILIZATION",
    "MINA_STRAUS_WINDOW",
    "GZKP_MSM_UTILIZATION",
    "GZKP_PREPROCESS_MEM_FRACTION",
    "MULTI_GPU_EFFICIENCY",
]

# -- arithmetic throughput ------------------------------------------------------

#: Modular-multiplication throughput scales as 1/limbs^e. Fit from the
#: two V100 GZKP NTT anchors (5 vs 15 base-2^52 limbs): e = 1.74.
LIMB_SCALING_EXPONENT = 1.74

#: V100 DFP path: limb-product units per second. 1.7e11 / 5^1.74 gives
#: 1.03e10 255-bit modmuls/s -> 2^24-NTT in ~21 ms (Table 5: 20.99 ms).
V100_DFP_LIMB_RATE = 1.7e11

#: V100 integer path (CIOS word-MACs per second, with the same scaling
#: exponent applied to 2n^2+n). Chosen so the DFP library is ~1.6x faster
#: at 256 bits (Figure 8) and ~1.38x at 381 bits (Figure 10: 33%).
V100_INT_LIMB_RATE = 1.46e11

#: GTX 1080 Ti: ~3.3x below the V100 on both paths (Tables 6/8).
GTX1080TI_DFP_LIMB_RATE = V100_DFP_LIMB_RATE / 3.3
GTX1080TI_INT_LIMB_RATE = V100_INT_LIMB_RATE / 3.3

#: Modular additions per second = scale * int_limb_rate / limbs64.
GPU_ADD_RATE_SCALE = 4.0

#: Seconds per scheduled GPU block (dispatch queue). Calibrated from the
#: Figure 8 discussion of bellperson's degenerate last batch at 2^18 and
#: the Table 5 cell at 2^26 (2^24 two-thread blocks).
BLOCK_SCHED_OVERHEAD = 1.8e-8

# -- CPU --------------------------------------------------------------------------

#: Multi-thread scaling efficiency of the dual-socket Xeon.
CPU_PARALLEL_EFFICIENCY = 0.5

#: Fixed per-operation dispatch cost (thread-pool spin-up, work split).
#: Dominates small scales; calibrated from libsnark's 102 ms at 2^14.
CPU_DISPATCH_OVERHEAD = 0.08

#: Memory-stall multiplier for CPU NTT butterflies (strided access over
#: multi-GB vectors); calibrated from libsnark 753-bit 2^26 = 131.4 s.
CPU_NTT_STALL_FACTOR = 2.6

# -- curve-operation costs (field muls per operation, Jacobian) ----------------------

PADD_MULS = 16    # general Jacobian-Jacobian addition (11M + 5S)
PDBL_MULS = 7     # doubling, a = 0 fast path (2M + 5S)
PMIXED_MULS = 11  # mixed Jacobian-affine addition (7M + 4S)
PADD_ADDS = 7     # field additions/subtractions per PADD (approximate)

#: An Fq2 multiplication costs ~3 Fq multiplications (Karatsuba), so G2
#: curve operations cost ~3x their G1 counterparts.
G2_FQ_MUL_FACTOR = 3.0

#: PADD formulas are chains of ~11 *dependent* multiplications; unlike
#: the NTT's independent butterflies, the dependency stalls are harder to
#: hide with few limbs per element. Modeled as a slowdown
#: 1 + MSM_CHAIN_STALL / limbs52(bits): ~2x at 256 bits, ~1.3x at 753.
#: Calibrated so GZKP's 381-bit MSM at 2^26 lands on Table 7's 4.00 s.
MSM_CHAIN_STALL = 5.0

#: CPU MSM bucket scatter is cache-hostile at small operand sizes (the
#: working set is pointer-chasing-bound); wide operands amortise it.
#: 1 + 2/limbs64: 1.5x at 256 bits (calibrated from libsnark 2^26 =
#: 65.7 s, Table 7), fading to 1.17x at 753 bits.
CPU_MSM_STALL_NUMERATOR = 2.0

#: Fixed per-MSM-call overhead of the GZKP pipeline (digit-sort kernel
#: setup, stream synchronisation, result readback). Calibrated from
#: Table 7's small-scale GZKP cells (~4 ms at 2^14).
GPU_MSM_FIXED_OVERHEAD = 3e-3

#: bellperson's window-per-thread imbalance is partially hidden by
#: overlapping windows across sub-MSMs; the observed straggler penalty
#: grows as imbalance^0.5 (MINA's serial accumulator pays it in full).
BELLPERSON_IMBALANCE_EXPONENT = 0.5


def cpu_msm_stall(bits: int) -> float:
    """CPU bucket-method memory-stall factor at a given bit-width."""
    limbs64 = (bits + 63) // 64
    return 1.0 + CPU_MSM_STALL_NUMERATOR / limbs64


def msm_chain_stall(bits: int) -> float:
    """Dependency-stall slowdown of PADD chains at a given bit-width."""
    limbs52 = (bits + 51) // 52
    return 1.0 + MSM_CHAIN_STALL / limbs52

# -- memory-access quality ------------------------------------------------------------

#: L2-line utilisation of a strided 8-byte-per-thread access pattern with
#: 32-byte lines (the baseline NTT's later iterations, §2.2/§3).
STRIDED_COALESCING = 0.25

#: Effective coalescing of a global-memory shuffle pass (gather one side,
#: scatter the other): reads coalesced, writes strided. Deeper batches
#: scatter at larger strides, losing TLB/row-buffer locality on top of
#: the line under-use — modeled as exponential decay with the batch's
#: starting iteration.
#:
#: Calibration note: the paper's §2.2 quotes shuffles at 42%-81% of
#: per-batch time, while Figure 8 shows the (compute-only) library
#: giving 1.6x overall — the two cannot both hold in one consistent
#: model (a 1.6x compute-side gain requires compute to dominate). We
#: calibrate to the quantitative data (Table 5 cells + the Figure 8
#: ladder); the modeled shuffle share then sits at 25%-35%, below the
#: prose range but with the right growth trend across batches.
SHUFFLE_COALESCING = 0.4
SHUFFLE_COALESCING_FLOOR = 0.10
SHUFFLE_LOCALITY_HALF_LIFE = 16.0  # iterations of stride growth per halving


def shuffle_coalescing(shift: int) -> float:
    """Effective coalescing of the reorder pass before a batch whose
    first iteration is ``shift`` (stride 2^shift)."""
    decay = 0.5 ** (shift / SHUFFLE_LOCALITY_HALF_LIFE)
    return max(SHUFFLE_COALESCING_FLOOR, SHUFFLE_COALESCING * decay)

# -- per-system behavioural parameters -------------------------------------------------

#: bellperson's effective GPU utilisation in MSM: window-per-thread
#: parallelism leaves long serial bucket chains per thread and uneven
#: finish times even on dense inputs (§2.3, Figure 10's 3.25x).
BELLPERSON_MSM_UTILIZATION = 0.45

#: bellperson's fixed Pippenger window size (c ~ 10 in the CUDA kernel).
BELLPERSON_MSM_WINDOW = 10

#: bellperson groups 8 NTT iterations per batch (Figure 8 discussion).
BELLPERSON_NTT_BATCH_ITERS = 8

#: MINA's MSM utilisation (Straus, window-serial inner loops).
MINA_MSM_UTILIZATION = 0.5

#: MINA's Straus precomputation window (table of 2^w multiples per
#: point). w = 4 reproduces Figure 9's OOM above scale 2^22 on 32 GB.
MINA_STRAUS_WINDOW = 4

#: GZKP's bucket-level task mapping keeps nearly all warps busy.
GZKP_MSM_UTILIZATION = 0.95

#: Without fine-grained task mapping (the "GZKP-no-LB" variant), one
#: warp per bucket regardless of load leaves tail buckets straggling
#: even on dense inputs (Poisson load variation + scheduling order).
#: Figure 10: enabling LB buys ~1.3x on the dense 2^22 workload.
GZKP_NO_LB_PENALTY = 0.75

#: Fraction of GPU global memory GZKP's profiler budgets for the
#: checkpoint-preprocessed point table (Algorithm 1); drives Figure 9's
#: memory plateau. The budget saturates around scale 2^22 at 381 bits —
#: where the paper's GZKP-BLS curve flattens.
GZKP_PREPROCESS_MEM_FRACTION = 0.2

#: Scaling efficiency with 4 GPUs (Table 4: ~2.1x over one card,
#: inter-card transfers included separately).
MULTI_GPU_EFFICIENCY = 0.65
