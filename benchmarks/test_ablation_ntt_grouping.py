"""Ablation: NTT batch width B and groups-per-block G (§3, Figure 4).

The internal shuffle needs G >= 4 consecutive groups per block for full
L2-line use; B controls how many passes over the vector the transform
makes (ceil(log N / B) batches, each a full read + write).
"""

import math

from repro.curves import CURVES
from repro.gpusim import V100
from repro.gpusim.trace import DFP_BACKEND, Trace
from repro.ntt import GzkpNtt


def sweep_batch_width(n=1 << 22, widths=(2, 4, 6, 8, 10)):
    """Model latency under forced batch widths (G fixed at 4), keeping
    everything else equal: butterflies at DFP rate + per-batch traffic."""
    fr = CURVES["BLS12-381"].fr
    log_n = n.bit_length() - 1
    elem = fr.limbs64 * 8
    rows = []
    for width in widths:
        n_batches = math.ceil(log_n / width)
        trace = Trace()
        trace.add_gpu_muls(fr.bits, (n // 2) * log_n, DFP_BACKEND)
        trace.add_gpu_adds(fr.bits, n * log_n)
        trace.add_global_traffic(n_batches * 3 * n * elem, coalescing=1.0)
        blocks = max(n // (4 << width), 1)
        trace.add_kernel(blocks=n_batches * blocks, launches=n_batches)
        rows.append({"width": width, "n_batches": n_batches,
                     "ms": V100.time_of(trace) * 1e3})
    return rows


def test_batch_width_tradeoff(regen):
    rows = regen(sweep_batch_width)
    print()
    print("Ablation: NTT batch width B (BLS12-381, 2^22, G=4)")
    print(f"{'B':>4} {'batches':>8} {'ms':>9}")
    for r in rows:
        print(f"{r['width']:>4} {r['n_batches']:>8} {r['ms']:>9.2f}")
    # Wider batches mean fewer passes: latency must not increase with B.
    ms = [r["ms"] for r in rows]
    assert all(a >= b * 0.999 for a, b in zip(ms, ms[1:]))
    # But B is capped by shared memory: the auto-configuration respects it.
    cfg = GzkpNtt(CURVES["MNT4753"].fr, V100).configure(1 << 22)
    staged_bytes = cfg.groups_per_block * (1 << cfg.batch_width) * 12 * 8
    assert staged_bytes <= V100.shared_mem_per_sm // 2


def test_min_groups_preserves_coalescing():
    """With G >= 4 the plan's traffic is fully coalesced; the
    configuration never drops below the minimum."""
    for curve in ("ALT-BN128", "BLS12-381", "MNT4753"):
        fr = CURVES[curve].fr
        engine = GzkpNtt(fr, V100)
        for lg in (14, 18, 22, 26):
            cfg = engine.configure(1 << lg)
            assert cfg.groups_per_block >= GzkpNtt.MIN_GROUPS
            assert engine.plan(1 << lg).coalescing_efficiency() == 1.0
