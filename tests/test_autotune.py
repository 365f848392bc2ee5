"""(k, M) is decided once, in ``GzkpMsm.configure``.

The joint (k, M) autotuner that used to sit beside the engine's own
search is gone (DESIGN.md §9 records the measurements). What is pinned
here: the search's answers, by a table captured from that tuner before
it was deleted; the invariant that makes a k-only search exhaustive;
and that an explicit override and the search prove the same bytes —
also when handed the names the frozen perf ledger still passes.
"""

import random

from repro.backend.autotune import KernelAutotuner
from repro.curves import CURVES
from repro.gpusim import GTX1080TI, V100
from repro.msm.gzkp import WINDOW_RANGE, GzkpMsm
from repro.msm.windows import num_windows

#: (device, curve, group, log2 n) -> (k, M) as resolved at commit
#: efe8bc0 by ``GzkpMsm(..., tuner=KernelAutotuner(persist=False))
#: .configure(n)`` — the deleted joint search, not the code under test.
#: Includes every regime: M = 1, and budget-forced M > 1 on all three
#: curves, both groups and both devices.
PINNED_KM = [
    (V100, "ALT-BN128", "g1", 1, (6, 1)),
    (V100, "ALT-BN128", "g1", 10, (10, 1)),
    (V100, "ALT-BN128", "g1", 14, (13, 1)),
    (V100, "ALT-BN128", "g1", 24, (19, 3)),
    (V100, "ALT-BN128", "g1", 26, (20, 9)),
    (V100, "ALT-BN128", "g2", 16, (15, 1)),
    (V100, "BLS12-381", "g1", 12, (12, 1)),
    (V100, "BLS12-381", "g1", 20, (17, 1)),
    (V100, "BLS12-381", "g2", 22, (17, 2)),
    (V100, "BLS12-381", "g2", 24, (17, 8)),
    (V100, "MNT4753", "g1", 9, (11, 1)),
    (V100, "MNT4753", "g1", 10, (12, 1)),
    (V100, "MNT4753", "g1", 22, (18, 5)),
    (V100, "MNT4753", "g2", 24, (16, 45)),
    (GTX1080TI, "ALT-BN128", "g1", 20, (17, 1)),
    (GTX1080TI, "BLS12-381", "g1", 24, (17, 11)),
    (GTX1080TI, "MNT4753", "g2", 22, (16, 33)),
]


def _engine(device, curve_name, group_name, **kwargs):
    """The prover's engine for one group (G2 coordinates cost 3 Fq
    multiplications each, as in ``make_gzkp_prover``)."""
    curve = CURVES[curve_name]
    return GzkpMsm(getattr(curve, group_name), curve.fr.bits, device,
                   fq_mul_factor=3.0 if group_name == "g2" else 1.0,
                   **kwargs)


def test_profile_search_is_deterministic():
    """The profiling search resolves exactly the pinned (k, M) on a
    fresh engine every time — also when handed a ``tuner=``, which the
    ledger still passes and which selects nothing."""
    for device, curve, group, log_n, want in PINNED_KM:
        n = 1 << log_n
        for kwargs in ({}, {"tuner": KernelAutotuner()}):
            cfg = _engine(device, curve, group, **kwargs).configure(n)
            assert (cfg.window, cfg.interval) == want, \
                (device.name, curve, group, log_n)


def _modeled_seconds(engine, n, k, m):
    return engine.device.time_of(engine._plan_with_cfg(
        n, engine._make_config(n, k, m), None))


def test_msm_search_beats_or_matches_defaults():
    """Why searching k alone is exhaustive: at every k, modeled time
    never falls as the checkpoint interval grows past the smallest one
    the memory budget allows (a sparser table only adds residual-fold
    doublings), so the engine's choice is at least as fast as every
    (k, M) a joint search could visit. A cost-model change that breaks
    this makes the k-only search a heuristic — and fails here."""
    for curve in sorted(CURVES):
        for group in ("g1", "g2"):
            engine = _engine(V100, curve, group)
            for log_n in (6, 10, 14, 18, 22, 26):
                n = 1 << log_n
                chosen = engine.configure(n)
                best = _modeled_seconds(engine, n, chosen.window,
                                        chosen.interval)
                for k in WINDOW_RANGE:
                    floor = engine._interval_for(n, k)
                    top = min(floor + 8, num_windows(engine.scalar_bits, k))
                    ladder = [_modeled_seconds(engine, n, k, m)
                              for m in range(floor, top + 1)]
                    assert ladder == sorted(ladder), (curve, group, n, k)
                    assert best <= ladder[0], (curve, group, n, k)


def test_autotuned_proof_is_byte_identical():
    """(k, M) changes throughput only: a prover on an explicit (6, 3)
    and one on the engine's search emit the same group elements under
    identical masks. ``autotune=True`` is what the ledger passes; it
    is accepted and selects nothing."""
    from repro.circuits import merkle_tree_circuit
    from repro.snark import setup
    from repro.snark.gzkp_prover import make_gzkp_prover

    curve = CURVES["ALT-BN128"]
    r1cs, assignment = merkle_tree_circuit(curve.fr, depth=2, seed=31)
    keys = setup(r1cs, curve, random.Random(31))
    plain = make_gzkp_prover(r1cs, keys.proving_key, curve,
                             msm_window=6, msm_interval=3)
    searched = make_gzkp_prover(r1cs, keys.proving_key, curve,
                                autotune=True)
    p_plain = plain._prove_with_masks(assignment, 12345, 67890)
    p_searched = searched._prove_with_masks(assignment, 12345, 67890)
    assert (p_plain.a, p_plain.b, p_plain.c) == \
        (p_searched.a, p_searched.b, p_searched.c)
