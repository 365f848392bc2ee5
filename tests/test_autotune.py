"""Cost-model autotuner: search determinism, disk round-trip, and the
certifier gate that every tuned cadence must clear."""

import random

import pytest

from repro.backend.autotune import (
    WINDOW_RANGE,
    KernelAutotuner,
    TunedProfile,
    TuningError,
)
from repro.curves import CURVES
from repro.errors import FieldError
from repro.ff.params import SCALAR_FIELDS


@pytest.fixture()
def private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    return tmp_path


def test_msm_search_beats_or_matches_defaults(private_cache):
    """The joint (k, M) search must never model slower than the
    profiler default it replaces."""
    from repro.gpusim import V100
    from repro.msm.gzkp import GzkpMsm

    curve = CURVES["ALT-BN128"]
    engine = GzkpMsm(curve.g1, curve.fr.bits, V100)
    tuner = KernelAutotuner(persist=False)
    n = 512
    cfg = tuner.msm_config(engine, n)
    assert cfg.window in WINDOW_RANGE
    # the profiler default fixes M = _interval_for(n, k); the joint
    # search includes every such point and prices it with the same
    # plan, so it can only improve
    default_best = min(
        V100.time_of(engine._plan_with_cfg(
            n, engine._make_config(n, k, engine._interval_for(n, k)),
            None))
        for k in WINDOW_RANGE
    )
    tuned = V100.time_of(engine._plan_with_cfg(n, cfg, None))
    assert tuned <= default_best + 1e-12


def test_profile_search_is_deterministic(private_cache):
    curve = CURVES["ALT-BN128"]
    a = KernelAutotuner(persist=False).profile(curve, 256)
    b = KernelAutotuner(persist=False).profile(curve, 256)
    assert (a.g1_window, a.g1_interval, a.g2_window, a.g2_interval,
            a.clean_every) == \
        (b.g1_window, b.g1_interval, b.g2_window, b.g2_interval,
         b.clean_every)
    assert a.source == b.source == "search"


def test_profile_disk_round_trip(private_cache):
    curve = CURVES["BLS12-381"]
    fresh = KernelAutotuner().profile(curve, 256)
    assert fresh.source == "search"
    reloaded = KernelAutotuner().profile(curve, 256)
    assert reloaded.source == "disk"
    assert (reloaded.g1_window, reloaded.g1_interval,
            reloaded.g2_window, reloaded.g2_interval,
            reloaded.clean_every) == \
        (fresh.g1_window, fresh.g1_interval,
         fresh.g2_window, fresh.g2_interval, fresh.clean_every)


def test_tampered_profile_is_resought(private_cache):
    """A profile edited to an out-of-range window fails revalidation
    and triggers a fresh search — never a blind trust of disk state."""
    import json
    import os

    curve = CURVES["ALT-BN128"]
    tuner = KernelAutotuner()
    prof = tuner.profile(curve, 256)
    path = tuner._profile_path(curve.name, 256, prof.device)
    payload = json.loads(open(path).read())
    payload["g1_window"] = 99  # outside WINDOW_RANGE
    with open(path, "w") as fh:
        json.dump(payload, fh)
    reloaded = KernelAutotuner().profile(curve, 256)
    assert reloaded.source == "search"
    assert reloaded.g1_window == prof.g1_window
    assert os.path.exists(path)

    # A stale profile is as untrusted as a tampered one: a version-1
    # file (searched under the deleted conversion pricing) holding an
    # in-range (k, M) that revalidates against the live engine must be
    # ignored and re-searched, at both levels of the cache.
    from repro.backend.autotune import PROFILE_VERSION
    from repro.gpusim import V100
    from repro.msm.gzkp import GzkpMsm

    assert PROFILE_VERSION > 1
    payload = json.loads(open(path).read())
    stale_window = prof.g1_window + 1
    payload.update(version=1, g1_window=stale_window)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    reloaded = KernelAutotuner().profile(curve, 256)
    assert (reloaded.source, reloaded.g1_window) == ("search", prof.g1_window)

    engine = GzkpMsm(curve.g1, curve.fr.bits, V100)
    msm_path = tuner._msm_path(engine, 256)
    stale = json.loads(open(msm_path).read())
    stale.update(version=1, window=stale_window)
    assert tuner._validate_msm(engine, 256, dict(stale, version=PROFILE_VERSION))
    with open(msm_path, "w") as fh:
        json.dump(stale, fh)
    assert KernelAutotuner().msm_config(engine, 256).window == prof.g1_window
    assert json.loads(open(msm_path).read())["version"] == PROFILE_VERSION


@pytest.mark.parametrize("curve_name", sorted(SCALAR_FIELDS))
def test_tuned_cadence_is_certified(private_cache, curve_name):
    tuner = KernelAutotuner(persist=False)
    modulus = SCALAR_FIELDS[curve_name].modulus
    cadence, certs = tuner.tune_cadence(modulus, f"{curve_name}.Fr")
    assert cadence >= 2
    assert set(certs) == {"numpy-limb", "native-mont", "native-jacobian"}
    for fam, cert in certs.items():
        assert cert["ok"], fam
    # the profile-level certificate is the same machine-checked object
    prof = tuner.profile(CURVES[curve_name], 128)
    assert isinstance(prof, TunedProfile)
    assert prof.clean_every == cadence
    assert all(c["ok"] for c in prof.certificate.values())


def test_weakened_cadence_cannot_be_applied(private_cache):
    """The runtime gate (configure_clean_cadence) rejects any cadence
    past the certified bound — the path a tampered tuner would take."""
    nl = pytest.importorskip("repro.backend.numpy_limb")
    if not nl.numpy_available():
        pytest.skip("numpy not available")
    from repro.analysis.bounds import certified_safe_clean_every, limb_geometry

    modulus = SCALAR_FIELDS["ALT-BN128"].modulus
    geom = limb_geometry(modulus, nl.LIMB_BITS)
    safe = certified_safe_clean_every(nl.LIMB_BITS, geom.lg)
    with pytest.raises(FieldError):
        nl.configure_clean_cadence(modulus, safe + 1)
    # the certified maximum itself applies cleanly, and None restores
    # the conservative formula default
    assert nl.configure_clean_cadence(modulus, safe) == safe
    restored = nl.configure_clean_cadence(modulus, None)
    assert 2 <= restored <= safe


def test_uncertifiable_modulus_raises(private_cache):
    tuner = KernelAutotuner(persist=False)
    with pytest.raises((TuningError, Exception)):
        tuner.tune_cadence((1 << 64) - 2, "even")  # no n0inv exists


def test_autotuned_proof_is_byte_identical(private_cache):
    """Tuning changes throughput knobs only: an autotuned prover and a
    default prover emit the same group elements with identical masks."""
    from repro.circuits import merkle_tree_circuit
    from repro.snark import setup
    from repro.snark.gzkp_prover import make_gzkp_prover

    curve = CURVES["ALT-BN128"]
    r1cs, assignment = merkle_tree_circuit(curve.fr, depth=2, seed=31)
    keys = setup(r1cs, curve, random.Random(31))
    plain = make_gzkp_prover(r1cs, keys.proving_key, curve,
                             msm_window=6, msm_interval=3)
    tuned = make_gzkp_prover(r1cs, keys.proving_key, curve,
                             autotune=True)
    assert tuned.tuner is not None
    p_plain = plain._prove_with_masks(assignment, 12345, 67890)
    p_tuned = tuned._prove_with_masks(assignment, 12345, 67890)
    assert (p_plain.a, p_plain.b, p_plain.c) == \
        (p_tuned.a, p_tuned.b, p_tuned.c)
