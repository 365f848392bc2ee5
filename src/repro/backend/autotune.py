"""Cost-model-guided kernel autotuner with certifier-gated cadences.

GZKP tunes its kernels over a small config space — MSM window size k,
checkpoint interval M (Algorithm 1 / Figure 9) and how lazily the limb
engine may defer carry cleaning (§4.3) — once per application, then
reuses the choice for every proof. This module is that profiling step
for the reproduction, per (curve, size, device):

* **MSM (k, M):** a joint search over window sizes k = 6..24 and every
  checkpoint interval M whose table fits the preprocessing memory
  budget, priced by the engine's own cost plan
  (:meth:`~repro.msm.gzkp.GzkpMsm._plan_with_cfg` under
  ``device.time_of``). The stock engine searches k with the *smallest*
  fitting M; the tuner also explores sparser checkpoint rows, trading
  modeled recovery doublings against table footprint.
* **Carry-clean cadence:** the limb engine's normalize cadence. Sweep
  cost decreases monotonically in the cadence (fewer cleans), so the
  cost-model optimum is the *largest provably safe* value — and "safe"
  is never this module's judgement: every cadence the tuner emits is
  gated by the limb-bound certifier
  (:func:`repro.analysis.bounds.certify_numpy_limb`), and the resulting
  machine-checked certificate travels with the profile.

Profiles persist as JSON under ``<kernel cache base>/autotune/`` with
the same pid-unique-temp + ``os.replace`` atomic publish as the kernel
cache, so the forked service and repeat benchmark runs never re-search.
A loaded profile is never trusted blindly: its cadence is re-certified
on load and its MSM config revalidated against the live engine; any
mismatch (tampered file, stale layout, different certifier verdict)
falls back to a fresh search. Tuning never changes results — every
knob is bit-identity-preserving by construction — only throughput.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ReproError

__all__ = ["KernelAutotuner", "TunedProfile", "TuningError"]


class TuningError(ReproError):
    """A tuned parameter failed its safety gate."""


#: window search range, matching the stock profiling sweep (§4.1)
WINDOW_RANGE = range(6, 25)
#: schema tag of persisted profiles; bump on a layout change and on a
#: change of what the search prices — any in-range (k, M) revalidates,
#: so an old-pricing choice would otherwise be pinned forever.
#: 2: the search prices the engine's own plan (version 1 added the
#: point kernels' fused raw <-> Montgomery conversions, since deleted)
PROFILE_VERSION = 2


@dataclass(frozen=True)
class TunedProfile:
    """One curve/size/device tuning result (both MSM groups plus the
    scalar field's certified carry-clean cadence)."""

    curve: str
    n: int
    device: str
    g1_window: int
    g1_interval: int
    g2_window: int
    g2_interval: int
    clean_every: int
    modeled_g1_seconds: float
    modeled_g2_seconds: float
    #: machine-checked certificates keyed by family: the limb-bound
    #: certificate for ``clean_every`` plus the native CIOS certificate
    certificate: Dict
    #: "search" when freshly tuned, "disk" when a persisted profile
    #: passed re-certification and revalidation
    source: str = "search"


def _profiles_dir() -> str:
    from repro.backend.native import cache_base_dir

    return os.path.join(cache_base_dir(), "autotune")


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)  # atomic vs concurrent tuners
    except OSError:  # read-only cache: tuning stays in-memory
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _read_json(path: str) -> Optional[dict]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in text)


class KernelAutotuner:
    """Per-(curve, size, device) kernel tuning with persisted profiles.

    One instance is shared by both MSM engines of a prover (see
    :func:`repro.snark.gzkp_prover.make_gzkp_prover`); results are
    memoized in-process and mirrored to disk. ``persist=False`` keeps
    everything in-memory (hermetic tests)."""

    def __init__(self, persist: bool = True):
        self.persist = persist
        self._msm_memo: Dict[Tuple, object] = {}
        self._cadence_memo: Dict[int, Tuple[int, Dict]] = {}

    # -- MSM (k, M) -------------------------------------------------------------

    def _msm_path(self, engine, n: int) -> str:
        name = (f"msm-{_slug(engine.group.name)}-{engine.scalar_bits}"
                f"-{_slug(engine.device.name)}-{n}.json")
        return os.path.join(_profiles_dir(), name)

    def _budget(self, engine) -> int:
        from repro.gpusim import cost

        return int(cost.GZKP_PREPROCESS_MEM_FRACTION
                   * engine.device.global_mem_bytes)

    def _search_msm(self, engine, n: int):
        """Joint (k, M) sweep under the preprocessing memory budget,
        priced by the engine's full cost plan — the formula constants
        the native point kernels spend exactly (the ``native-jacobian``
        certificate replays them). Any (k, M) is
        bit-identity-preserving, so this only shifts throughput."""
        from repro.msm.windows import num_windows

        budget = self._budget(engine)
        best = None
        best_seconds = float("inf")
        for k in WINDOW_RANGE:
            w = num_windows(engine.scalar_bits, k)
            m_floor = engine._interval_for(n, k)
            # Denser checkpoint rows than the floor violate the memory
            # budget; sparser ones (larger M) always fit — cap the scan
            # at enough candidates to see the recovery-cost knee.
            for m in range(m_floor, w + 1):
                cand = engine._make_config(n, k, m)
                if m > m_floor and cand.preprocess_bytes > budget:
                    continue  # pragma: no cover - sparser is smaller
                seconds = engine.device.time_of(
                    engine._plan_with_cfg(n, cand, None))
                if seconds < best_seconds:
                    best, best_seconds = cand, seconds
                if m - m_floor >= 8:
                    break  # modeled time is convex in M; knee passed
        return best, best_seconds

    def _validate_msm(self, engine, n: int, payload: dict):
        """Rebuild a persisted (k, M) against the live engine; returns
        the config or None when the file is stale or out of range."""
        from repro.msm.windows import num_windows

        if not isinstance(payload, dict) or \
                payload.get("version") != PROFILE_VERSION:
            return None
        k = payload.get("window")
        m = payload.get("interval")
        if not isinstance(k, int) or not isinstance(m, int):
            return None
        if k not in WINDOW_RANGE:
            return None
        w = num_windows(engine.scalar_bits, k)
        if not 1 <= m <= w:
            return None
        cand = engine._make_config(n, k, m)
        if cand.preprocess_bytes > self._budget(engine) and \
                m > engine._interval_for(n, k):
            return None
        return cand

    def msm_config(self, engine, n: int):
        """The tuned :class:`~repro.msm.gzkp.GzkpMsmConfig` for one
        engine and scale — disk profile when valid, fresh joint search
        otherwise."""
        key = (engine.group.name, engine.scalar_bits, engine.device.name,
               engine.fq_mul_factor, n)
        cfg = self._msm_memo.get(key)
        if cfg is not None:
            return cfg
        path = self._msm_path(engine, n)
        seconds = None
        if self.persist:
            payload = _read_json(path)
            if payload is not None:
                cfg = self._validate_msm(engine, n, payload)
                if cfg is not None:
                    seconds = payload.get("modeled_seconds")
        if cfg is None:
            cfg, seconds = self._search_msm(engine, n)
            if self.persist:
                _atomic_write_json(path, {
                    "version": PROFILE_VERSION,
                    "group": engine.group.name,
                    "scalar_bits": engine.scalar_bits,
                    "device": engine.device.name,
                    "n": n,
                    "window": cfg.window,
                    "interval": cfg.interval,
                    "modeled_seconds": seconds,
                })
        self._msm_memo[key] = cfg
        self._last_modeled_seconds = seconds
        return cfg

    # -- carry-clean cadence ----------------------------------------------------

    def tune_cadence(self, modulus: int,
                     name: str = "") -> Tuple[int, Dict]:
        """The largest certifier-safe carry-clean cadence for one
        modulus, with its machine-checked certificate (as a dict).

        The cost model is trivial but real: sweep cost falls
        monotonically as cleans get rarer, so the optimum under the
        safety constraint *is* the constraint's boundary — and the
        boundary comes from the certifier's worst-case sweep
        simulation, never from this module. The certificate is
        re-derived (not just re-read) every time, so an unsafe cadence
        can never be smuggled in through a stale or tampered profile.
        """
        cached = self._cadence_memo.get(modulus)
        if cached is not None:
            return cached
        from repro.analysis.bounds import (
            certified_safe_clean_every,
            certify_native_jacobian,
            certify_native_mont,
            certify_numpy_limb,
            limb_geometry,
        )
        from repro.backend.numpy_limb import LIMB_BITS

        geom = limb_geometry(modulus, LIMB_BITS)
        cadence = certified_safe_clean_every(LIMB_BITS, geom.lg)
        cert = certify_numpy_limb(name or f"mod-{geom.bits}b", modulus,
                                  clean_every=cadence)
        if not cert.ok:  # pragma: no cover - the safe bound certifies
            raise TuningError(
                f"certifier rejected clean_every={cadence} for a "
                f"{geom.bits}-bit modulus: tuned cadence is not safe"
            )
        # The tuned pipeline also routes through the compiled CIOS
        # kernels; refuse to tune a modulus they cannot certify.
        native_cert = certify_native_mont(name or f"mod-{geom.bits}b",
                                          modulus)
        if not native_cert.ok:
            raise TuningError(
                f"certifier rejected the native CIOS kernels for a "
                f"{geom.bits}-bit modulus: "
                f"{[v.name for v in native_cert.violations()]}"
            )
        # The MSM runs the Jacobian point kernels on the same CIOS
        # floor; a modulus they cannot certify is not tunable.
        jac_cert = certify_native_jacobian(name or f"mod-{geom.bits}b",
                                           modulus)
        if not jac_cert.ok:
            raise TuningError(
                f"certifier rejected the native Jacobian kernels for a "
                f"{geom.bits}-bit modulus: "
                f"{[v.name for v in jac_cert.violations()]}"
            )
        result = (cadence, {"numpy-limb": cert.to_dict(),
                            "native-mont": native_cert.to_dict(),
                            "native-jacobian": jac_cert.to_dict()})
        self._cadence_memo[modulus] = result
        return result

    def apply_cadence(self, modulus: int, name: str = "") -> int:
        """Tune and *apply* the cadence to the live limb geometry.
        :func:`~repro.backend.numpy_limb.configure_clean_cadence`
        re-checks the certifier bound — the gate holds even if a
        caller bypasses :meth:`tune_cadence`."""
        from repro.backend.numpy_limb import configure_clean_cadence

        cadence, _cert = self.tune_cadence(modulus, name)
        return configure_clean_cadence(modulus, cadence)

    # -- curve-level profiles ---------------------------------------------------

    def _profile_path(self, curve_name: str, n: int,
                      device_name: str) -> str:
        return os.path.join(
            _profiles_dir(),
            f"profile-{_slug(curve_name)}-{n}-{_slug(device_name)}.json",
        )

    def profile(self, curve, n: int, device=None) -> TunedProfile:
        """Tune one (curve, size): both MSM groups' (k, M) and the
        scalar field's certified cadence, persisted as a single JSON
        profile. A valid persisted profile short-circuits the search
        but is still re-certified and revalidated on load."""
        from repro.gpusim import V100
        from repro.msm.gzkp import GzkpMsm

        device = device or V100
        path = self._profile_path(curve.name, n, device.name)
        g1 = GzkpMsm(curve.g1, curve.fr.bits, device)
        g2 = GzkpMsm(curve.g2, curve.fr.bits, device, fq_mul_factor=3.0)
        cadence, cert = self.tune_cadence(curve.fr.modulus,
                                          f"{curve.name}.Fr")
        source = "search"
        if self.persist:
            payload = _read_json(path)
            if payload is not None and \
                    payload.get("version") == PROFILE_VERSION and \
                    payload.get("clean_every") == cadence:
                c1 = self._validate_msm(
                    g1, n, {"version": PROFILE_VERSION,
                            "window": payload.get("g1_window"),
                            "interval": payload.get("g1_interval")})
                c2 = self._validate_msm(
                    g2, n, {"version": PROFILE_VERSION,
                            "window": payload.get("g2_window"),
                            "interval": payload.get("g2_interval")})
                if c1 is not None and c2 is not None:
                    self._msm_memo[(g1.group.name, g1.scalar_bits,
                                    device.name, g1.fq_mul_factor, n)] = c1
                    self._msm_memo[(g2.group.name, g2.scalar_bits,
                                    device.name, g2.fq_mul_factor, n)] = c2
                    return TunedProfile(
                        curve=curve.name, n=n, device=device.name,
                        g1_window=c1.window, g1_interval=c1.interval,
                        g2_window=c2.window, g2_interval=c2.interval,
                        clean_every=cadence,
                        modeled_g1_seconds=payload.get(
                            "modeled_g1_seconds", math.nan),
                        modeled_g2_seconds=payload.get(
                            "modeled_g2_seconds", math.nan),
                        certificate=cert, source="disk",
                    )
        c1 = self.msm_config(g1, n)
        s1 = self._last_modeled_seconds
        c2 = self.msm_config(g2, n)
        s2 = self._last_modeled_seconds
        prof = TunedProfile(
            curve=curve.name, n=n, device=device.name,
            g1_window=c1.window, g1_interval=c1.interval,
            g2_window=c2.window, g2_interval=c2.interval,
            clean_every=cadence,
            modeled_g1_seconds=s1 if s1 is not None else math.nan,
            modeled_g2_seconds=s2 if s2 is not None else math.nan,
            certificate=cert, source=source,
        )
        if self.persist:
            _atomic_write_json(path, {
                "version": PROFILE_VERSION, **asdict(prof),
            })
        return prof
