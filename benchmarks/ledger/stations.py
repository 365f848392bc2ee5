"""The three measurement stations every workload runs — kernels,
lifecycle, service — driven only through the program's public
functions.  Each station has a set-up step (timed into ``setup_s``), an
untraced pass that yields end-to-end samples, and a traced pass that
yields per-layer values from the harness's own spans, the program's
exported ``Telemetry`` trees and its ``OpCounter`` totals.

Timings are reported at *reference host speed*: the sandbox host's
speed swings by +-20% over minutes (a fixed pure-python loop shows it),
so every timed call is bracketed by that loop and its wall clock divided
by how much slower than nominal the loop ran (see ``Harness.speed``).

Every result is checked against something the program did not compute:
MSM against the closed form over consecutive multiples of G, POLY
against the QAP identity at a random point, NTT against direct
evaluation, proofs against the pairing verifier (and a corrupted proof
against both verifiers), service jobs against ``ok and verified``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import circuits, snark
from repro.backend import coverage, get_backend
from repro.backend.autotune import KernelAutotuner
from repro.backend.native import get_native_field
from repro.curves.params import CURVES
from repro.ff.opcount import OpCounter
from repro.gpusim import V100
from repro.msm import GzkpMsm
from repro.ntt import GzkpNtt, PolyStage
from repro.service import (ProofJob, ProvingService, Telemetry,
                           decode_request, encode_request, synthesize_jobs)
from repro.service.loadgen import percentile
from repro.service.registry import get_circuit
from repro.snark.prover import Proof

from ledger import (KernelSpec, LifecycleSpec, Recorder, ServiceSpec, median,
                    span_child)

BACKEND = "numpy"          # the native-backed tier; "python" is the reference
now = time.perf_counter

Samples = Dict[str, List[float]]


#: the calibration loop: bigint multiply-add-reduce, the instruction mix
#: of the program's python floor; NOMINAL is its time on the reference
#: host (2-core Xeon 2.1 GHz sandbox) when nothing contends
_CAL_MODULUS = CURVES["ALT-BN128"].fr.modulus
_CAL_MULTIPLIER = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF
CALIBRATION_ITERS = 10000
CALIBRATION_NOMINAL_S = 0.0045


class Harness:
    """What every station shares: the tally of operations attempted and
    failed, and the clock that reads in seconds at reference host speed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.speeds: List[float] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def speed(self) -> float:
        """How many times slower than nominal the host runs right now
        (1.0 = reference speed), from ~5 ms of a fixed python loop."""
        acc, x, p = 1, _CAL_MULTIPLIER, _CAL_MODULUS
        t0 = now()
        for i in range(CALIBRATION_ITERS):
            acc = (acc * x + i) % p
        factor = (now() - t0) / CALIBRATION_NOMINAL_S
        self.speeds.append(factor)
        return factor

    def timed(self, op: Callable, *args) -> Tuple[float, object, float]:
        """(seconds at reference speed, result, speed factor) of one call."""
        before = self.speed()
        t0 = now()
        result = op(*args)
        dt = now() - t0
        factor = (before + self.speed()) / 2
        return dt / factor, result, factor

    def series(self, op: Callable, *, min_reps: int, budget_s: float = 0.0,
               warmup: int = 1, prepare: Optional[Callable] = None,
               check: Optional[Callable] = None,
               max_reps: int = 256) -> List[float]:
        """Samples of ``op(*prepare())``: ``warmup`` discarded calls
        (first calls fill caches and are up to 40% slower), then at
        least ``min_reps`` and as many more as fit in ``budget_s``.
        Inputs are made and results checked outside the timed region.
        An op with no inputs that takes under 20 ms is timed in blocks
        of several calls, so the calibration loop stays the smaller
        part of the work."""
        samples: List[float] = []
        calls = 1

        def once() -> float:
            args = prepare() if prepare is not None else ()

            def block():
                for _ in range(calls - 1):
                    op(*args)
                return op(*args)

            dt, result, _ = self.timed(block)
            if check is not None:
                check(args, result)
            return dt / calls

        first = 0.0
        for _ in range(warmup):
            first = once()
        if prepare is None and check is None and 0.0 < first < 0.02:
            calls = min(64, int(0.02 / first) + 1)
        deadline = now() + budget_s
        while len(samples) < min_reps or (now() < deadline
                                          and len(samples) < max_reps):
            samples.append(once())
        return samples


# =========================================================================================
# kernels
# =========================================================================================


class KernelStation:
    """NTT, POLY and MSM on synthetic inputs with no trusted setup: the
    points are (i+1)*G, so any MSM result has a one-scalar-mul closed
    form."""

    def __init__(self, spec: KernelSpec, curve_name: str, tag: str,
                 h: Harness):
        self.spec, self.tag, self.h = spec, tag, h
        self.rng = random.Random(f"{tag}:kernels")
        self.curve_name = curve_name
        curve = CURVES[curve_name]
        self.fr, self.g1 = curve.fr, curve.g1
        self.n, self.m = 1 << spec.log_n, 1 << spec.msm_log_n
        self.layers: Dict[str, float] = {}
        g1 = self.g1

        def inputs():
            points = [g1.generator]
            for _ in range(self.m - 1):
                points.append(g1.add(points[-1], g1.generator))
            tuner = KernelAutotuner()
            tuner.apply_cadence(self.fr.modulus, f"{curve.name}.Fr")
            self.engine = GzkpMsm(g1, self.fr.bits, V100, backend=BACKEND,
                                  tuner=tuner)
            self.ntt = GzkpNtt(self.fr, V100, backend=BACKEND)
            self.poly = PolyStage(self.fr, self.ntt, backend=BACKEND)
            self.a = self._dense(self.n)
            self.b = self._dense(self.n)
            self.c = get_backend(BACKEND).vmul(self.fr, self.a, self.b)
            return points

        inputs_s, self.points, _ = h.timed(inputs)
        configure_s, self.cfg, _ = h.timed(self.engine.configure, self.m)
        build_s, self.ctx, _ = h.timed(
            lambda: self.engine.build_context(self.points, label="ledger"))
        self.setup_seconds = inputs_s + configure_s + build_s
        self.layers["msm.configure_s"] = configure_s
        self.layers["msm.context_build_s"] = build_s
        self.layers["msm.context_bytes"] = float(self.ctx.preprocess_bytes)

    # -- inputs -------------------------------------------------------------------

    def _dense(self, count: int) -> List[int]:
        r = self.fr.modulus
        return [self.rng.randrange(r) for _ in range(count)]

    def _sparse(self, count: int) -> List[int]:
        """GZKP section 4.2's assignment profile: 50% zero, 45% one, 5%
        uniform."""
        r, rng = self.fr.modulus, self.rng
        out = []
        for _ in range(count):
            u = rng.random()
            out.append(0 if u < 0.5 else 1 if u < 0.95 else rng.randrange(r))
        return out

    # -- checks -------------------------------------------------------------------

    def _msm_ok(self, scalars: Sequence[int], result) -> bool:
        k = self.fr.reduce(sum(s * (i + 1) for i, s in enumerate(scalars)))
        expected = self.g1.scalar_mul(k, self.g1.generator) if k else None
        return result == expected

    def _ntt_ok(self, values: Sequence[int], out: Sequence[int]) -> bool:
        """out[k] = sum_j values[j] * omega^(jk) at one random k, and
        intt(ntt(x)) == x."""
        fr, k = self.fr, self.rng.randrange(self.n)
        x = fr.pow(fr.root_of_unity(self.n), k)
        acc = 0
        for v in reversed(values):
            acc = fr.add(fr.mul(acc, x), v)
        return (acc == out[k]
                and list(self.ntt.compute_inverse(out)) == list(values))

    def _poly_ok(self, h: Sequence[int]) -> bool:
        """A(t)B(t) - C(t) == H(t)(t^n - 1) at a random t: barycentric
        evaluation of a, b, c from their values on the domain, Horner
        for h."""
        fr, n = self.fr, self.n
        t = self.rng.randrange(2, fr.modulus)
        omega = fr.root_of_unity(n)
        powers, w = [], 1
        for _ in range(n):
            powers.append(w)
            w = fr.mul(w, omega)
        inv = fr.batch_inv([fr.sub(t, w) for w in powers])
        weights = [fr.mul(w, d) for w, d in zip(powers, inv)]
        z_t = fr.sub(fr.pow(t, n), 1)
        scale = fr.mul(z_t, fr.inv(n))

        def at_t(evals):
            return fr.mul(scale, fr.reduce(
                sum(fr.mul(e, wt) for e, wt in zip(evals, weights))))

        h_t = 0
        for coeff in reversed(h):
            h_t = fr.add(fr.mul(h_t, t), coeff)
        lhs = fr.sub(fr.mul(at_t(self.a), at_t(self.b)), at_t(self.c))
        return lhs == fr.mul(h_t, z_t)

    # -- the untraced pass ------------------------------------------------------------

    def _msm_series(self, make: Callable, name: str, budget: float,
                    warmup: int) -> List[float]:
        def check(args, result):
            self.h.check(self._msm_ok(args[0], result), name)

        return self.h.series(
            lambda s: self.engine.compute(s, self.points, context=self.ctx),
            min_reps=self.spec.min_reps, budget_s=budget, warmup=warmup,
            prepare=lambda: (make(self.m),), check=check)

    def measure(self, run_seconds: float) -> Samples:
        budget = self.spec.share * run_seconds
        out: Samples = {}
        out["ntt_s"] = self.h.series(
            lambda: self.ntt.compute(self.a), min_reps=self.spec.min_reps,
            budget_s=0.05 * budget)
        self.h.check(self._ntt_ok(self.a, self.ntt.compute(self.a)), "ntt")
        out["poly_s"] = self.h.series(
            lambda: self.poly.compute_h(self.a, self.b, self.c),
            min_reps=self.spec.min_reps, budget_s=0.15 * budget)
        self.h.check(
            self._poly_ok(self.poly.compute_h(self.a, self.b, self.c)),
            "poly")
        # two discarded calls: the first dense MSM is ~40% slower than
        # steady state and the second still ~15%
        out["msm_dense_s"] = self._msm_series(self._dense, "msm_dense",
                                              0.6 * budget, warmup=2)
        out["msm_sparse_s"] = self._msm_series(self._sparse, "msm_sparse",
                                               0.2 * budget, warmup=1)
        return out

    # -- the traced pass ----------------------------------------------------------------

    def trace(self, rec: Recorder, workload_seed: int) -> Dict[str, float]:
        # a stream of its own: the untraced pass draws a time-dependent
        # number of scalar vectors, and counted work must repeat exactly
        self.rng = random.Random(f"{self.tag}:kernels:trace")
        layers = dict(self.layers)
        fr, g1, n = self.fr, self.g1, self.n
        backend = get_backend(BACKEND)
        reps = max(2, min(self.spec.min_reps, 3))

        def med(name: str, op: Callable) -> float:
            with rec.span(name):
                return median(self.h.series(op, min_reps=reps, warmup=1))

        with rec.span("kernels"):
            # the NTT engine vs the backend call it wraps
            engine_ntt = med("GzkpNtt.compute",
                             lambda: self.ntt.compute(self.a))
            layers["backend.ntt_call_s"] = med(
                "backend.ntt", lambda: backend.ntt(fr, self.a))
            layers["ntt.engine_overhead_s"] = (
                engine_ntt - layers["backend.ntt_call_s"])
            layers["ntt.intt_s"] = med(
                "GzkpNtt.compute_inverse",
                lambda: self.ntt.compute_inverse(self.a))
            layers["ntt.coset_ntt_s"] = med(
                "PolyStage.coset_ntt", lambda: self.poly.coset_ntt(self.a))
            # int <-> Montgomery word rows: ROADMAP item 2's prize
            native = get_native_field(fr.modulus)
            if native is not None:
                rows = native.encode(self.a)
                layers["backend.encode_s"] = med(
                    "NativeField.encode", lambda: native.encode(self.a))
                layers["backend.decode_s"] = med(
                    "NativeField.decode", lambda: native.decode(rows))
            else:
                layers["backend.encode_s"] = layers["backend.decode_s"] = 0.0
            layers["backend.encode_share_of_ntt"] = (
                (layers["backend.encode_s"] + layers["backend.decode_s"])
                / layers["backend.ntt_call_s"])
            g = fr.find_nonresidue()
            layers["backend.vmul_s"] = med(
                "backend.vmul", lambda: backend.vmul(fr, self.a, self.b))
            layers["backend.vscale_s"] = med(
                "backend.vscale", lambda: backend.vscale(fr, self.a, g))
            layers["backend.vmul_powers_s"] = med(
                "backend.vmul_powers",
                lambda: backend.vmul_powers(fr, self.a, g))

            # POLY once with the program's own spans and counters
            tel = Telemetry()
            with rec.span("PolyStage.compute_h") as sp:
                with tel.span("POLY"):
                    h_coeffs = self.poly.compute_h(self.a, self.b, self.c,
                                                   telemetry=tel)
            tree = tel.to_dict()
            rec.attach(sp, tree)
            for op in ("butterfly", "fr_mul", "fr_add"):
                layers[f"ops.poly.{op}"] = float(
                    tree["spans"][0]["ops"].get(op, 0))
            # bit-for-bit against the reference tier
            ref_ntt = GzkpNtt(fr, V100, backend="python")
            ref_poly = PolyStage(fr, ref_ntt, backend="python")
            with rec.span("python-backend reference"):
                self.h.check(
                    list(ref_ntt.compute(self.a))
                    == list(self.ntt.compute(self.a)), "ntt vs python")
                self.h.check(
                    list(ref_poly.compute_h(self.a, self.b, self.c))
                    == list(h_coeffs), "poly vs python")

            # one dense and one sparse MSM under telemetry + counters
            for label, make in (("dense", self._dense),
                                ("sparse", self._sparse)):
                scalars = make(self.m)
                tel, counter = Telemetry(), OpCounter()

                def traced_msm(scalars=scalars, tel=tel, counter=counter):
                    with tel.span("MSM"):
                        return self.engine.compute(
                            scalars, self.points, context=self.ctx,
                            counter=counter, telemetry=tel)

                with rec.span(f"GzkpMsm.compute[{label}]") as sp:
                    _, result, factor = self.h.timed(traced_msm)
                tree = tel.to_dict()
                rec.attach(sp, tree)
                self.h.check(self._msm_ok(scalars, result),
                             f"traced msm_{label}")
                layers[f"ops.msm_{label}.padd"] = float(counter.total("padd"))
                if label == "dense":
                    root = tree["spans"][0]
                    layers["ops.msm_dense.pdbl"] = float(
                        counter.total("pdbl"))
                    layers["msm.point_merging_s"] = span_child(
                        root, "point-merging")["seconds"] / factor
                    layers["msm.bucket_reduction_s"] = span_child(
                        root, "bucket-reduction")["seconds"] / factor
                    layers["msm.digits_s"] = med(
                        "backend.digits_matrix",
                        lambda s=scalars: backend.digits_matrix(
                            s, fr.bits, self.cfg.window))

            # curve ops over a batch of G1 lanes
            lanes = self.spec.lanes
            affine = [self.points[i % self.m] for i in range(lanes)]
            ps = [g1.to_jacobian(p) for p in affine]
            qs = backend.batch_jdouble(g1, ps)
            shifted = affine[1:] + affine[:1]
            layers["backend.jdouble_s"] = med(
                "backend.batch_jdouble",
                lambda: backend.batch_jdouble(g1, ps))
            layers["backend.jadd_s"] = med(
                "backend.batch_jadd", lambda: backend.batch_jadd(g1, ps, qs))
            layers["backend.jmixed_add_s"] = med(
                "backend.batch_jmixed_add",
                lambda: backend.batch_jmixed_add(g1, qs, shifted))
            n_buckets = max(1, lanes // 8)
            entries = [(i % n_buckets, p) for i, p in enumerate(affine)]
            infinity = g1.to_jacobian(None)
            buckets = backend.accumulate_buckets(
                g1, [infinity] * n_buckets, entries)
            layers["backend.accumulate_buckets_s"] = med(
                "backend.accumulate_buckets",
                lambda: backend.accumulate_buckets(
                    g1, [infinity] * n_buckets, entries))
            layers["backend.bucket_reduce_s"] = med(
                "backend.bucket_reduce",
                lambda: backend.bucket_reduce(g1, buckets))

            # tier ladder: native here, python here, limb (numpy with
            # REPRO_NATIVE=0) in a child process
            log_n, ladder_lanes = min(12, self.spec.log_n), min(1024, lanes)
            with rec.span("tier ladder"):
                tiers = {
                    "native": ladder_probe(self.h, g1, fr, BACKEND, log_n,
                                           ladder_lanes, workload_seed),
                    "python": ladder_probe(self.h, g1, fr, "python", log_n,
                                           ladder_lanes, workload_seed),
                    "limb": _ladder_child(self.curve_name, log_n,
                                          ladder_lanes, workload_seed),
                }
            for tier, values in tiers.items():
                for op, value in values.items():
                    layers[f"backend.{op}_{tier}_s"] = value
        return layers


def ladder_probe(h: Harness, g1, fr, backend_name: str, log_n: int,
                 lanes: int, seed: int) -> Dict[str, float]:
    """Median seconds of ntt / vmul / batch_jdouble on one backend tier."""
    rng = random.Random(f"ledger-ladder:{seed}")
    backend = get_backend(backend_name)
    r = fr.modulus
    xs = [rng.randrange(r) for _ in range(1 << log_n)]
    ys = [rng.randrange(r) for _ in range(1 << log_n)]
    point, jps = g1.generator, []
    for _ in range(lanes):
        jps.append(g1.to_jacobian(point))
        point = g1.add(point, g1.generator)
    ops = {"ntt": lambda: backend.ntt(fr, xs),
           "vmul": lambda: backend.vmul(fr, xs, ys),
           "jdouble": lambda: backend.batch_jdouble(g1, jps)}
    return {name: median(h.series(op, min_reps=3, warmup=1))
            for name, op in ops.items()}


def _ladder_child(curve_name: str, log_n: int, lanes: int,
                  seed: int) -> Dict[str, float]:
    """The limb tier can only be selected by environment, so it is timed
    in a child interpreter with REPRO_NATIVE=0."""
    env = dict(os.environ, REPRO_NATIVE="0")
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "run.py")
    out = subprocess.run(
        [sys.executable, run_py, "ladder-child", curve_name, str(log_n),
         str(lanes), str(seed)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def ladder_child_main(curve_name: str, log_n: int, lanes: int,
                      seed: int) -> None:
    curve = CURVES[curve_name]
    print(json.dumps(ladder_probe(Harness(), curve.g1, curve.fr, BACKEND,
                                  log_n, lanes, seed)))


# =========================================================================================
# lifecycle
# =========================================================================================

_PROVE_PHASES = {"setup": "snark.satisfy_check_s", "POLY": "ntt.poly_s",
                 "assemble": "snark.assemble_s"}
_MSM_CHILDREN = {"MSM-A": "msm.a_s", "MSM-B-G1": "msm.b_g1_s",
                 "MSM-B-G2": "msm.b_g2_s", "MSM-C": "msm.c_s",
                 "MSM-H": "msm.h_s"}


class LifecycleStation:
    """Keygen -> prover -> proofs -> bytes -> verifiers, the path a
    library user pays, on one circuit with a fresh witness per proof."""

    def __init__(self, spec: LifecycleSpec, curve_name: str, tag: str,
                 h: Harness):
        self.spec, self.tag, self.h = spec, tag, h
        self.rng = random.Random(f"{tag}:lifecycle")
        self.curve = curve = CURVES[curve_name]
        self.layers: Dict[str, float] = {}
        self.witness_seconds: List[float] = []
        kind, arg = spec.circuit
        if kind == "sha256_like":
            self._witness = lambda: circuits.sha256_like_circuit(
                curve.fr, rounds=arg, seed=self.rng.randrange(1 << 30))[1]
            r1cs = circuits.sha256_like_circuit(curve.fr, rounds=arg)[0]
        else:
            entry = get_circuit(arg)
            self._witness = lambda: entry.assign(
                curve.fr, (self.rng.randrange(1, 1 << 16),))
            r1cs = entry.build(curve.fr)
        self.r1cs = r1cs

        keygen_s, keys, _ = h.timed(
            lambda: snark.setup(r1cs, curve,
                                rng=random.Random(self.rng.random())))
        build_s, self.prover, _ = h.timed(
            lambda: snark.make_gzkp_prover(r1cs, keys.proving_key, curve,
                                           backend=BACKEND, autotune=True))
        self.vk = keys.verifying_key
        self.verifier = snark.Groth16Verifier(self.vk, curve)
        self.batch_verifier = snark.BatchVerifier(self.vk, curve)
        self.setup_seconds = keygen_s + build_s
        self.layers["snark.keygen_s"] = keygen_s
        self.layers["snark.prover_build_s"] = build_s
        self.proofs: List[Proof] = []
        self.publics: List[List[int]] = []
        #: sha256 of the first timed proof's bytes: equal under one seed,
        #: different under another
        self.proof_digest: Optional[str] = None

    def _note_digest(self, proof: Proof) -> None:
        if self.proof_digest is None:
            self.proof_digest = hashlib.sha256(
                snark.serialize_proof(proof, self.curve)).hexdigest()

    def witness(self) -> List[int]:
        dt, assignment, _ = self.h.timed(self._witness)
        self.witness_seconds.append(dt)
        return assignment

    def public_inputs(self, assignment: Sequence[int]) -> List[int]:
        return list(assignment[1:1 + self.r1cs.n_public])

    def _roundtrip(self, proof: Proof) -> Proof:
        return snark.deserialize_proof(
            snark.serialize_proof(proof, self.curve), self.curve)

    # -- the untraced pass ------------------------------------------------------------

    def measure(self, run_seconds: float) -> Samples:
        spec, h = self.spec, self.h
        out: Samples = {name: [] for name in (
            "prove_s", "verify_s", "proof_bytes_roundtrip_s",
            "batch_verify_per_proof_s", "chain_s")}
        self.prover.prove(self.witness(), self.rng)        # discarded
        deadline = now() + spec.share * run_seconds

        def prove_and_roundtrip() -> Tuple[Proof, List[int]]:
            assignment = self.witness()
            dt, proof, _ = h.timed(self.prover.prove, assignment, self.rng)
            out["prove_s"].append(dt)
            self._note_digest(proof)
            dt, back, _ = h.timed(self._roundtrip, proof)
            out["proof_bytes_roundtrip_s"].append(dt)
            h.check(back == proof, "proof bytes roundtrip")
            return back, self.public_inputs(assignment)

        # closed loop, one client: witness -> proof -> bytes -> verified;
        # the chain is the sum of its four timed parts
        for _ in range(spec.min_verifies):
            proof, public = prove_and_roundtrip()
            dt, ok, _ = h.timed(self.verifier.verify, proof, public)
            out["verify_s"].append(dt)
            out["chain_s"].append(
                self.witness_seconds[-1] + out["prove_s"][-1]
                + out["proof_bytes_roundtrip_s"][-1] + dt)
            h.check(ok, "single verify")
            self.proofs.append(proof)
            self.publics.append(public)
        # more proofs, checked by the batch below
        unverified = 0
        while len(self.proofs) < spec.min_proofs or (
                now() < deadline and len(self.proofs) < 64):
            proof, public = prove_and_roundtrip()
            self.proofs.append(proof)
            self.publics.append(public)
            unverified += 1
        self._reject_corrupted()
        batch_ok = self.batch_verifier.verify_batch(       # discarded:
            self.proofs, self.publics, self.rng)           # ~10% slower
        for _ in range(spec.batch_reps):
            dt, ok, _ = h.timed(self.batch_verifier.verify_batch,
                                self.proofs, self.publics, self.rng)
            out["batch_verify_per_proof_s"].append(dt / len(self.proofs))
            batch_ok = batch_ok and ok
        h.check(batch_ok, "batch verify")
        for _ in range(unverified):
            h.check(batch_ok, "proof in failed batch")
        return out

    def _reject_corrupted(self) -> None:
        """One deliberately wrong proof must fail both verifiers."""
        g1 = self.curve.g1
        good, public = self.proofs[0], self.publics[0]
        bad = Proof(a=good.a, b=good.b, c=g1.add(good.c, g1.generator))
        self.h.check(not self.verifier.verify(bad, public),
                     "corrupted proof, single verifier")
        self.h.check(
            not self.batch_verifier.verify_batch(
                [good, bad], [public, public], self.rng),
            "corrupted proof, batch verifier")

    # -- the traced pass ----------------------------------------------------------------

    def trace(self, rec: Recorder) -> Dict[str, float]:
        self.rng = random.Random(f"{self.tag}:lifecycle:trace")
        layers = dict(self.layers)
        curve, h, reps = self.curve, self.h, min(3, self.spec.min_proofs)
        self.prover.prove(self.witness(), self.rng)        # discarded
        assignments = [self.witness() for _ in range(reps)]
        with rec.span("lifecycle"):
            untraced, traced, residuals, trees, proofs = [], [], [], [], []
            for assignment in assignments:
                with rec.span("prove (untraced)"):
                    untraced.append(h.timed(self.prover.prove, assignment,
                                            self.rng)[0])
                tel = Telemetry()

                def traced_prove(assignment=assignment, tel=tel):
                    with tel.span("prove"):
                        return self.prover.prove(assignment, self.rng,
                                                 telemetry=tel)

                with rec.span("prove (traced)") as sp:
                    dt, proof, factor = h.timed(traced_prove)
                rec.attach(sp, tel.to_dict())
                tree = tel.to_dict()["spans"][0]
                trees.append((tree, factor))
                traced.append(dt)
                proofs.append(proof)
                self._note_digest(proof)
                covered = sum(c["seconds"] for c in tree["children"])
                residuals.append((tree["seconds"] - covered)
                                 / tree["seconds"])
            layers["trace_overhead_ratio"] = median(traced) / median(untraced)
            layers["reconcile_residual_ratio"] = median(residuals)

            def phase(path: Sequence[str]) -> float:
                values = []
                for node, factor in trees:
                    for name in path:
                        node = span_child(node, name)
                    values.append(node["seconds"] / factor)
                return median(values)

            for child, metric in _PROVE_PHASES.items():
                layers[metric] = phase([child])
            for child, metric in _MSM_CHILDREN.items():
                layers[metric] = phase(["MSM", child])
            layers["ntt.poly_pointwise_s"] = phase(
                ["POLY", "pointwise-quotient"])
            layers["ntt.poly_ntt_sum_s"] = median([
                sum(c["seconds"] for c in span_child(t, "POLY")["children"]
                    if "NTT" in c["name"]) / factor for t, factor in trees])
            for op in ("butterfly", "fr_mul", "fr_add", "padd", "pdbl"):
                layers[f"ops.proof.{op}"] = float(
                    trees[0][0]["ops"].get(op, 0))
            layers["snark.abc_eval_s"] = median(self.h.series(
                lambda: self.r1cs.abc_evaluations(assignments[0],
                                                  backend=BACKEND),
                min_reps=reps))
            layers["circuits.witness_s"] = median(self.witness_seconds)

            # bytes
            blobs = [snark.serialize_proof(p, curve) for p in proofs]
            layers["snark.serialize_s"] = median(self.h.series(
                lambda: snark.serialize_proof(proofs[0], curve),
                min_reps=reps))
            layers["snark.deserialize_s"] = median(self.h.series(
                lambda: snark.deserialize_proof(blobs[0], curve),
                min_reps=reps))

            # verification: the whole check, then its two parts
            publics = [self.public_inputs(a) for a in assignments]
            counter = OpCounter()
            with rec.span("Groth16Verifier.verify"):
                for proof, public in zip(proofs, publics):
                    h.check(self.verifier.verify(proof, public,
                                                 counter=counter),
                            "traced single verify")
            layers["curves.miller_loops_per_proof"] = (
                counter.total("miller_loop") / len(proofs))
            layers["curves.final_exps_per_proof"] = (
                counter.total("final_exp") / len(proofs))
            with rec.span("Groth16Verifier.ic_combination"):
                layers["snark.ic_msm_s"], ic, _ = h.timed(
                    self.verifier.ic_combination, publics[0])
            g1, vk = curve.g1, self.vk
            pairs = [(g1.neg(proofs[0].a), proofs[0].b),
                     (vk.alpha_g1, vk.beta_g2), (ic, vk.gamma_g2),
                     (proofs[0].c, vk.delta_g2)]
            with rec.span("pairing_product_is_one"):
                layers["curves.pairing_verify_s"], ok, _ = h.timed(
                    self.verifier.engine.pairing_product_is_one, pairs)
            h.check(ok, "pairing product")
            counter = OpCounter()
            with rec.span("BatchVerifier.verify_batch"):
                h.check(self.batch_verifier.verify_batch(
                    proofs, publics, self.rng, counter=counter),
                    "traced batch verify")
            layers["curves.batch_miller_loops_per_proof"] = (
                counter.total("miller_loop") / len(proofs))
        return layers


# =========================================================================================
# service
# =========================================================================================


class ServiceStation:
    """A ProvingService fed from this one process: a warm pass (set-up),
    one job per key submitted at t=0 (throughput), then an open loop —
    one job due every ``open_interval_s`` whether or not the last one is
    back — whose latencies are timed from each job's due time."""

    def __init__(self, spec: ServiceSpec, curve_name: str, seed: int,
                 h: Harness):
        self.spec, self.seed, self.h = spec, seed, h
        self.keys = [(curve_name, c) for c in spec.circuits]
        workers = min(spec.workers, os.cpu_count() or 1)
        self.shards = max(1, workers)

        def start_and_warm():
            # warm=: keys are derived once, in the parent, before the
            # fork (workers and verifier inherit them); without it the
            # parent's verifier re-derives each key while the workers do,
            # and set-up time depends on how the three processes interleave
            self.service = ProvingService(
                workers=workers, shards=self.shards, parallel_msm=False,
                verify="batched", worker_cache=spec.worker_cache,
                queue_depth=64, timeout=150, retries=0,
                warm=[(*key, BACKEND) for key in self.keys])
            warm = [ProofJob(curve, circuit, (3,), BACKEND)
                    for curve, circuit in self.keys]
            return self.service.prove_batch(warm)

        self.setup_seconds, warmed, _ = h.timed(start_and_warm)
        self._judge(warmed, "warm job")

    def _judge(self, results, what: str) -> None:
        for r in results:
            self.h.check(r.ok and r.verified,
                         f"{what} {r.job_id}: {r.error}")

    def close(self) -> None:
        self.service.close()

    def run(self, rec: Recorder) -> Tuple[Samples, Dict[str, float]]:
        spec, svc = self.spec, self.service
        # The seed picks the witnesses only.  The batch is one job on
        # every key, in key order: more keys than cache slots, so every
        # job rebuilds its context (churn) and every verify window holds
        # one proof.  The open loop is evenly paced over the keys the
        # batch left resident, so its jobs are alike and its median is
        # well conditioned.  With uniform key draws and Poisson arrivals
        # the miss count, the window sizes and the queueing of a dozen
        # jobs rode on the seed: ten-seed spreads of 0.3 and 0.5.
        def job_on(key, i: int):
            return synthesize_jobs([key], 1, seed=self.seed * 1000 + i,
                                   backend=BACKEND)[0]

        batch_jobs = [job_on(key, i) for i, key in enumerate(self.keys)]
        hot = self.keys[-spec.worker_cache * self.shards:]
        with rec.span("service batch phase") as batch_span:
            makespan, batch, _ = self.h.timed(svc.prove_batch, batch_jobs)
        self._judge(batch, "batch job")
        ok = sum(1 for r in batch if r.ok and r.verified)
        samples: Samples = {"jobs_per_s": [ok / makespan]}

        # open-loop phase
        offsets = [i * spec.open_interval_s for i in range(spec.open_jobs)]
        open_jobs = [job_on(hot[i % len(hot)], 100 + i)
                     for i in range(spec.open_jobs)]
        finished: List[Optional[float]] = [None] * len(open_jobs)
        lags, futures = [], []
        # host speed is read while the pipeline is idle, before and after:
        # during the phase its threads share the GIL with the loop
        speed = self.h.speed()
        with rec.span("service open-loop phase") as open_span:
            start = now()
            for i, (job, offset) in enumerate(zip(open_jobs, offsets)):
                due = start + offset
                wait = due - now()
                if wait > 0:
                    time.sleep(wait)
                lags.append(now() - due)

                def done(_future, i=i, due=due):
                    finished[i] = now() - due

                future = svc.submit(job.request_bytes(), wait=True)
                future.add_done_callback(done)
                futures.append(future)
            opened = [f.result() for f in futures]
        self._judge(opened, "open-loop job")
        speed = (speed + self.h.speed()) / 2
        latencies = [t / speed for t in finished]
        samples["job_latency_p50_s"] = [median(latencies)]

        layers: Dict[str, float] = {}
        results = batch + opened
        for under, phase_results in ((batch_span, batch), (open_span, opened)):
            for r in phase_results:
                rec.attach(under, r.telemetry)

        def phase_median(name: str) -> float:
            return median([r.phase_seconds().get(name, 0.0)
                           for r in results]) / speed

        layers["service.context_s"] = phase_median("context")
        layers["service.poly_s"] = phase_median("POLY")
        layers["service.msm_s"] = phase_median("MSM")
        layers["service.assemble_s"] = phase_median("assemble")
        layers["service.verify_s"] = phase_median("verify")
        verify_spans = [span_child(r.job_span, "verify") for r in results]
        layers["service.verify_window_mean"] = (
            sum(v["meta"].get("window", 1) for v in verify_spans if v)
            / max(1, sum(1 for v in verify_spans if v)))
        layers["service.verify_share"] = (
            sum(r.phase_seconds().get("verify", 0.0) for r in results)
            / sum(r.wall_seconds() for r in results))
        layers["service.queue_wait_p50_s"] = median(
            [(t - r.wall_seconds()) / speed
             for t, r in zip(finished, opened)])
        layers["service.latency_p90_s"] = percentile(latencies, 90)
        layers["service.generator_lag_p50_s"] = median(lags)
        stats = svc.shard_stats()
        hits = sum(s["context_cache"]["hits"] for s in stats)
        misses = sum(s["context_cache"]["misses"] for s in stats)
        layers["service.ctx_hit_ratio"] = hits / max(1, hits + misses)
        layers["service.queue_depth_hwm"] = float(
            max(s["queue_depth_hwm"] for s in stats))
        layers["service.rejections"] = float(
            sum(s["rejections"] for s in stats))

        # the wire format, timed on the job set outside the service
        every = batch_jobs + open_jobs
        encode_s, frames, _ = self.h.timed(lambda: [
            encode_request(j.curve, j.circuit, j.witness, j.backend)
            for j in every])
        decode_s, decoded, _ = self.h.timed(
            lambda: [decode_request(f) for f in frames])
        self.h.check(
            all(tuple(d.witness) == tuple(j.witness)
                for d, j in zip(decoded, every)), "wire roundtrip")
        layers["service.wire_encode_s"] = encode_s / len(every)
        layers["service.wire_decode_s"] = decode_s / len(every)
        return samples, layers


def native_dispatch_ratio() -> float:
    """native / (native + fallback) over every kernel dispatch this
    process has made since the last ``coverage.reset()``."""
    counts = coverage.snapshot()
    native = sum(c.get("native", 0) for c in counts.values())
    fallback = sum(c.get("fallback", 0) for c in counts.values())
    return native / (native + fallback) if native + fallback else 0.0
