"""Groth16 verification.

The product-of-pairings check, for N proofs under one verifying key
and coefficients r_i,

    prod e(-r_i A_i, B_i) * e(alpha * sum r_i, beta)
        * e(sum r_i IC(x_i), gamma) * e(sum r_i C_i, delta) == 1,

run through one multi-pairing accumulator with one final
exponentiation. The left factor is one fresh Miller loop per proof; the
three right factors are the key's side of the equation, written once
(:meth:`Groth16Verifier._equation_holds`) and replayed from the line
tables the pairing engine caches for beta/gamma/delta
(:meth:`~repro.curves.pairing.MillerEngine.prepare_g2`).

* :meth:`Groth16Verifier.verify` is the equation at N = 1, r = 1: one
  fresh loop and three replays — 4 Miller loops, 1 final exponentiation,
  no coefficient, no scalar multiplication.
* :meth:`BatchVerifier.verify_batch` draws independent r_i, folds the
  C and IC(x) terms on the backend MSM and pays **N + 3 Miller loops
  and one final exponentiation** for N proofs (down from 4 and 1 per
  proof).
* :meth:`BatchVerifier.verify_window` adds bisection, so a dirty window
  names its offenders; its leaves — and a window of one — are the exact
  single check.

Every curve in this reproduction has a real pairing engine: ALT-BN128
and BLS12-381 run optimal-ate over the Fq12 tower
(:mod:`repro.curves.pairing`), the MNT4753 surrogate a reduced Tate
pairing over Fq2 (:mod:`repro.curves.tate`). The pairing op counts
(``miller_loop`` / ``final_exp`` / ``g2_precomp``, booked on the active
:func:`~repro.ff.opcount.counting` scope) make the economics
machine-checkable rather than asserted.

A separate :class:`TrapdoorChecker` provides a fast white-box QAP check
using the retained toxic waste — a test utility (milliseconds instead of
seconds), not part of the protocol.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.curves.params import CurvePair
from repro.curves.pairing import bls12_381_pairing, bn128_pairing
from repro.curves.tate import mnt4753_pairing
from repro.errors import ProofError
from repro.ff.opcount import counting
from repro.msm.fixed_base import batch_scalar_mul
from repro.snark.keys import Trapdoor, VerifyingKey
from repro.snark.prover import Proof
from repro.snark.r1cs import R1CS

__all__ = ["pairing_engine_for", "Groth16Verifier", "BatchVerifier",
           "TrapdoorChecker", "DEFAULT_SOUNDNESS_BITS"]

#: Default width of the batch coefficients r_i: a batch containing an
#: invalid proof survives with probability < 2^-(bits) per attempt.
DEFAULT_SOUNDNESS_BITS = 128

_ENGINE_FACTORIES = {
    "ALT-BN128": bn128_pairing,
    "BLS12-381": bls12_381_pairing,
    "MNT4753": mnt4753_pairing,
}
_ENGINE_CACHE: dict = {}


def pairing_engine_for(curve: CurvePair):
    """The pairing engine matching a curve pair — memoized per curve,
    so every verifier built for a curve shares one engine and with it
    the engine's fixed-argument G2 line caches (a fresh engine per
    verifier would discard that precomputation)."""
    engine = _ENGINE_CACHE.get(curve.name)
    if engine is None:
        factory = _ENGINE_FACTORIES.get(curve.name)
        if factory is None:
            raise ProofError(f"no pairing engine for curve {curve.name!r}")
        engine = _ENGINE_CACHE[curve.name] = factory()
    return engine


_MSM_ENGINES: dict = {}


def _msm_engine_for(curve: CurvePair, backend=None):
    """The backend G1 MSM engine for verifier-side folds — memoized per
    (curve, backend) so its per-scale window profiling runs once."""
    key = (curve.name, backend if isinstance(backend, str) else None)
    engine = _MSM_ENGINES.get(key)
    if engine is None:
        from repro.gpusim import V100
        from repro.msm.gzkp import GzkpMsm

        engine = GzkpMsm(curve.g1, curve.fr.bits, V100, backend=backend)
        if key[1] is not None or backend is None:
            _MSM_ENGINES[key] = engine
    return engine


class Groth16Verifier:
    """Pairing-based verification with the short verifying key (the
    "few milliseconds" step of Figure 1 — here pure Python, so a good
    fraction of a second): the batch equation at N = 1, r = 1."""

    def __init__(self, vk: VerifyingKey, curve: CurvePair, backend=None):
        self.vk = vk
        self.curve = curve
        self.engine = pairing_engine_for(curve)
        self._msm = _msm_engine_for(curve, backend)
        # The IC points never change for a verifying key: preprocess
        # their checkpoint table once and amortize it across verifies.
        self._ic_context = None

    def ic_combination(self, public_inputs: Sequence[int]):
        """IC(x) = IC_0 + sum x_i IC_i over the public inputs, computed
        as one backend MSM over the fixed IC point vector (scalars
        ``[1, x_1, ..., x_m]``) instead of a per-input scalar-mul/add
        loop — this runs on every verify, batched or not."""
        self.vk.check_public_inputs(public_inputs)
        r = self.curve.fr.modulus
        scalars = [1] + [x % r for x in public_inputs]
        return self._ic_msm(scalars)

    def _ic_msm(self, scalars: Sequence[int]):
        """MSM over the verifying key's IC vector, reusing the
        preprocessed checkpoint table after the first call."""
        if self._ic_context is None:
            self._ic_context = self._msm.build_context(self.vk.ic,
                                                       label="vk-ic")
        return self._msm.compute(list(scalars), self.vk.ic,
                                 context=self._ic_context)

    def check_proof_shape(self, proof: Proof) -> bool:
        """Structural validity: no infinity components, all on-curve."""
        if proof.a is None or proof.b is None or proof.c is None:
            return False
        g1 = self.curve.g1
        return (g1.is_on_curve(proof.a)
                and g1.is_on_curve(proof.c)
                and self.curve.g2.is_on_curve(proof.b))

    def _equation_holds(self, a_pairs, alpha_term, ic_term, c_term) -> bool:
        """prod e(P, Q) over ``a_pairs`` times e(alpha_term, beta)
        e(ic_term, gamma) e(c_term, delta) == 1: a fresh Miller loop
        per pair, the key's three fixed G2 points replayed from their
        cached line tables, one final exponentiation."""
        engine = self.engine
        acc = engine.accumulator()
        for g1_point, g2_point in a_pairs:
            acc.accumulate(g1_point, g2_point)
        for g1_term, g2_fixed in zip((alpha_term, ic_term, c_term),
                                     self.vk.fixed_g2_points()):
            acc.accumulate_prepared(g1_term, engine.prepare_g2(g2_fixed))
        return acc.is_one()

    def verify(self, proof: Proof, public_inputs: Sequence[int],
               # repro: allow[R011] the frozen perf ledger passes it (item 9)
               counter=None) -> bool:
        """e(-A, B) e(alpha, beta) e(IC, gamma) e(C, delta) == 1;
        ``counter`` (kept for the frozen perf ledger until ROADMAP item
        9) receives the pairing equation's ops only."""
        if not self.check_proof_shape(proof):
            return False
        ic = self.ic_combination(public_inputs)
        with counting(counter):
            return self._equation_holds(
                [(self.curve.g1.neg(proof.a), proof.b)],
                self.vk.alpha_g1, ic, proof.c)


class BatchVerifier:
    """Batch verification of many proofs under one verifying key.

    Random-linear-combination batching, folded down to **one Miller
    loop per proof plus three shared**: with independent coefficients
    r_i drawn from ``[1, 2^soundness_bits)``,

        prod e(-r_i A_i, B_i) * e(alpha * sum r_i, beta)
            * e(sum r_i IC_i(x_i), gamma) * e(sum r_i C_i, delta) == 1

    holds for honest proofs by bilinearity, and an invalid batch
    survives with probability < 2^-soundness_bits. The IC fold
    flattens to a single MSM over the verifying key's IC vector
    (scalar ``sum r_i x_ij`` per point), the C fold is an MSM over the
    batch's C points, and the equation itself is the single
    verifier's (:meth:`Groth16Verifier._equation_holds`, which replays
    the key's cached G2 line tables). Total cost: N + 3 Miller loops,
    1 final exponentiation, 2 MSMs and one call for the N + 1 scalar
    muls (:func:`~repro.msm.fixed_base.batch_scalar_mul`) — versus N
    per-proof checks at 4 Miller loops + 1 final exponentiation each.
    The r_i lower bound of 1 is load-bearing: a zero coefficient would
    silently exclude its proof from the check.
    """

    def __init__(self, vk: VerifyingKey, curve: CurvePair,
                 soundness_bits: int = DEFAULT_SOUNDNESS_BITS,
                 backend=None):
        if soundness_bits < 1:
            raise ProofError("soundness_bits must be >= 1")
        self.vk = vk
        self.curve = curve
        self.soundness_bits = soundness_bits
        self.backend = backend
        self._single = Groth16Verifier(vk, curve, backend=backend)
        self._msm = self._single._msm

    # -- coefficient draws ------------------------------------------------------

    def draw_coefficients(self, n: int, rng=None) -> List[int]:
        """n independent batch coefficients from [1, 2^soundness_bits)
        (never 0, never >= the scalar-field order)."""
        if rng is None:
            rng = random.SystemRandom()
        hi = min(1 << self.soundness_bits, self.curve.fr.modulus)
        if hi <= 1:
            raise ProofError("soundness_bits leaves no valid coefficients")
        return [rng.randrange(1, hi) for _ in range(n)]

    # -- the batched check ------------------------------------------------------

    def verify_batch(self, proofs: Sequence[Proof],
                     public_inputs: Sequence[Sequence[int]],
                     rng=None,
                     # repro: allow[R011] the frozen perf ledger passes it (item 9)
                     counter=None) -> bool:
        """True iff every (proof, inputs) pair verifies (whp).

        ``counter`` (kept for the frozen perf ledger until ROADMAP item
        9) receives the pairing equation's ops only: exactly
        ``len(proofs) + 3`` Miller loops and one final exponentiation
        (plus ``g2_precomp`` builds on the first batch under this
        verifying key).
        """
        if len(proofs) != len(public_inputs):
            raise ProofError("proofs and public-input lists differ in length")
        if not proofs:
            return True
        for proof, inputs in zip(proofs, public_inputs):
            if not self._single.check_proof_shape(proof):
                return False
            self.vk.check_public_inputs(inputs)
        g1 = self.curve.g1
        r = self.curve.fr.modulus
        coeffs = self.draw_coefficients(len(proofs), rng)
        coeff_sum = sum(coeffs) % r

        # IC fold, flattened: sum_i r_i (IC_0 + sum_j x_ij IC_j)
        # = MSM over the IC vector with scalar sum_i r_i x_ij per point.
        ic_scalars = [coeff_sum]
        for j in range(len(self.vk.ic) - 1):
            ic_scalars.append(
                sum(c * (inputs[j] % r)
                    for c, inputs in zip(coeffs, public_inputs)) % r)
        ic_fold = self._single._ic_msm(ic_scalars)

        # C fold: one MSM over the batch's C points.
        c_fold = self._msm.compute(list(coeffs),
                                   [proof.c for proof in proofs])

        # The N + 1 multiples alpha * sum r_i and r_i * A_i: one call.
        alpha_term, *a_terms = batch_scalar_mul(
            g1, [self.vk.alpha_g1, *(proof.a for proof in proofs)],
            [coeff_sum, *coeffs], backend=self.backend)

        with counting(counter):
            return self._single._equation_holds(
                [(g1.neg(a_term), proof.b)
                 for a_term, proof in zip(a_terms, proofs)],
                alpha_term, ic_fold, c_fold)

    # -- windowed check with bisection -----------------------------------------

    def verify_window(self, proofs: Sequence[Proof],
                      public_inputs: Sequence[Sequence[int]],
                      rng=None) -> Tuple[bool, List[int]]:
        """(all_ok, bad_indices): one batched check, then bisection.

        A clean window costs the batched price (N + 3 Miller loops, one
        final exponentiation). A dirty window bisects: each half is
        re-checked batched (fresh coefficients) and only failing halves
        split further, so one bad proof among N is pinpointed in
        O(log N) extra batched checks without failing its siblings.
        A subset of one — a bisection leaf, or a whole window of one —
        is verified singly: the per-proof verdict is exact, never a
        probabilistic false accusation, and draws no coefficient.
        """
        if len(proofs) != len(public_inputs):
            raise ProofError("proofs and public-input lists differ in length")
        bad: List[int] = []

        def check(indices: List[int]) -> bool:
            """Whether every proof in ``indices`` verifies; the ones
            found not to are appended to ``bad``."""
            if len(indices) == 1:
                i = indices[0]
                ok = self._single.verify(proofs[i], public_inputs[i])
                if not ok:
                    bad.append(i)
                return ok
            if self.verify_batch([proofs[i] for i in indices],
                                 [public_inputs[i] for i in indices],
                                 rng=rng):
                return True
            mid = len(indices) // 2
            check(indices[:mid])
            check(indices[mid:])
            return False

        if check(list(range(len(proofs)))):
            return True, []
        if not bad:
            # Vanishingly unlikely (a subset rejected whose halves both
            # pass), but never report a failed window without naming a
            # culprit: fall back to exact per-proof verification.
            for i, (proof, inputs) in enumerate(zip(proofs, public_inputs)):
                if not self._single.verify(proof, inputs):
                    bad.append(i)
            if not bad:
                return True, []
        return False, sorted(bad)


class TrapdoorChecker:
    """White-box QAP satisfaction check at tau using the retained toxic
    waste — a fast test oracle for completeness runs at scales where a
    pure-Python pairing per proof would dominate test time."""

    def __init__(self, r1cs: R1CS, trapdoor: Trapdoor, curve: CurvePair):
        self.r1cs = r1cs
        self.trapdoor = trapdoor
        self.curve = curve

    def qap_satisfied_at_tau(self, assignment: Sequence[int]) -> bool:
        """(sum z u)(sum z v) - sum z w must be divisible by Z(tau):
        equivalently the residual must equal h(tau) Z(tau) for the h the
        honest prover derives — true iff the assignment satisfies every
        constraint (except with negligible probability over tau)."""
        fr = self.curve.fr
        r = fr.modulus
        self.r1cs.check_assignment_shape(assignment)
        u, v, w = self.r1cs.variable_polynomials_at(self.trapdoor.tau)
        sum_u = sum(z * x for z, x in zip(assignment, u)) % r
        sum_v = sum(z * x for z, x in zip(assignment, v)) % r
        sum_w = sum(z * x for z, x in zip(assignment, w)) % r
        residual = (sum_u * sum_v - sum_w) % r
        n = self.r1cs.domain_size()
        z_tau = (pow(self.trapdoor.tau, n, r) - 1) % r
        if z_tau == 0:
            return residual == 0
        # Divisibility by Z(tau) in a field is vacuous pointwise; the
        # meaningful check is that the residual equals the interpolated
        # quotient times Z(tau). Recompute h(tau) from the constraint
        # residuals: for a satisfied system the residual polynomial
        # vanishes on the whole domain, so h(tau) = residual / Z(tau)
        # must ALSO be produced by the domain-interpolation route.
        lagrange = self.r1cs._lagrange_at(self.trapdoor.tau, n)
        interp = 0
        for i, con in enumerate(self.r1cs.constraints):
            ai = self.r1cs.eval_lc(con.a, assignment)
            bi = self.r1cs.eval_lc(con.b, assignment)
            ci = self.r1cs.eval_lc(con.c, assignment)
            interp = (interp + (ai * bi - ci) * lagrange[i]) % r
        # interp is the domain-interpolation of (a_i b_i - c_i); for a
        # satisfied system it is the zero polynomial evaluated at tau.
        return interp == 0
