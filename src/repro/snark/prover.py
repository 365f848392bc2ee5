"""The Groth16 prover: POLY stage + five MSMs (Figure 1's workflow).

Given a satisfied constraint system, the prover:

1. **POLY** — computes the quotient coefficients h via seven NTT
   operations (:class:`repro.ntt.poly.PolyStage`).
2. **MSM** — five multi-scalar multiplications over the proving-key
   vectors (§5.2's "five MSM operations"):
   assignment . a_query (G1), assignment . b_g1_query (G1),
   assignment . b_g2_query (G2), witness . c_query (G1), and
   h . h_query (G1).
3. Randomises with r, s for zero knowledge and assembles (A, B, C).

Any MSM engine from :mod:`repro.msm` and NTT engine from
:mod:`repro.ntt` can be plugged in — all are functionally exact, so the
proof is valid regardless of which *system model* computed it.
"""

from __future__ import annotations

import inspect
import random
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.backend import get_backend
from repro.curves.params import CurvePair
from repro.curves.weierstrass import AffinePoint
from repro.errors import ProofError
from repro.ff.opcount import OpCounter
from repro.msm.fixed_base import FixedBaseTable, batch_scalar_mul
from repro.ntt.poly import PolyStage
from repro.service.telemetry import Telemetry, maybe_span
from repro.snark.keys import ProvingKey
from repro.snark.r1cs import R1CS

__all__ = ["Proof", "Groth16Prover"]

#: how many proofs a prover's two delta tables are sized for: a proof
#: puts three scalars through the G1 table and one through the G2 one,
#: and a prover is built to be reused (the ledger's lifecycle makes
#: eight or more proofs per prover, a service worker's cached prover
#: serves every job of its circuit)
_PROOFS_PER_TABLE = 16


@dataclass(frozen=True)
class Proof:
    """A Groth16 proof: three group elements (succinctness, §2.1)."""

    a: AffinePoint          # G1
    b: AffinePoint          # G2
    c: AffinePoint          # G1

    def size_bytes(self, curve: CurvePair) -> int:
        """Serialized size: 2 G1 points + 1 G2 point (compressed x + sign
        byte). A few hundred bytes — the 'succinct' in zkSNARK."""
        fq_bytes = (curve.fq.bits + 7) // 8
        return (fq_bytes + 1) * 2 + (2 * fq_bytes + 1)


class _BackendNttEngine:
    """Minimal NTT engine for the default prover: routes straight
    through the compute-backend registry (the same math every backend
    is bit-exact against), with no detour via the reference module.
    Vectors — ints or the backend's resident form — are forwarded
    untouched; the backend checks the size (``NttError``) and hands
    back the representation it was given."""

    def __init__(self, field, backend=None):
        self.field = field
        self.backend = backend

    def compute(self, values, counter=None):
        return get_backend(self.backend).ntt(self.field, values,
                                             counter=counter)

    def compute_inverse(self, values, counter=None):
        return get_backend(self.backend).intt(self.field, values,
                                              counter=counter)


class Groth16Prover:
    """Proof generation for one (R1CS, proving key) pair."""

    def __init__(self, r1cs: R1CS, pk: ProvingKey, curve: CurvePair,
                 ntt_engine=None, msm_g1=None, msm_g2=None, backend=None,
                 msm_executor=None):
        self.r1cs = r1cs
        self.pk = pk
        self.curve = curve
        # `backend` (a ComputeBackend, name or None = $REPRO_BACKEND)
        # reaches every math stage the prover owns: the default NTT
        # engine, the POLY stage's pointwise passes, the CSR
        # abc-evaluation front-end (None keeps the scalar loop) and the
        # assemble's scalar multiplications.
        # Caller-supplied engines carry their own backend choice.
        self.backend = backend
        self.poly = PolyStage(
            curve.fr,
            ntt_engine or _BackendNttEngine(curve.fr, backend=backend),
            backend=backend,
        )
        # Op counting flows through CurveGroup.counter, which is shared
        # per group; when MSMs on one group run concurrently *with
        # counting active*, serialise them so the per-MSM attribution
        # stays meaningful. RLock: the dispatch path and the naive MSM
        # fallback both guard the counter swap, possibly nested.
        self._group_locks = {id(curve.g1): threading.RLock(),
                             id(curve.g2): threading.RLock()}
        # MSM callables: (scalars, points[, counter, telemetry]) -> point.
        # Default: direct sums. Legacy two-argument callables still work.
        self._msm_g1 = msm_g1 or self._naive_msm_factory(
            curve.g1, self._group_locks[id(curve.g1)])
        self._msm_g2 = msm_g2 or self._naive_msm_factory(
            curve.g2, self._group_locks[id(curve.g2)])
        # The masking terms r*delta, s*delta, rs*delta (G1) and s*delta
        # (G2) are multiples of two fixed key points: window tables of
        # public key data, built once like the MSM contexts.
        self._delta_g1 = FixedBaseTable(curve.g1, pk.delta_g1,
                                        3 * _PROOFS_PER_TABLE,
                                        backend=backend)
        self._delta_g2 = FixedBaseTable(curve.g2, pk.delta_g2,
                                        _PROOFS_PER_TABLE, backend=backend)
        #: optional concurrent.futures.Executor: the five MSMs of §5.2
        #: share no state and are dispatched to it as parallel tasks
        #: (the service sets this; None = sequential)
        self.msm_executor = msm_executor

    @staticmethod
    def _naive_msm_factory(group, group_lock):
        def msm_sum(scalars, points):
            acc = None
            for s, p in zip(scalars, points):
                if s:
                    acc = group.add(acc, group.scalar_mul(s, p))
            return acc

        def run(scalars, points, counter: Optional[OpCounter] = None):
            if counter is None:
                # No swap: leave whatever counter the group carries so a
                # concurrent counted MSM's installation is never clobbered.
                return msm_sum(scalars, points)
            with group_lock:
                previous = group.counter
                group.counter = counter
                try:
                    return msm_sum(scalars, points)
                finally:
                    group.counter = previous
        return run

    # -- stages ---------------------------------------------------------------------

    def compute_h(self, assignment: Sequence[int],
                  counter: Optional[OpCounter] = None,
                  telemetry: Optional[Telemetry] = None) -> Sequence[int]:
        """POLY stage: quotient coefficients from the abc evaluations
        (vectorized over the cached CSR matrices when the prover has a
        compute backend; bit-identical either way)."""
        a_vec, b_vec, c_vec = self.r1cs.abc_evaluations(
            assignment, backend=self.backend
        )
        return self.poly.compute_h(a_vec, b_vec, c_vec, counter=counter,
                                   telemetry=telemetry)

    def prove(self, assignment: Sequence[int],
              rng: Optional[random.Random] = None,
              telemetry: Optional[Telemetry] = None) -> Proof:
        """Generate a proof for a satisfying assignment. With
        ``telemetry`` attached, the run reports a per-phase span tree:
        setup / POLY / MSM (with per-MSM children) / assemble."""
        with maybe_span(telemetry, "setup"):
            if not self.r1cs.is_satisfied(assignment):
                raise ProofError(
                    "assignment does not satisfy the constraint system"
                )
        if rng is None:
            rng = random.Random()
        fr = self.curve.fr
        r_mask = rng.randrange(fr.modulus)
        s_mask = rng.randrange(fr.modulus)
        return self._prove_with_masks(assignment, r_mask, s_mask,
                                      telemetry=telemetry)

    # -- MSM dispatch ---------------------------------------------------------------

    def _call_msm(self, fn, scalars, points, counter, telemetry):
        """Invoke an MSM callable, passing counter/telemetry only when
        its signature accepts them (user-supplied engines may not)."""
        kwargs = {}
        try:
            params = inspect.signature(fn).parameters
            if "counter" in params:
                kwargs["counter"] = counter
            if "telemetry" in params:
                kwargs["telemetry"] = telemetry
        except (TypeError, ValueError):  # builtins / C callables
            pass
        return fn(scalars, points, **kwargs)

    def _dispatch_msms(self, tasks, telemetry, parent):
        """Run the (name, fn, group, scalars, points) MSM tasks —
        through ``msm_executor`` when set, else sequentially — each in
        its own child span. Counting is attributed through the shared
        per-group counter, so concurrent counted MSMs on the same group
        take that group's lock."""

        def run(name, fn, group, scalars, points):
            with maybe_span(telemetry, name, parent=parent) as sp:
                lock = self._group_locks.get(id(group))
                # Lock whenever any counter is live on this group: the
                # span's own, or one pre-installed on the group by the
                # caller (which a concurrent sibling must not clobber).
                if lock is not None and (sp.counter is not None
                                         or group.counter is not None):
                    with lock:
                        return self._call_msm(fn, scalars, points,
                                              sp.counter, telemetry)
                return self._call_msm(fn, scalars, points, None, telemetry)

        if self.msm_executor is not None:
            futures = [self.msm_executor.submit(run, *task)
                       for task in tasks]
            return [f.result() for f in futures]
        return [run(*task) for task in tasks]

    def _prove_with_masks(self, assignment: Sequence[int], r_mask: int,
                          s_mask: int,
                          telemetry: Optional[Telemetry] = None) -> Proof:
        g1, g2 = self.curve.g1, self.curve.g2
        pk = self.pk

        # POLY stage.
        with maybe_span(telemetry, "POLY") as poly_span:
            h = self.compute_h(assignment, counter=poly_span.counter,
                               telemetry=telemetry)

        # MSM stage: the five MSMs of §5.2 — independent tasks.
        witness = assignment[1 + pk.n_public:]
        tasks = [
            ("MSM-A", self._msm_g1, g1, assignment, pk.a_query),
            ("MSM-B-G1", self._msm_g1, g1, assignment, pk.b_g1_query),
            ("MSM-B-G2", self._msm_g2, g2, assignment, pk.b_g2_query),
            ("MSM-C", self._msm_g1, g1, witness, pk.c_query),
            ("MSM-H", self._msm_g1, g1, list(h)[: len(pk.h_query)],
             pk.h_query),
        ]
        with maybe_span(telemetry, "MSM") as msm_span:
            parent = msm_span if telemetry is not None else None
            sum_a, sum_b_g1, sum_b_g2, sum_c, h_term = self._dispatch_msms(
                tasks, telemetry, parent
            )

        with maybe_span(telemetry, "assemble"):
            return self._assemble(g1, g2, pk, sum_a, sum_b_g1, sum_b_g2,
                                  sum_c, h_term, r_mask, s_mask)

    def _assemble(self, g1, g2, pk, sum_a, sum_b_g1, sum_b_g2, sum_c,
                  h_term, r_mask: int, s_mask: int) -> Proof:
        rs = self.curve.fr.mul(r_mask, s_mask)
        r_delta, s_delta, rs_delta = self._delta_g1.multiples(
            [r_mask, s_mask, rs])
        (s_delta_g2,) = self._delta_g2.multiples([s_mask])
        # A = alpha + sum_a + r * delta
        a_point = g1.add(g1.add(pk.alpha_g1, sum_a), r_delta)
        # B = beta + sum_b + s * delta  (G2, with a G1 twin for C)
        b_point = g2.add(g2.add(pk.beta_g2, sum_b_g2), s_delta_g2)
        b_g1_point = g1.add(g1.add(pk.beta_g1, sum_b_g1), s_delta)
        # C = sum_c + h_term + s*A + r*B1 - r*s*delta
        s_a, r_b1 = batch_scalar_mul(g1, [a_point, b_g1_point],
                                     [s_mask, r_mask], backend=self.backend)
        c_point = g1.add(sum_c, h_term)
        c_point = g1.add(c_point, s_a)
        c_point = g1.add(c_point, r_b1)
        c_point = g1.add(c_point, g1.neg(rs_delta))
        return Proof(a=a_point, b=b_point, c=c_point)
