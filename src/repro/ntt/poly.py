"""The POLY stage: H(x) = (A(x)B(x) - C(x)) / (x^N - 1) via seven NTTs.

This is the prover's first stage (Figure 1). The inputs are the
evaluation vectors a, b, c of the QAP polynomials A, B, C over the
domain of N-th roots of unity. The quotient H must be computed on a
*coset* g * <omega> (on the domain itself the vanishing polynomial
x^N - 1 is zero and A*B - C has no information beyond the witness
check), giving exactly the paper's seven NTT-sized operations:

  1-3. INTT(a), INTT(b), INTT(c)            -> coefficient form
  4-6. coset-NTT of each                    -> evaluations on g * <omega>
  7.   coset-INTT of h evaluations          -> coefficients of H

with the pointwise work (A*B - C) * (g^N - 1)^{-1} in between (the
vanishing polynomial is the constant g^N - 1 on the coset).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import NttError
from repro.ff.opcount import count, counting
from repro.ff.primefield import PrimeField
from repro.gpusim.trace import Trace
from repro.service.telemetry import maybe_span

__all__ = ["PolyStage", "NTT_OPS_PER_PROOF"]

#: the paper's §5.2: one proof performs seven NTT operations
NTT_OPS_PER_PROOF = 7


class PolyStage:
    """Computes H's coefficients from a, b, c evaluations using any NTT
    engine exposing ``compute`` / ``compute_inverse`` (GZKP, baseline or
    CPU model) — the engines are interchangeable because they are all
    functionally exact.

    Vectors travel between the stage's calls as the backend's resident
    vectors (:meth:`~repro.backend.base.ComputeBackend.resident`): a, b
    and c become resident once, every NTT and pointwise pass hands back
    what it was handed, and h is turned into ints once. A resident
    vector is also a ``Sequence[int]``, so an engine that only knows
    ints still computes the right H — it merely pays a conversion the
    type-preserving engines skip."""

    def __init__(self, field: PrimeField, engine, backend=None):
        self.field = field
        self.engine = engine
        #: compute backend (name, instance or None = $REPRO_BACKEND)
        self.backend = backend

    def _backend(self):
        from repro.backend import get_backend

        return get_backend(self.backend)

    # -- coset helpers ---------------------------------------------------------

    def _coset_generator(self) -> int:
        """A multiplicative-generator-like element g with g^N != 1; any
        non-residue works (its order does not divide (p-1)/2)."""
        return self.field.find_nonresidue()

    def _scale_by_powers(self, values: Sequence[int], g: int) -> List[int]:
        out = self._backend().vmul_powers(self.field, values, g)
        count("fr_mul", 2 * len(out))
        return out

    def coset_ntt(self, coeffs: Sequence[int]) -> List[int]:
        """Evaluate a coefficient vector on the coset g * <omega> (ints
        in, a list out; resident in, resident out)."""
        be = self._backend()
        vec = be.resident(self.field, coeffs)
        g = self._coset_generator()
        out = self.engine.compute(self._scale_by_powers(vec, g))
        return out if vec is coeffs else be.ints(out)

    def coset_intt(self, evals: Sequence[int]) -> List[int]:
        """Interpolate coefficients from evaluations on the coset (ints
        in, a list out; resident in, resident out)."""
        be = self._backend()
        vec = be.resident(self.field, evals)
        g_inv = self.field.inv(self._coset_generator())
        coeffs = self.engine.compute_inverse(vec)
        out = self._scale_by_powers(coeffs, g_inv)
        return out if vec is evals else be.ints(out)

    # -- the stage ----------------------------------------------------------------

    def compute_h(self, a: Sequence[int], b: Sequence[int], c: Sequence[int],
                  telemetry=None) -> List[int]:
        """Coefficients of H(x) = (A(x)B(x) - C(x)) / (x^N - 1).

        Requires a_i * b_i == c_i on the domain (i.e. a satisfied
        constraint system); otherwise the division is inexact and the
        result meaningless — callers should have validated satisfaction.

        With ``telemetry`` attached, each of the seven NTT operations
        (and the pointwise quotient pass) reports its own sub-span under
        the caller's current span and counts on it; without, the stage
        counts on the active scope. The int -> resident conversions of
        a, b, c are inside the three INTT spans and the resident -> int
        conversion of h inside the last one.
        """
        n = len(a)
        if not (len(b) == len(c) == n):
            raise NttError("a, b, c must have equal length")
        if n == 0 or n & (n - 1):
            raise NttError(f"POLY stage needs a power-of-two domain, got {n}")
        p = self.field.modulus
        backend = self._backend()

        def step(name, fn, values):
            with maybe_span(telemetry, name) as sp, counting(sp.counter):
                return fn(values)

        def intt_of_ints(values):
            return self.engine.compute_inverse(
                backend.resident(self.field, values))

        def coset_intt_to_ints(evals):
            return backend.ints(self.coset_intt(evals))

        a_coeffs = step("INTT-a", intt_of_ints, a)                   # NTT 1
        b_coeffs = step("INTT-b", intt_of_ints, b)                   # NTT 2
        c_coeffs = step("INTT-c", intt_of_ints, c)                   # NTT 3

        a_coset = step("coset-NTT-a", self.coset_ntt, a_coeffs)      # NTT 4
        b_coset = step("coset-NTT-b", self.coset_ntt, b_coeffs)      # NTT 5
        c_coset = step("coset-NTT-c", self.coset_ntt, c_coeffs)      # NTT 6

        with maybe_span(telemetry, "pointwise-quotient") as sp, \
                counting(sp.counter):
            g = self._coset_generator()
            z_inv = self.field.inv((pow(g, n, p) - 1) % p)
            h_coset = backend.vscale(
                self.field,
                backend.vsub(self.field,
                             backend.vmul(self.field, a_coset, b_coset),
                             c_coset),
                z_inv,
            )
            count("fr_mul", 2 * n)
            count("fr_add", n)

        return step("coset-INTT-h", coset_intt_to_ints, h_coset)     # NTT 7

    # -- analytic plan ----------------------------------------------------------------

    def plan(self, n: int) -> Trace:
        """Counted work of the whole stage: seven engine NTTs plus the
        pointwise passes."""
        trace = Trace()
        for _ in range(NTT_OPS_PER_PROOF):
            trace.merge(self.engine.plan(n))
        # Pointwise scaling and quotient arithmetic (4 coset scalings at
        # 2 muls/elem plus the h-evaluation pass at 2 muls + 1 add).
        bits = self.field.bits
        pointwise = Trace()
        if hasattr(self.engine, "device") and hasattr(self.engine.device, "modmul_rate"):
            pointwise.add_gpu_muls(bits, 10 * n, backend=_engine_backend(self.engine))
            pointwise.add_gpu_adds(bits, n)
        else:
            pointwise.add_cpu_muls(bits, 10 * n)
            pointwise.add_cpu_adds(bits, n)
        trace.merge(pointwise)
        return trace

    def estimate_seconds(self, n: int) -> float:
        return NTT_OPS_PER_PROOF * self.engine.estimate_seconds(n)


def _engine_backend(engine) -> str:
    """Which multiplier backend an engine's pointwise kernels use."""
    from repro.gpusim.trace import DFP_BACKEND, INT_BACKEND
    variant = getattr(engine, "variant", None)
    if variant is not None and not variant.use_dfp_library:
        return INT_BACKEND
    return DFP_BACKEND
