"""Proving/verification key containers and the Groth16 trusted setup.

The setup phase of Figure 1: sample toxic waste (alpha, beta, gamma,
delta, tau), then encode the QAP's variable polynomials and the domain
powers into point vectors over G1/G2. The proving key's long vectors
(M and Q in the paper's notation) are exactly what the prover's five
MSMs run over.

The toxic waste is retained in a separate :class:`Trapdoor` object: real
deployments destroy it, but the reproduction uses it for (a) the
MNT4753-surrogate verification path (no pairing tower there, DESIGN.md
paragraph 2) and (b) white-box tests that check proof elements against
their defining equations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import List, Optional

from repro.curves.params import CurvePair
from repro.curves.weierstrass import AffinePoint
from repro.errors import ProofError
from repro.msm.fixed_base import fixed_base_mul
from repro.snark.r1cs import R1CS

__all__ = ["Trapdoor", "ProvingKey", "VerifyingKey", "Groth16Setup", "setup"]


@dataclass(frozen=True)
class Trapdoor:
    """The setup's toxic waste (test/trapdoor-verification use only)."""

    alpha: int
    beta: int
    gamma: int
    delta: int
    tau: int


@dataclass
class ProvingKey:
    """Everything the prover needs (all points affine)."""

    # G1 scalars of the masking terms
    alpha_g1: AffinePoint
    beta_g1: AffinePoint
    delta_g1: AffinePoint
    # G2 twins
    beta_g2: AffinePoint
    delta_g2: AffinePoint
    # A-query: u_j(tau) * G1 per variable
    a_query: List[AffinePoint]
    # B-query: v_j(tau) * G1 and * G2 per variable
    b_g1_query: List[AffinePoint]
    b_g2_query: List[AffinePoint]
    # C-query: (beta u_j + alpha v_j + w_j)/delta * G1, witness vars only
    c_query: List[AffinePoint]
    # H-query: tau^i Z(tau)/delta * G1 for i in [0, N-1)
    h_query: List[AffinePoint]
    n_public: int
    domain_size: int


@dataclass
class VerifyingKey:
    """The short verification key (a few points, §2.1)."""

    alpha_g1: AffinePoint
    beta_g2: AffinePoint
    gamma_g2: AffinePoint
    delta_g2: AffinePoint
    # IC: (beta u_j + alpha v_j + w_j)/gamma * G1 for public vars
    ic: List[AffinePoint]

    def fixed_g2_points(self) -> List[AffinePoint]:
        """The three fixed G2 pairing arguments (beta, gamma, delta),
        in the order the verifier pairs them with its alpha, IC and C
        terms — the points whose Miller-loop lines are tabulated once
        per key (``MillerEngine.prepare_g2``)."""
        return [self.beta_g2, self.gamma_g2, self.delta_g2]

    def check_public_inputs(self, public_inputs) -> None:
        """Raise :class:`ProofError` unless there is exactly one public
        input per IC point after the constant ``ic[0]``."""
        if len(public_inputs) != len(self.ic) - 1:
            raise ProofError(
                f"expected {len(self.ic) - 1} public inputs, "
                f"got {len(public_inputs)}"
            )


@dataclass
class Groth16Setup:
    """Bundle returned by :func:`setup`."""

    proving_key: ProvingKey
    verifying_key: VerifyingKey
    trapdoor: Trapdoor
    curve: CurvePair


def setup(r1cs: R1CS, curve: CurvePair,
          rng: Optional[random.Random] = None,
          backend=None) -> Groth16Setup:
    """Run the one-time trusted setup for a constraint system.

    Every key element is a multiple of one of two fixed points, so the
    whole key is two fixed-base calls
    (:func:`repro.msm.fixed_base.fixed_base_mul`): every G1 scalar on
    ``g1.generator``, every G2 scalar on ``g2.generator``, sliced back
    into the queries. ``backend`` (a ComputeBackend, name or None =
    $REPRO_BACKEND) is where those two calls run; the key is the same
    on every backend."""
    if rng is None:
        rng = random.Random()
    fr = curve.fr
    r = fr.modulus
    if r1cs.field.modulus != r:
        raise ProofError(
            f"R1CS is over {r1cs.field.name}, curve scalar field is {fr.name}"
        )
    g1, g2 = curve.g1, curve.g2

    trap = Trapdoor(
        alpha=rng.randrange(1, r),
        beta=rng.randrange(1, r),
        gamma=rng.randrange(1, r),
        delta=rng.randrange(1, r),
        tau=rng.randrange(2, r),
    )
    n = r1cs.domain_size()
    u, v, w = r1cs.variable_polynomials_at(trap.tau)

    gamma_inv = fr.inv(trap.gamma)
    delta_inv = fr.inv(trap.delta)
    z_tau = (pow(trap.tau, n, r) - 1) % r

    n_vars = r1cs.n_variables
    first_witness = 1 + r1cs.n_public
    combined = [(trap.beta * u[j] + trap.alpha * v[j] + w[j]) % r
                for j in range(n_vars)]
    h_scalars = []
    tau_pow = 1
    for _ in range(max(n - 1, 1)):
        h_scalars.append(tau_pow * z_tau % r * delta_inv)
        tau_pow = tau_pow * trap.tau % r

    g1_points = iter(fixed_base_mul(g1, g1.generator, [
        *u, *v,
        *(combined[j] * delta_inv for j in range(first_witness, n_vars)),
        *(combined[j] * gamma_inv for j in range(first_witness)),
        *h_scalars, trap.alpha, trap.beta, trap.delta,
    ], backend=backend))
    g2_points = iter(fixed_base_mul(
        g2, g2.generator, [*v, trap.beta, trap.gamma, trap.delta],
        backend=backend))

    def take(points, count: int) -> List[AffinePoint]:
        return list(islice(points, count))

    a_query = take(g1_points, n_vars)
    b_g1_query = take(g1_points, n_vars)
    c_query = take(g1_points, n_vars - first_witness)
    ic = take(g1_points, first_witness)
    h_query = take(g1_points, len(h_scalars))
    alpha_g1, beta_g1, delta_g1 = g1_points
    b_g2_query = take(g2_points, n_vars)
    beta_g2, gamma_g2, delta_g2 = g2_points

    pk = ProvingKey(
        alpha_g1=alpha_g1,
        beta_g1=beta_g1,
        delta_g1=delta_g1,
        beta_g2=beta_g2,
        delta_g2=delta_g2,
        a_query=a_query,
        b_g1_query=b_g1_query,
        b_g2_query=b_g2_query,
        c_query=c_query,
        h_query=h_query,
        n_public=r1cs.n_public,
        domain_size=n,
    )
    vk = VerifyingKey(
        alpha_g1=alpha_g1,
        beta_g2=beta_g2,
        gamma_g2=gamma_g2,
        delta_g2=delta_g2,
        ic=ic,
    )
    return Groth16Setup(proving_key=pk, verifying_key=vk, trapdoor=trap,
                        curve=curve)
