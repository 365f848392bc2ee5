"""End-to-end integration: the GZKP engines wired into Groth16, whole
workload circuits proven and verified, on all three curves."""

import random

import pytest

from repro.circuits import merkle_tree_circuit, workload
from repro.curves import CURVES
from repro.service.registry import build_instance
from repro.snark import Groth16Prover, Groth16Verifier, setup
from repro.snark.gzkp_prover import make_gzkp_prover
from repro.snark.serialize import deserialize_proof, serialize_proof


class TestGzkpEnginesInGroth16:
    """The paper's engines (not the reference ones) produce valid
    proofs — closing the loop between repro.ntt/repro.msm and
    repro.snark."""

    @pytest.fixture(scope="class")
    def instance(self):
        curve = CURVES["ALT-BN128"]
        r1cs, assignment = merkle_tree_circuit(curve.fr, depth=2, seed=31)
        keys = setup(r1cs, curve, random.Random(31))
        return curve, r1cs, assignment, keys

    def test_gzkp_prover_proof_verifies(self, instance):
        curve, r1cs, assignment, keys = instance
        prover = make_gzkp_prover(r1cs, keys.proving_key, curve,
                                  msm_window=6, msm_interval=3)
        proof = prover.prove(assignment, random.Random(1))
        verifier = Groth16Verifier(keys.verifying_key, curve)
        assert verifier.verify(proof, assignment[1:2])

    def test_gzkp_and_reference_provers_agree(self, instance):
        """With identical masks, the GZKP-engine prover and the
        reference prover emit the *same group elements* — engine choice
        cannot change the proof, only how fast it is computed."""
        curve, r1cs, assignment, keys = instance
        reference = Groth16Prover(r1cs, keys.proving_key, curve)
        gzkp = make_gzkp_prover(r1cs, keys.proving_key, curve,
                                msm_window=5, msm_interval=2)
        r_mask, s_mask = 12345, 67890
        p_ref = reference._prove_with_masks(assignment, r_mask, s_mask)
        p_gz = gzkp._prove_with_masks(assignment, r_mask, s_mask)
        assert p_ref.a == p_gz.a
        assert p_ref.b == p_gz.b
        assert p_ref.c == p_gz.c

    def test_h_computation_identical(self, instance):
        curve, r1cs, assignment, keys = instance
        reference = Groth16Prover(r1cs, keys.proving_key, curve)
        gzkp = make_gzkp_prover(r1cs, keys.proving_key, curve,
                                msm_window=5, msm_interval=2)
        assert reference.compute_h(assignment) == gzkp.compute_h(assignment)

    @pytest.mark.parametrize("curve_name", ["ALT-BN128", "BLS12-381",
                                            "MNT4753"])
    def test_backend_choice_preserves_proof_and_counts(self, curve_name):
        """The compute backend (scalar python vs numpy, which runs the
        native kernels, or the python floor under ``REPRO_NATIVE=0``)
        changes neither the proof bits nor the curve-op totals of an
        end-to-end Groth16 run, on every curve. ``product`` is the
        smallest registry circuit whose H polynomial is non-zero."""
        from repro.ff.opcount import OpCounter

        curve = CURVES[curve_name]
        r1cs, assignment = build_instance("product", curve.fr, (3, 5))
        keys = setup(r1cs, curve, random.Random(31))
        proofs, totals = [], []
        for backend in ("python", "numpy"):
            gzkp = make_gzkp_prover(r1cs, keys.proving_key, curve,
                                    msm_window=5, msm_interval=2,
                                    backend=backend)
            c_g1, c_g2 = OpCounter(), OpCounter()
            curve.g1.counter = c_g1
            curve.g2.counter = c_g2
            try:
                proofs.append(gzkp._prove_with_masks(assignment, 111, 222))
            finally:
                curve.g1.counter = None
                curve.g2.counter = None
            totals.append((dict(c_g1._totals), dict(c_g2._totals)))
        assert proofs[0] == proofs[1]
        assert totals[0] == totals[1]


class TestWorkloadEndToEnd:
    """Small builds of the paper's workloads, proven and verified."""

    @pytest.mark.parametrize("name", ["AES", "Merkle-Tree", "Sapling_Output"])
    def test_workload_proof_roundtrip(self, name):
        curve = CURVES["ALT-BN128"]  # fastest curve for the battery
        w = workload(name)
        r1cs, assignment = w.build_small(curve.fr)
        keys = setup(r1cs, curve, random.Random(hash(name) & 0xFFFF))
        prover = Groth16Prover(r1cs, keys.proving_key, curve)
        proof = prover.prove(assignment, random.Random(2))
        # Through the wire and back.
        restored = deserialize_proof(serialize_proof(proof, curve), curve)
        verifier = Groth16Verifier(keys.verifying_key, curve)
        publics = assignment[1:1 + r1cs.n_public]
        assert verifier.verify(restored, publics)


@pytest.mark.slow
class TestAllCurvesEndToEnd:
    """Full prove+verify with real pairings on every supported curve."""

    @pytest.mark.parametrize("curve_name",
                             ["ALT-BN128", "BLS12-381", "MNT4753"])
    def test_prove_verify(self, curve_name):
        curve = CURVES[curve_name]
        r1cs, assignment = merkle_tree_circuit(curve.fr, depth=2,
                                               seed=41)
        keys = setup(r1cs, curve, random.Random(41))
        prover = Groth16Prover(r1cs, keys.proving_key, curve)
        proof = prover.prove(assignment, random.Random(42))
        verifier = Groth16Verifier(keys.verifying_key, curve)
        assert verifier.verify(proof, assignment[1:2])
        assert not verifier.verify(proof, [(assignment[1] + 1)
                                           % curve.fr.modulus])
