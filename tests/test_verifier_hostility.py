"""Forged proofs against every verifier entry point, on both floors.

Each curve's verifier — the optimal-ate engines on ALT-BN128 and
BLS12-381 and the MNT4753 Tate engine, all three on C loops by default
and python under ``REPRO_NATIVE=0`` — must reject six forgeries of an
honest proof for a circuit with two public inputs: A + G, C + G, B
taken from another proof, a public input + 1, a public input + r (the
same residue, so a verifier that reduced its inputs would accept it),
and the two public inputs swapped. ``verify`` and ``verify_batch``
reject each one; ``verify_window`` names exactly the forged indices of
a group of four. Every curve runs on both floors.

The decoder stands before all three: ``deserialize_proof`` refuses a
proof whose A, B or C was moved off the order-r subgroup by a cofactor
component (the endomorphism tests on ALT-BN128 and BLS12-381, [r]P on
MNT4753).
"""

import functools
import random

import pytest

from repro.curves import CURVES
from repro.errors import ProofError
from repro.snark import (BatchVerifier, Groth16Prover, Groth16Verifier,
                         R1CS, setup)
from repro.snark.prover import Proof
from repro.snark.serialize import deserialize_proof, serialize_proof
from tests.test_curves import random_curve_points

CASES = [(curve, floor) for curve in ("ALT-BN128", "BLS12-381", "MNT4753")
         for floor in ("default", "REPRO_NATIVE=0")]


@functools.lru_cache(maxsize=None)
def _forged(curve_name):
    """Honest (proof, inputs) pairs and the six forgeries of one of them:
    x^2 = y1 and x y1 = y2 with y1, y2 public."""
    curve = CURVES[curve_name]
    fr, g1 = curve.fr, curve.g1
    r1cs = R1CS(field=fr, n_public=2)
    x = r1cs.new_variable()
    r1cs.add_constraint({x: 1}, {x: 1}, {1: 1})
    r1cs.add_constraint({x: 1}, {1: 1}, {2: 1})
    keys = setup(r1cs, curve, random.Random(17))
    prover = Groth16Prover(r1cs, keys.proving_key, curve)

    def honest(value, seed):
        public = [value * value % fr.modulus, value ** 3 % fr.modulus]
        return prover.prove([1, *public, value], random.Random(seed)), public

    (p1, pub1), (p2, _), (p3, pub3) = (honest(7, 1), honest(7, 2),
                                       honest(5, 3))
    gen = g1.generator
    forgeries = {
        "A+G": (Proof(a=g1.add(p1.a, gen), b=p1.b, c=p1.c), pub1),
        "C+G": (Proof(a=p1.a, b=p1.b, c=g1.add(p1.c, gen)), pub1),
        "B of another proof": (Proof(a=p1.a, b=p2.b, c=p1.c), pub1),
        "input+1": (p1, [pub1[0] + 1, pub1[1]]),
        "input+r": (p1, [pub1[0] + fr.modulus, pub1[1]]),
        "swapped inputs": (p1, [pub1[1], pub1[0]]),
    }
    verifier = Groth16Verifier(keys.verifying_key, curve)
    batch = BatchVerifier(keys.verifying_key, curve)
    assert verifier.verify(p2, pub1) and verifier.verify(p3, pub3)
    return verifier, batch, [(p1, pub1), (p2, pub1), (p3, pub3)], forgeries


@pytest.fixture(params=CASES, ids=lambda case: "-".join(case))
def forged(request, monkeypatch):
    curve_name, floor = request.param
    if floor != "default":
        monkeypatch.setenv("REPRO_NATIVE", "0")
    return _forged(curve_name)


def test_single_and_batched_checks_reject_every_forgery(forged):
    verifier, batch, honest, forgeries = forged
    good, good_inputs = honest[0]
    assert verifier.verify(good, good_inputs)
    for name, (proof, inputs) in forgeries.items():
        assert verifier.verify(proof, inputs) is False, name
        assert batch.verify_batch([honest[2][0], proof],
                                  [honest[2][1], inputs],
                                  random.Random(5)) is False, name


def test_a_window_names_exactly_the_forged_indices(forged):
    _, batch, honest, forgeries = forged
    fakes = list(forgeries.values())
    for positions in ((0, 1), (2, 3), (1, 2)):
        group, honest_left = [], iter(honest)
        for i in range(4):
            group.append(fakes.pop(0) if i in positions
                         else next(honest_left))
        ok, bad = batch.verify_window([p for p, _ in group],
                                      [x for _, x in group],
                                      random.Random(sum(positions)))
        assert (ok, bad) == (False, list(positions))
    assert not fakes
    assert batch.verify_window([p for p, _ in honest],
                               [x for _, x in honest],
                               random.Random(9)) == (True, [])


@functools.lru_cache(maxsize=None)
def _cofactor_components(curve_name):
    """[r]R in G1 and in G2, R a random point of the whole curve: on the
    curve and off the order-r subgroup; None for ALT-BN128's G1, which
    is the whole curve."""
    curve = CURVES[curve_name]
    parts = []
    for group in (curve.g1, curve.g2):
        if group.cofactor == 1:
            parts.append(None)
            continue
        (point,) = random_curve_points(
            group, random.Random(f"{group.name}/component"), 1)
        parts.append(group.scalar_mul_unchecked(group.order, point))
    return tuple(parts)


def test_decode_refuses_wrong_subgroup_a_b_and_c(forged):
    verifier, _, honest, _ = forged
    curve = verifier.curve
    g1, g2 = curve.g1, curve.g2
    proof = honest[0][0]
    assert deserialize_proof(serialize_proof(proof, curve), curve) == proof
    g1_part, g2_part = _cofactor_components(curve.name)
    moved = {"G2": [Proof(a=proof.a, b=g2.add(proof.b, g2_part),
                          c=proof.c)]}
    if g1_part is None:
        assert curve.name == "ALT-BN128"
    else:
        moved["G1"] = [Proof(a=g1.add(proof.a, g1_part), b=proof.b,
                             c=proof.c),
                       Proof(a=proof.a, b=proof.b,
                             c=g1.add(proof.c, g1_part))]
    for what, proofs in moved.items():
        for bad in proofs:
            with pytest.raises(ProofError, match=f"invalid {what} encoding: "
                               "point is not in the prime-order subgroup"):
                deserialize_proof(serialize_proof(bad, curve), curve)
