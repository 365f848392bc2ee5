"""Tests for batch verification (random-linear-combination batching)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import CURVES
from repro.errors import ProofError
from repro.snark import (
    BatchVerifier,
    Groth16Prover,
    Groth16Verifier,
    R1CS,
    setup,
)

CURVE = CURVES["ALT-BN128"]
F = CURVE.fr


@pytest.fixture(scope="module")
def batch_setup():
    """One circuit, several proofs over different witnesses."""
    r1cs = R1CS(field=F, n_public=1)
    x = r1cs.new_variable()
    r1cs.add_constraint({x: 1}, {x: 1}, {1: 1})  # x^2 = public
    keys = setup(r1cs, CURVE, random.Random(55))
    prover = Groth16Prover(r1cs, keys.proving_key, CURVE)
    proofs, publics = [], []
    for i, x_val in enumerate((3, 11, 254)):
        assignment = [1, x_val * x_val % F.modulus, x_val]
        proofs.append(prover.prove(assignment, random.Random(100 + i)))
        publics.append([x_val * x_val % F.modulus])
    return keys, proofs, publics


class TestBatchVerifier:
    def test_all_valid_batch_accepts(self, batch_setup):
        keys, proofs, publics = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        assert batch.verify_batch(proofs, publics, random.Random(1))

    def test_single_bad_proof_fails_batch(self, batch_setup):
        keys, proofs, publics = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        g1 = CURVE.g1
        tampered = list(proofs)
        tampered[1] = type(proofs[1])(
            a=g1.add(proofs[1].a, g1.generator), b=proofs[1].b, c=proofs[1].c
        )
        assert not batch.verify_batch(tampered, publics, random.Random(2))

    def test_wrong_public_input_fails_batch(self, batch_setup):
        keys, proofs, publics = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        bad = [list(p) for p in publics]
        bad[0][0] = (bad[0][0] + 1) % F.modulus
        assert not batch.verify_batch(proofs, bad, random.Random(3))

    def test_empty_batch_accepts(self, batch_setup):
        keys, _, _ = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        assert batch.verify_batch([], [], random.Random(4))

    def test_length_mismatch_raises(self, batch_setup):
        keys, proofs, publics = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        with pytest.raises(ProofError):
            batch.verify_batch(proofs, publics[:-1], random.Random(5))

    def test_infinity_proof_rejected(self, batch_setup):
        keys, proofs, publics = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        broken = list(proofs)
        broken[0] = type(proofs[0])(a=None, b=proofs[0].b, c=proofs[0].c)
        assert not batch.verify_batch(broken, publics, random.Random(6))

    def test_agrees_with_single_verification(self, batch_setup):
        keys, proofs, publics = batch_setup
        single = Groth16Verifier(keys.verifying_key, CURVE)
        for proof, inputs in zip(proofs, publics):
            assert single.verify(proof, inputs)


# -- one-Miller-loop-per-proof batching ----------------------------------------------


class _RiggedRng:
    """Deterministic rng stub: returns a fixed value, recording the
    (lo, hi) bounds every randrange call asked for."""

    def __init__(self, value):
        self.value = value
        self.calls = []

    def randrange(self, lo, hi=None):
        self.calls.append((lo, hi))
        return self.value


class TestCoefficientDraws:
    def test_zero_coefficient_never_drawn(self, batch_setup):
        """Regression: a zero r_i silently excludes its proof from the
        check, so the draw's lower bound must be 1 — even when the rng
        always answers with the lowest allowed value."""
        keys, proofs, publics = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        rng = _RiggedRng(1)
        coeffs = batch.draw_coefficients(len(proofs), rng)
        assert all(c == 1 for c in coeffs)
        assert all(lo == 1 for lo, _ in rng.calls)

    def test_soundness_bits_size_the_draw(self, batch_setup):
        keys, _, _ = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE, soundness_bits=8)
        rng = _RiggedRng(200)
        batch.draw_coefficients(5, rng)
        assert rng.calls == [(1, 256)] * 5

    def test_draw_clamped_to_scalar_field(self, batch_setup):
        """soundness_bits wider than the field cannot draw out of
        range."""
        keys, _, _ = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE,
                              soundness_bits=4096)
        rng = _RiggedRng(1)
        batch.draw_coefficients(1, rng)
        assert rng.calls == [(1, F.modulus)]

    def test_bad_soundness_bits_rejected(self, batch_setup):
        keys, _, _ = batch_setup
        with pytest.raises(ProofError):
            BatchVerifier(keys.verifying_key, CURVE, soundness_bits=0)


class TestPairingEconomics:
    def test_engine_memoized_per_curve(self):
        from repro.snark.verifier import pairing_engine_for

        assert pairing_engine_for(CURVE) is pairing_engine_for(CURVE)

    def test_ic_combination_matches_naive_loop(self, batch_setup):
        keys, _, publics = batch_setup
        verifier = Groth16Verifier(keys.verifying_key, CURVE)
        vk = keys.verifying_key
        g1 = CURVE.g1
        for inputs in publics:
            naive = vk.ic[0]
            for x, point in zip(inputs, vk.ic[1:]):
                naive = g1.add(naive, g1.scalar_mul(x, point))
            assert verifier.ic_combination(inputs) == naive

    def test_batch_of_32_runs_35_miller_loops(self, batch_setup):
        """The tentpole claim, machine-checked: N + 3 Miller loops and
        exactly one final exponentiation for N = 32."""
        from repro.ff.opcount import OpCounter, counting

        keys, proofs, publics = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        tiled_p = [proofs[i % len(proofs)] for i in range(32)]
        tiled_x = [publics[i % len(publics)] for i in range(32)]
        counter = OpCounter()
        with counting(counter):
            assert batch.verify_batch(tiled_p, tiled_x, random.Random(9))
        assert counter.total("miller_loop") == 35
        assert counter.total("final_exp") == 1
        # the three fixed-argument precomputations build at most once
        assert counter.total("g2_precomp") <= 3

    def test_precomputation_reused_across_batches(self, batch_setup):
        from repro.ff.opcount import OpCounter, counting

        keys, proofs, publics = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        assert batch.verify_batch(proofs, publics, random.Random(10))
        counter = OpCounter()
        with counting(counter):
            assert batch.verify_batch(proofs, publics, random.Random(11))
        assert counter.total("g2_precomp") == 0
        assert counter.total("miller_loop") == len(proofs) + 3

    def test_fresh_verifier_shares_engine_precomputation(self, batch_setup):
        """Two BatchVerifier instances over the same key share the
        memoized engine, so the second one's first batch pays no
        g2_precomp either."""
        from repro.ff.opcount import OpCounter, counting

        keys, proofs, publics = batch_setup
        first = BatchVerifier(keys.verifying_key, CURVE)
        assert first.verify_batch(proofs, publics, random.Random(12))
        second = BatchVerifier(keys.verifying_key, CURVE)
        counter = OpCounter()
        with counting(counter):
            assert second.verify_batch(proofs, publics, random.Random(13))
        assert counter.total("g2_precomp") == 0


class _NoDrawRng:
    """An rng nobody may draw from."""

    def randrange(self, lo, hi=None):
        raise AssertionError("a window of one draws no coefficient")


class TestSingleVerifyEconomics:
    """Groth16Verifier.verify is the batch equation at N = 1, r = 1:
    one fresh loop for e(-A, B), three replays of the key's cached
    beta/gamma/delta tables, one final exponentiation."""

    @pytest.fixture(scope="class")
    def fresh_key(self):
        """A key no other test has verified under, and a prover for
        it (same circuit as ``batch_setup``: x^2 = public)."""
        r1cs = R1CS(field=F, n_public=1)
        x = r1cs.new_variable()
        r1cs.add_constraint({x: 1}, {x: 1}, {1: 1})
        keys = setup(r1cs, CURVE, random.Random(5150))
        return keys, Groth16Prover(r1cs, keys.proving_key, CURVE)

    def test_four_loops_one_final_exp_three_tables_once(self, fresh_key):
        from repro.ff.opcount import OpCounter, counting

        keys, prover = fresh_key
        proof = prover.prove([1, 49, 7], random.Random(1))
        verifier = Groth16Verifier(keys.verifying_key, CURVE)
        first = OpCounter()
        with counting(first):
            assert verifier.verify(proof, [49])
        assert first.total("miller_loop") == 4
        assert first.total("final_exp") == 1
        assert first.total("g2_precomp") <= 3
        for checker in (verifier,
                        Groth16Verifier(keys.verifying_key, CURVE)):
            later = OpCounter()
            with counting(later):
                assert checker.verify(proof, [49])
            assert later.total("miller_loop") == 4
            assert later.total("final_exp") == 1
            assert later.total("g2_precomp") == 0

    def test_counter_keyword_gets_the_pairing_equation_only(self, fresh_key):
        """The ``counter=`` the perf ledger passes to ``verify`` and
        ``verify_batch`` books the pairing ops and none of the IC / C
        folds' group ops, which the enclosing scope books."""
        from repro.ff.opcount import OpCounter, counting

        keys, prover = fresh_key
        proof = prover.prove([1, 49, 7], random.Random(2))
        pairing_ops = {"miller_loop", "final_exp", "g2_precomp"}
        single = Groth16Verifier(keys.verifying_key, CURVE)
        batch = BatchVerifier(keys.verifying_key, CURVE)
        for check in (lambda c: single.verify(proof, [49], counter=c),
                      lambda c: batch.verify_batch(
                          [proof, proof], [[49], [49]], random.Random(3),
                          counter=c)):
            outer, inner = OpCounter(), OpCounter()
            with counting(outer):
                assert check(inner)
            assert set(inner.totals()) <= pairing_ops
            assert inner.total("miller_loop") >= 4
            assert outer.total("padd") > 0
            assert not set(outer.totals()) & pairing_ops

    def test_a_zero_miller_product_verifies_false(self, fresh_key,
                                                  monkeypatch):
        """A degenerate (zero) Miller value is a clean False from the
        verifier, not an exception out of the final exponentiation."""
        keys, prover = fresh_key
        proof = prover.prove([1, 49, 7], random.Random(1))
        verifier = Groth16Verifier(keys.verifying_key, CURVE)
        engine = verifier.engine
        zero = engine.unity - engine.unity
        # both replay bodies: python's, and the native multi-Miller one
        # that evaluates every loop of the check in one call
        monkeypatch.setattr(engine, "_replay", lambda *_, **__: zero)
        monkeypatch.setattr(engine, "_replay_rows", lambda *_, **__: zero)
        assert verifier.verify(proof, [49]) is False

    def test_proof_points_never_enter_the_table_cache(self, fresh_key):
        keys, prover = fresh_key
        verifier = Groth16Verifier(keys.verifying_key, CURVE)
        proofs = [prover.prove([1, 49, 7], random.Random(200 + i))
                  for i in range(10)]
        assert len({proof.b for proof in proofs}) == 10
        assert verifier.verify(proofs[0], [49])     # key's tables exist
        size = len(verifier.engine._prepared)
        assert all(verifier.verify(proof, [49]) for proof in proofs[1:])
        assert len(verifier.engine._prepared) == size

    def test_window_of_one_is_the_single_check(self, batch_setup):
        from repro.ff.opcount import OpCounter, counting

        keys, proofs, publics = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        single = Groth16Verifier(keys.verifying_key, CURVE)
        g1 = CURVE.g1
        forged = type(proofs[0])(a=proofs[0].a, b=proofs[0].b,
                                 c=g1.add(proofs[0].c, g1.generator))
        for proof, verdict in ((proofs[0], (True, [])),
                               (forged, (False, [0]))):
            counter = OpCounter()
            with counting(counter):
                assert batch.verify_window([proof], [publics[0]],
                                           _NoDrawRng()) == verdict
            assert single.verify(proof, publics[0]) is verdict[0]
            assert counter.total("miller_loop") == 4
            assert counter.total("final_exp") == 1


class TestCancellationAttack:
    """Correlated batch coefficients are the classic RLC failure mode:
    tamper C_1 by +P and C_2 by -P and the perturbations cancel in the
    C fold whenever r_1 == r_2.  Independent draws must still catch
    it."""

    @staticmethod
    def _tampered_pair(proofs):
        g1 = CURVE.g1
        perturb = g1.generator
        tampered = list(proofs)
        tampered[0] = type(proofs[0])(
            a=proofs[0].a, b=proofs[0].b,
            c=g1.add(proofs[0].c, perturb))
        tampered[1] = type(proofs[1])(
            a=proofs[1].a, b=proofs[1].b,
            c=g1.add(proofs[1].c, g1.neg(perturb)))
        return tampered

    def test_equal_coefficients_miss_the_tampering(self, batch_setup):
        """Sanity check that the attack is real: with rigged equal
        coefficients the tampered batch *passes* — this is why the
        coefficients must be drawn independently per proof."""
        keys, proofs, publics = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        tampered = self._tampered_pair(proofs)
        assert batch.verify_batch(tampered, publics, _RiggedRng(7))

    def test_independent_coefficients_catch_the_tampering(self,
                                                          batch_setup):
        keys, proofs, publics = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        tampered = self._tampered_pair(proofs)
        for seed in (21, 22, 23):
            assert not batch.verify_batch(tampered, publics,
                                          random.Random(seed))


class TestWindowBisection:
    def test_clean_window(self, batch_setup):
        keys, proofs, publics = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        assert batch.verify_window(proofs, publics,
                                   random.Random(31)) == (True, [])

    def test_window_pinpoints_bad_proof(self, batch_setup):
        """One forged proof among siblings: the window fails, bisection
        names exactly the offender, the siblings are not accused."""
        keys, proofs, publics = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        g1 = CURVE.g1
        tampered = list(proofs)
        tampered[1] = type(proofs[1])(
            a=g1.add(proofs[1].a, g1.generator), b=proofs[1].b,
            c=proofs[1].c)
        ok, bad = batch.verify_window(tampered, publics, random.Random(32))
        assert not ok
        assert bad == [1]

    def test_window_length_mismatch_raises(self, batch_setup):
        keys, proofs, publics = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        with pytest.raises(ProofError):
            batch.verify_window(proofs, publics[:-1], random.Random(33))


class TestBatchSizesFuzz:
    """Hypothesis fuzz across the awkward batch sizes: empty, single,
    pair, and one crossing the default window multiple."""

    @given(n=st.sampled_from([0, 1, 2, 33]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=4, deadline=None)
    def test_tiled_batches_verify(self, batch_setup, n, seed):
        from repro.ff.opcount import OpCounter, counting

        keys, proofs, publics = batch_setup
        batch = BatchVerifier(keys.verifying_key, CURVE)
        tiled_p = [proofs[i % len(proofs)] for i in range(n)]
        tiled_x = [publics[i % len(publics)] for i in range(n)]
        counter = OpCounter()
        with counting(counter):
            assert batch.verify_batch(tiled_p, tiled_x, random.Random(seed))
        if n:
            assert counter.total("miller_loop") == n + 3
            assert counter.total("final_exp") == 1
        else:
            assert counter.total("miller_loop") == 0
            assert counter.total("final_exp") == 0


@pytest.mark.slow
class TestMnt4753Batch:
    """The Tate engine (swapped-orientation fixed-argument loop) agrees
    with per-proof verification on the 753-bit surrogate."""

    @pytest.fixture(scope="class")
    def mnt_setup(self):
        from repro.curves import CURVES

        curve = CURVES["MNT4753"]
        f = curve.fr
        r1cs = R1CS(field=f, n_public=1)
        x = r1cs.new_variable()
        r1cs.add_constraint({x: 1}, {x: 1}, {1: 1})
        keys = setup(r1cs, curve, random.Random(77))
        prover = Groth16Prover(r1cs, keys.proving_key, curve)
        proofs, publics = [], []
        for i, x_val in enumerate((5, 19)):
            assignment = [1, x_val * x_val % f.modulus, x_val]
            proofs.append(prover.prove(assignment, random.Random(300 + i)))
            publics.append([x_val * x_val % f.modulus])
        return curve, keys, proofs, publics

    def test_batch_matches_single(self, mnt_setup):
        from repro.ff.opcount import OpCounter, counting

        curve, keys, proofs, publics = mnt_setup
        single = Groth16Verifier(keys.verifying_key, curve)
        for proof, inputs in zip(proofs, publics):
            assert single.verify(proof, inputs)
        batch = BatchVerifier(keys.verifying_key, curve)
        counter = OpCounter()
        with counting(counter):
            assert batch.verify_batch(proofs, publics, random.Random(41))
        assert counter.total("miller_loop") == len(proofs) + 3
        assert counter.total("final_exp") == 1

    def test_batch_rejects_tampering(self, mnt_setup):
        curve, keys, proofs, publics = mnt_setup
        g1 = curve.g1
        batch = BatchVerifier(keys.verifying_key, curve)
        tampered = list(proofs)
        tampered[0] = type(proofs[0])(
            a=g1.add(proofs[0].a, g1.generator), b=proofs[0].b,
            c=proofs[0].c)
        ok, bad = batch.verify_window(tampered, publics, random.Random(42))
        assert not ok
        assert bad == [0]


# -- the folds on window tables and lanes, on both floors -----------------------------


@pytest.fixture(params=("default", "REPRO_NATIVE=0"))
def floor(request, monkeypatch):
    """The compiled kernels, or the python floor. Verifiers are built
    inside the tests, after the floor is set, so their IC tables are
    built on it."""
    if request.param != "default":
        monkeypatch.setenv("REPRO_NATIVE", "0")
    return request.param


@pytest.fixture(scope="module")
def product_setup():
    """The registry's two-input ``product`` circuit (out = x y and
    s = x + y, both public) and honest proofs whose public inputs are
    0, 1 and r - 1."""
    from repro.service.registry import build_instance

    r = F.modulus
    proofs, publics, prover = [], [], None
    for i, witness in enumerate(((0, 0), (1, 1), (r - 1, 1), (r - 1, 0),
                                 (1, 0))):
        r1cs, assignment = build_instance("product", F, witness)
        if prover is None:
            keys = setup(r1cs, CURVE, random.Random(4242))
            prover = Groth16Prover(r1cs, keys.proving_key, CURVE)
        proofs.append(prover.prove(assignment, random.Random(700 + i)))
        publics.append(assignment[1:3])
    assert {x for inputs in publics for x in inputs} == {0, 1, 2, r - 1}
    return keys, proofs, publics


def _ic_reference(vk, public_inputs):
    """IC_0 + sum_j x_j IC_j by one ladder per input."""
    g1 = CURVE.g1
    total = vk.ic[0]
    for x, point in zip(public_inputs, vk.ic[1:]):
        total = g1.add(total, g1.scalar_mul(x, point))
    return total


def _folds_against_reference(batch, proofs, publics, seed, monkeypatch):
    """Run ``verify_batch`` and compare the terms it hands the pairing
    equation with the ladder-built sum_i r_i A_i / alpha / IC(x_i) /
    C_i for the same coefficients; return the batch verdict."""
    g1, vk = CURVE.g1, batch.vk
    seen = []
    holds = batch._single._equation_holds
    monkeypatch.setattr(batch._single, "_equation_holds",
                        lambda *terms: seen.append(terms) or holds(*terms))
    verdict = batch.verify_batch(proofs, publics, random.Random(seed))
    coeffs = batch.draw_coefficients(len(proofs), random.Random(seed))
    a_pairs, alpha_term, ic_term, c_term = seen[0]
    assert a_pairs == [(g1.neg(g1.scalar_mul(c, proof.a)), proof.b)
                       for c, proof in zip(coeffs, proofs)]
    assert alpha_term == g1.scalar_mul(sum(coeffs), vk.alpha_g1)
    ic_fold = c_fold = None
    for c, proof, inputs in zip(coeffs, proofs, publics):
        ic_fold = g1.add(ic_fold, g1.scalar_mul(c, _ic_reference(vk, inputs)))
        c_fold = g1.add(c_fold, g1.scalar_mul(c, proof.c))
    assert (ic_term, c_term) == (ic_fold, c_fold)
    return verdict


class TestFoldsRunNoMsmEngine:
    """The verifier's folds are window-table reads and one
    ``batch_scalar_mul`` call: no MSM engine runs and no checkpoint
    table is preprocessed, on the first verify or any batch."""

    def test_no_preprocess_phase_and_no_msm_compute(self, batch_setup, floor,
                                                    monkeypatch):
        from repro.ff.opcount import OpCounter, counting
        from repro.msm.gzkp import GzkpMsm

        def refuse(*_, **__):
            raise AssertionError("the verifier ran an MSM engine")

        monkeypatch.setattr(GzkpMsm, "compute", refuse)
        keys, proofs, publics = batch_setup
        counter = OpCounter()
        with counting(counter):
            single = Groth16Verifier(keys.verifying_key, CURVE)
            batch = BatchVerifier(keys.verifying_key, CURVE)
            assert single.verify(proofs[0], publics[0])
            for seed in (21, 22):
                assert batch.verify_batch(proofs, publics,
                                          random.Random(seed))
        assert "preprocess" not in counter.by_phase
        assert counter.total("padd") > 0


class TestFoldEdgeCases:
    """The IC fold on window tables and the A / C / alpha / IC_0 lanes
    against one ladder per term, and the batch verdict against the
    per-proof ``verify``."""

    def test_ic_combination_at_edge_inputs(self, product_setup, floor):
        keys, _, _ = product_setup
        vk, r = keys.verifying_key, F.modulus
        verifier = Groth16Verifier(vk, CURVE)
        for inputs in ([0, 0], [1, 1], [r - 1, r - 1], [0, r - 1],
                       [r - 1, 1], [2, 0]):
            assert verifier.ic_combination(inputs) == _ic_reference(vk,
                                                                    inputs)

    def test_product_batch_at_edge_inputs(self, product_setup, floor,
                                          monkeypatch):
        keys, proofs, publics = product_setup
        single = Groth16Verifier(keys.verifying_key, CURVE)
        batch = BatchVerifier(keys.verifying_key, CURVE)
        assert all(single.verify(p, x) for p, x in zip(proofs, publics))
        assert _folds_against_reference(batch, proofs, publics, 31,
                                        monkeypatch)

    def test_ic_point_at_infinity(self, product_setup, floor, monkeypatch):
        import dataclasses

        keys, proofs, publics = product_setup
        vk = keys.verifying_key
        hollow = dataclasses.replace(vk, ic=[vk.ic[0], None, vk.ic[2]])
        single = Groth16Verifier(hollow, CURVE)
        assert single._ic_tables[0].table == []
        for inputs in publics:
            assert single.ic_combination(inputs) == _ic_reference(hollow,
                                                                  inputs)
        verdicts = [single.verify(p, x) for p, x in zip(proofs, publics)]
        batch = BatchVerifier(hollow, CURVE)
        assert (_folds_against_reference(batch, proofs, publics, 33,
                                         monkeypatch)
                is all(verdicts))

    @pytest.mark.parametrize("shape", ["one", "same proof twice"])
    def test_batch_of_one_and_a_repeated_proof(self, batch_setup, floor,
                                               monkeypatch, shape):
        keys, proofs, publics = batch_setup
        picks = [1] if shape == "one" else [1, 1]
        batch = BatchVerifier(keys.verifying_key, CURVE)
        single = Groth16Verifier(keys.verifying_key, CURVE)
        assert single.verify(proofs[1], publics[1])
        assert _folds_against_reference(
            batch, [proofs[i] for i in picks], [publics[i] for i in picks],
            34, monkeypatch)
        g1 = CURVE.g1
        forged = type(proofs[1])(a=proofs[1].a, b=proofs[1].b,
                                 c=g1.add(proofs[1].c, g1.generator))
        assert not single.verify(forged, publics[1])
        assert not batch.verify_batch([forged] * len(picks),
                                      [publics[1]] * len(picks),
                                      random.Random(35))
