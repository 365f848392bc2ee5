"""Limb-bound certifier: certificates, loader-gate mirrors, violations."""

import pytest

from repro.analysis.bounds import (
    certify_all,
    certify_modulus,
    certify_native_mont,
)
from repro.analysis.report import AnalysisReport
from repro.ff.params import BASE_FIELDS, SCALAR_FIELDS

ALL_FIELDS = sorted(
    {f.modulus for f in list(SCALAR_FIELDS.values())
     + list(BASE_FIELDS.values())}
)
BN254_R = SCALAR_FIELDS["ALT-BN128"].modulus


def test_certify_all_passes_at_head():
    certs = certify_all()
    # 2 families x 6 distinct moduli (Fr + Fq of three curves), then the
    # pairing kernels' for the two optimal-ate curves and MNT4753's Tate
    assert len(certs) == 15
    assert {c.family for c in certs} == {"native-mont", "native-jacobian",
                                         "native-pairing"}
    assert [c.modulus_name for c in certs
            if c.family == "native-pairing"] == ["ALT-BN128.Fq12",
                                                 "BLS12-381.Fq12",
                                                 "MNT4753.Fq2"]
    bad = [(c.family, c.modulus_name, [v.name for v in c.violations()])
           for c in certs if not c.ok]
    assert bad == []


@pytest.mark.parametrize("modulus", ALL_FIELDS)
def test_every_family_certifies(modulus):
    for cert in certify_modulus("m", modulus):
        assert cert.ok, [v.name for v in cert.violations()]
        assert cert.checks, "empty certificate proves nothing"


def test_native_mont_certificate_mirrors_loader_gate():
    from repro.backend import native

    cert = certify_native_mont("ALT-BN128.Fr", BN254_R)
    assert cert.ok
    assert cert.family == "native-mont"
    # The certificate's width cap must agree with the loader's actual
    # MAX_WORDS gate (get_native_field refuses w > MAX_WORDS - 2).
    assert cert.params["max_words"] == native.MAX_WORDS
    width = cert.check("cios/scratch-width")
    assert width is not None
    assert width.limit == native.MAX_WORDS - 1


POINT_KERNEL_CHECKS = ("scratch-width", "mont-closure", "discriminant-exact",
                       "add-mul-parity", "dbl-mul-parity",
                       "dbl-a-mul-parity", "merge-combine-muls",
                       "merge-inversion-muls", "merge-fermat-exponent",
                       "merge-fermat-prime", "affine-muls",
                       "windows-no-new-primitive", "windows-index-bound")


@pytest.mark.parametrize("modulus", ALL_FIELDS)
def test_native_jacobian_certificate_covers_the_bucket_fold(modulus):
    """The lane loops and the sequential fold run the same ``jpt_*``
    functions, which branch on word compares and do no conversion: one
    set of gates (scratch width, canonicality closure, discriminant
    exactness) and one replay of the mul counts — exactly the formulas'
    16 / 7 / 7+3 — covers them all, each stated once."""
    from repro.analysis.bounds import certify_native_jacobian
    from repro.backend import native
    from repro.curves.weierstrass import CurveGroup

    cert = certify_native_jacobian("m", modulus)
    assert cert.ok, [v.name for v in cert.violations()]
    for name in POINT_KERNEL_CHECKS:
        check = cert.check(name)
        assert check is not None and check.ok, name
    names = [c.name for c in cert.checks]
    assert len(names) == len(set(names)) and not any("/" in n for n in names)
    assert cert.check("scratch-width").limit == native.MAX_WORDS - 1
    assert cert.params["native_muls"] == {
        "padd": CurveGroup.PADD_FQ_MULS, "pdbl": CurveGroup.PDBL_FQ_MULS,
        "pdbl_a": CurveGroup.PDBL_FQ_MULS + 3}
    # a merge lane: 3 muls of combine, 3 of batch-inversion leg, the
    # 6 of GZKP's batch-affine point-merging
    assert cert.params["merge_muls"] == {"combine": 3, "inversion": 3}
    # a live to_affine lane: its 3-mul inversion leg, z^-2, z^-3 and
    # the two coordinates
    assert cert.params["affine_muls"] == 7


def test_native_jacobian_fold_checks_reject_bad_moduli():
    from repro.analysis.bounds import certify_native_jacobian

    bad = {v.name for v in certify_native_jacobian(
        "even", (1 << 64) - 2).violations()}
    assert "discriminant-exact" in bad
    bad = {v.name for v in certify_native_jacobian(
        "huge", (1 << (64 * 31)) - 3).violations()}
    assert "scratch-width" in bad
    # odd but composite (and a base-3 Fermat pseudoprime): the merge's
    # a^(p-2) would not be an inverse
    bad = {v.name for v in certify_native_jacobian("91", 91).violations()}
    assert bad == {"merge-fermat-prime"}


def test_native_mont_rejects_even_and_oversized_moduli():
    # An even modulus has no n0inv: structural violation.
    cert = certify_native_mont("even", (1 << 64) - 2)
    assert not cert.ok
    assert "cios/odd-modulus" in {v.name for v in cert.violations()}
    # A modulus wider than the scratch gate fails the width check —
    # exactly the inputs get_native_field refuses at runtime.
    huge = (1 << (64 * 31)) - 3
    cert = certify_native_mont("huge", huge)
    assert not cert.ok
    assert "cios/scratch-width" in {v.name for v in cert.violations()}


def test_violation_fails_the_report():
    report = AnalysisReport(certificates=[
        certify_native_mont("even", (1 << 64) - 2)
    ])
    assert not report.ok
    assert "VIOLATION" in report.render()


def test_report_json_round_trips():
    import json

    report = AnalysisReport(certificates=certify_modulus("m", BN254_R))
    data = json.loads(report.to_json())
    assert data["ok"] is True
    assert len(data["certificates"]) == 2
    for cert in data["certificates"]:
        for check in cert["checks"]:
            assert check["bound"] < check["limit"]



# -- the pairing kernels' certificate ------------------------------------------

PAIRING_CHECKS = ("ext-no-new-primitive", "ext-lazy-headroom",
                  "loops-no-new-primitive",
                  "ext-degree", "ext-scratch-width",
                  "schedule-is-the-generator", "hard-chain-is-h",
                  "pairing-guards")


def _pairing_violations(engine=None):
    from repro.analysis.bounds import certify_native_pairing
    from repro.curves import bn128_g2, bn128_pairing

    cert = certify_native_pairing("ALT-BN128.Fq12", engine or bn128_pairing(),
                                  bn128_g2.generator)
    return {v.name for v in cert.violations()}, cert


def test_native_pairing_certificate_states_each_gate_once():
    bad, cert = _pairing_violations()
    assert bad == set()
    assert [c.name for c in cert.checks] == list(PAIRING_CHECKS)
    assert cert.params["degree"] == 12 and cert.params["fold_terms"] == 2
    assert cert.params["ext_sqr_products"] == 78


def _mutated(monkeypatch, old, new):
    from repro.backend import native

    assert native._C_SOURCE.count(old) == 1, old
    monkeypatch.setattr(native, "_C_SOURCE",
                        native._C_SOURCE.replace(old, new))


def test_ext_gate_fails_on_a_new_primitive(monkeypatch):
    """A mutant extension product that inverts a coefficient calls a
    primitive the Montgomery gates do not cover."""
    _mutated(monkeypatch, "    ext_reduce(o, acc, d, fm, N, n0inv, w);\n}\n\n"
             "static void ext_sqr",
             "    ext_reduce(o, acc, d, fm, N, n0inv, w);\n"
             "    fp_inv(o, o, N, N, n0inv, w);\n}\n\n"
             "static void ext_sqr")
    bad, cert = _pairing_violations()
    assert bad == {"ext-no-new-primitive"}
    assert "fp_inv" in cert.check("ext-no-new-primitive").detail


def test_lazy_headroom_gate_fails_past_the_accumulator():
    """d unreduced products fit 2w + 1 words with ~60 bits to spare at
    d = 12; a degree of 2^70 does not."""
    from repro.analysis.bounds import ext_lazy_headroom

    q = BASE_FIELDS["ALT-BN128"].modulus
    bound, limit = ext_lazy_headroom(q, 12)
    assert bound < limit and limit.bit_length() - bound.bit_length() > 56
    bound, limit = ext_lazy_headroom(q, 1 << 70)
    assert bound >= limit


def test_loops_gate_fails_on_a_new_primitive(monkeypatch):
    _mutated(monkeypatch, "        if (sched[s] == 0) ext_sqr(f, f, d, fm, N, n0inv, w);",
             "        if (sched[s] == 0) jpt_dbl(0, 0, 0, d, 0, 0, 0, N, "
             "n0inv, w);")
    bad, cert = _pairing_violations()
    assert bad == {"loops-no-new-primitive"}
    assert "jpt_dbl" in cert.check("loops-no-new-primitive").detail
    _mutated(monkeypatch, "int miller_lines(", "int miller_lines_gone(")
    bad, cert = _pairing_violations()
    assert "<no miller_lines>" in cert.check(
        "loops-no-new-primitive").detail


def test_schedule_and_chain_gates_fail_on_mutated_engines():
    import copy

    from repro.curves import bn128_pairing

    engine = copy.copy(bn128_pairing())
    step = engine._schedule.index(0, 5)          # a doubling, made an add
    engine._schedule = engine._schedule[:step] + bytes([1]) \
        + engine._schedule[step + 1:]
    assert _pairing_violations(engine)[0] == {"schedule-is-the-generator"}
    engine = copy.copy(bn128_pairing())
    engine._schedule = engine._schedule[:-1]
    assert _pairing_violations(engine)[0] == {"schedule-is-the-generator"}
    engine = copy.copy(bn128_pairing())
    chain = list(engine._hard_chain)
    chain[7] ^= 4
    engine._hard_chain = tuple(chain)
    assert _pairing_violations(engine)[0] == {"hard-chain-is-h"}


def test_pairing_guard_gate_fails_on_an_open_guard(monkeypatch):
    from repro.backend import native

    monkeypatch.setattr(native.NativeField, "_pairing_chain",
                        staticmethod(lambda chain: chain))
    assert _pairing_violations()[0] == {"pairing-guards"}


# -- the Tate engine's certificate ----------------------------------------------

TATE_CHECKS = ("loops-no-new-primitive", "fq2-scratch-width",
               "schedule-is-the-generator", "pairing-guards")


def _tate_violations(engine=None):
    from repro.analysis.bounds import certify_native_tate
    from repro.curves import mnt4753_g2_ready, mnt4753_pairing

    cert = certify_native_tate("MNT4753.Fq2", engine or mnt4753_pairing(),
                               mnt4753_g2_ready().generator)
    return {v.name for v in cert.violations()}, cert


def test_native_tate_certificate_states_each_gate_once():
    bad, cert = _tate_violations()
    assert bad == set()
    assert [c.name for c in cert.checks] == list(TATE_CHECKS)
    assert cert.params["words"] == 12
    assert cert.params["schedule_steps"] == 759
    assert cert.params["additions"] == 10


def test_tate_loops_gate_fails_on_a_new_primitive(monkeypatch):
    """A Tate replay that squares through the extension product or
    walks a point, or a batch inversion that inverts each lane, calls
    what the gate does not allow; so does a source without the replay."""
    _mutated(monkeypatch, "            fe_mul(den, den, den, 2, c0m, N, n0inv, w);",
             "            ext_sqr(den, den, 2, N, N, n0inv, w);")
    bad, cert = _tate_violations()
    assert bad == {"loops-no-new-primitive"}
    assert "ext_sqr" in cert.check("loops-no-new-primitive").detail
    # the optimal-ate loops may call the extension body: their gate holds
    assert _pairing_violations()[0] == set()
    # the replay walks no point: only the line generator may
    monkeypatch.undo()
    _mutated(monkeypatch, "            fe_mul(den, den, den, 2, c0m, N, n0inv, w);",
             "            jpt_dbl(0, 0, 0, 2, 0, 0, 0, N, n0inv, w, 0);")
    bad, cert = _tate_violations()
    assert bad == {"loops-no-new-primitive"}
    assert "jpt_dbl" in cert.check("loops-no-new-primitive").detail
    _mutated(monkeypatch, "void tate_replay(", "void tate_replay_gone(")
    assert "<no tate_replay>" in _tate_violations()[1].check(
        "loops-no-new-primitive").detail


def test_batch_inversion_is_in_both_loop_gates(monkeypatch):
    _mutated(monkeypatch, "    if (k < n) fe_inv(acc, inv + k * wd, d, c0m, one, N, n0inv, w);",
             "    if (k < n) fp_inv(acc, inv + k * wd, one, N, n0inv, w);")
    assert _tate_violations()[0] == {"loops-no-new-primitive"}
    assert _pairing_violations()[0] == {"loops-no-new-primitive"}


def test_tate_schedule_and_width_gates_fail_on_mutated_engines():
    import copy

    from repro.curves import mnt4753_pairing

    engine = copy.copy(mnt4753_pairing())
    step = engine._schedule.index(1)              # an addition, made a doubling
    engine._schedule = engine._schedule[:step] + bytes([0]) \
        + engine._schedule[step + 1:]
    assert _tate_violations(engine)[0] == {"schedule-is-the-generator"}
    engine = copy.copy(mnt4753_pairing())
    engine._schedule = engine._schedule[1:]
    assert _tate_violations(engine)[0] == {"schedule-is-the-generator"}
    engine = copy.copy(mnt4753_pairing())
    engine.q = (1 << 2049) + 1                    # 33 words: 2w > 64
    assert _tate_violations(engine)[0] == {"fq2-scratch-width"}


def test_tate_guard_gate_fails_on_an_open_table_guard(monkeypatch):
    """The replays step through the stacked tables at 6w words a row:
    a guard that lets a 4w-row table through fails the gate."""
    from repro.backend import native

    monkeypatch.setattr(native.NativeField, "_pairing_loops",
                        lambda self, tables, verts, g1, ns: len(tables))
    assert _tate_violations()[0] == {"pairing-guards"}
