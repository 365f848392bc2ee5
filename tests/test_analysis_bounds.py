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
    # 2 families x 6 distinct moduli (Fr + Fq of three curves)
    assert len(certs) == 12
    assert {c.family for c in certs} == {"native-mont", "native-jacobian"}
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

