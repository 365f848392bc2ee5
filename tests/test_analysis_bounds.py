"""Limb-bound certifier: certificates, geometry mirror, cadence guard."""

import pytest

from repro.analysis import bounds
from repro.analysis.bounds import (
    certified_safe_clean_every,
    certify_all,
    certify_dfp,
    certify_modulus,
    certify_native_mont,
    certify_numpy_limb,
    limb_geometry,
)
from repro.analysis.report import AnalysisReport
from repro.errors import FieldError
from repro.ff.params import BASE_FIELDS, SCALAR_FIELDS

ALL_FIELDS = sorted(
    {f.modulus for f in list(SCALAR_FIELDS.values())
     + list(BASE_FIELDS.values())}
)
BN254_R = SCALAR_FIELDS["ALT-BN128"].modulus


def test_certify_all_passes_at_head():
    certs = certify_all()
    # 4 families x 6 distinct moduli (Fr + Fq of three curves)
    assert len(certs) == 24
    assert {c.family for c in certs} == {
        "dfp", "numpy-limb", "native-mont", "native-jacobian"}
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
                       "dbl-a-mul-parity")


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


def test_native_jacobian_fold_checks_reject_bad_moduli():
    from repro.analysis.bounds import certify_native_jacobian

    bad = {v.name for v in certify_native_jacobian(
        "even", (1 << 64) - 2).violations()}
    assert "discriminant-exact" in bad
    bad = {v.name for v in certify_native_jacobian(
        "huge", (1 << (64 * 31)) - 3).violations()}
    assert "scratch-width" in bad


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


def test_weakened_cadence_is_rejected():
    geom = limb_geometry(BN254_R)
    cert = certify_numpy_limb("ALT-BN128.Fr", BN254_R,
                              clean_every=8 * geom.clean_every)
    assert not cert.ok
    names = {v.name for v in cert.violations()}
    assert "geom/cadence-within-certified" in names
    # Must be a real float-exactness violation too, not only the
    # structural cadence comparison.
    assert any(v.kind == "float53" for v in cert.violations())


def test_weakened_cadence_fails_the_report():
    geom = limb_geometry(BN254_R)
    report = AnalysisReport(certificates=[
        certify_numpy_limb("ALT-BN128.Fr", BN254_R,
                           clean_every=8 * geom.clean_every)
    ])
    assert not report.ok
    assert "VIOLATION" in report.render()


@pytest.mark.parametrize("modulus", ALL_FIELDS)
def test_safe_cadence_covers_configured(modulus):
    geom = limb_geometry(modulus)
    safe = certified_safe_clean_every(geom.limb_bits, geom.lg)
    assert geom.clean_every <= safe
    # ... and the certified bound is genuinely tight: one past it fails.
    assert not bounds._sweep_is_safe(geom.limb_bits, geom.lg, safe + 1)


@pytest.mark.parametrize("modulus", ALL_FIELDS)
def test_geometry_mirror_matches_backend(modulus):
    nl = pytest.importorskip("repro.backend.numpy_limb")
    if not nl.numpy_available():
        pytest.skip("numpy not available")
    real = nl._geometry(modulus)
    mirror = limb_geometry(modulus, nl.LIMB_BITS)
    assert (mirror.ld, mirror.lg, mirror.w32, mirror.eg_w32,
            mirror.clean_every) == (real.ld, real.lg, real.w32,
                                    real.eg_w32, real.clean_every)
    assert [int(v) for v in real.kp_limbs[:-1]] == [
        (mirror.kp >> (mirror.limb_bits * j)) & ((1 << mirror.limb_bits) - 1)
        for j in range(mirror.lg - 1)
    ]


def test_runtime_guard_rejects_uncertified_cadence(monkeypatch):
    nl = pytest.importorskip("repro.backend.numpy_limb")
    if not nl.numpy_available():
        pytest.skip("numpy not available")
    monkeypatch.setattr(bounds, "certified_safe_clean_every",
                        lambda limb_bits, lg: 1)
    with pytest.raises(FieldError, match="certified safe cadence"):
        nl._Geometry(BN254_R)


def test_runtime_guard_quiet_at_configured_cadence():
    nl = pytest.importorskip("repro.backend.numpy_limb")
    if not nl.numpy_available():
        pytest.skip("numpy not available")
    for modulus in ALL_FIELDS:
        nl._Geometry(modulus)  # must not raise


def test_dfp_certificate_structure():
    cert = certify_dfp("ALT-BN128.Fr", BN254_R)
    assert cert.ok
    w = cert.witnesses["two_product"]
    assert w["limb"] == (1 << 52) - 1
    assert w["magnitude"] == w["limb"] * w["limb"]


def test_report_json_round_trips():
    import json

    report = AnalysisReport(certificates=certify_modulus("m", BN254_R))
    data = json.loads(report.to_json())
    assert data["ok"] is True
    assert len(data["certificates"]) == 4
    for cert in data["certificates"]:
        for check in cert["checks"]:
            assert check["bound"] < check["limit"]


def test_uncertifiable_geometry_raises():
    with pytest.raises(ValueError, match="not certifiable"):
        # 2^53-scale limbs in a 22-bit carry pipeline can never work
        certified_safe_clean_every(53, 14)
