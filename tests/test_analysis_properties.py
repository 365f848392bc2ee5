"""Property tests tying the certifier's claims back to the real
kernels: Dekker two-product exactness at boundary limbs and the DFP
witness whose certified product magnitude the real multiplier
reproduces bit-exactly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import certify_dfp
from repro.ff.dfp import DFP_BASE_BITS, DfpMultiplier, two_product
from repro.ff.params import SCALAR_FIELDS

LIMB_MAX = (1 << DFP_BASE_BITS) - 1
CURVES = sorted(SCALAR_FIELDS)

limbs = st.integers(min_value=0, max_value=LIMB_MAX)


@pytest.mark.parametrize("a", [0, 1, LIMB_MAX])
@pytest.mark.parametrize("b", [0, 1, LIMB_MAX])
def test_two_product_exact_at_boundaries(a, b):
    hi, lo = two_product(float(a), float(b))
    assert int(hi) + int(lo) == a * b


@given(a=limbs, b=limbs)
@settings(max_examples=300, deadline=None)
def test_two_product_exact_everywhere(a, b):
    hi, lo = two_product(float(a), float(b))
    assert int(hi) + int(lo) == a * b
    # the error term itself stays an exact-integer double, as certified
    assert abs(int(lo)) <= 1 << (2 * DFP_BASE_BITS - 53)


@pytest.mark.parametrize("curve", CURVES)
def test_dfp_witness_attains_certified_product(curve):
    field = SCALAR_FIELDS[curve]
    cert = certify_dfp(curve, field.modulus)
    w = cert.witnesses["two_product"]
    hi, lo = two_product(float(w["limb"]), float(w["limb"]))
    assert int(hi) + int(lo) == w["magnitude"]
    # witness magnitude sits within the certified product range bound
    assert w["magnitude"] <= cert.check("dfp/product").bound


@pytest.mark.parametrize("curve", CURVES)
def test_dfp_raw_mul_exact_on_extremes(curve):
    field = SCALAR_FIELDS[curve]
    mul = DfpMultiplier(field.modulus)
    for a in (0, 1, field.modulus - 1):
        for b in (1, field.modulus - 1):
            assert mul.mod_mul(a, b) == a * b % field.modulus


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_dfp_raw_mul_exact_random(data):
    curve = data.draw(st.sampled_from(CURVES))
    p = SCALAR_FIELDS[curve].modulus
    a = data.draw(st.integers(min_value=0, max_value=p - 1))
    b = data.draw(st.integers(min_value=0, max_value=p - 1))
    assert DfpMultiplier(p).mod_mul(a, b) == a * b % p
