"""Tail probability accuracy against an established reference implementation.

The tolerances here anchor the widest gap observed on the grids below plus
headroom; a regression in the continued fraction shows up immediately.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

scipy_special = pytest.importorskip("scipy.special")
scipy_stats = pytest.importorskip("scipy.stats")

from driftscope.fdist import betainc_reg, f_sf

from conftest import f_cdf

SHAPES = [0.5, 1.0, 2.0, 3.5, 10.0, 50.0, 95.0, 200.0]
XS = [1e-12, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-9]
DOF_PAIRS = [(1, 1), (1, 10), (1, 196), (2, 30), (3, 190), (5, 5), (10, 100), (20, 500)]
F_VALUES = [1e-6, 0.01, 0.5, 1.0, 2.5, 5.0, 10.0, 50.0, 500.0, 1e4]


def test_betainc_matches_reference_grid():
    for a in SHAPES:
        for b in SHAPES:
            for x in XS:
                ours = betainc_reg(a, b, x)
                ref = float(scipy_special.betainc(a, b, x))
                assert ours == pytest.approx(ref, abs=5e-12), (a, b, x)


def test_betainc_boundary_values():
    assert betainc_reg(2.0, 3.0, 0.0) == 0.0
    assert betainc_reg(2.0, 3.0, -0.5) == 0.0
    assert betainc_reg(2.0, 3.0, 1.0) == 1.0
    assert betainc_reg(2.0, 3.0, 1.5) == 1.0
    with pytest.raises(ValueError):
        betainc_reg(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        betainc_reg(1.0, -2.0, 0.5)


def test_betainc_symmetry():
    for a in (0.5, 2.0, 7.0):
        for b in (1.5, 4.0):
            for x in (0.2, 0.5, 0.8):
                assert betainc_reg(a, b, x) == pytest.approx(
                    1.0 - betainc_reg(b, a, 1.0 - x), abs=1e-13
                )


def test_f_sf_matches_reference_grid():
    for d1, d2 in DOF_PAIRS:
        for f in F_VALUES:
            ours = f_sf(f, d1, d2)
            ref = float(scipy_stats.f.sf(f, d1, d2))
            assert ours == pytest.approx(ref, abs=5e-12), (d1, d2, f)
            if ref > 1e-280:
                assert ours == pytest.approx(ref, rel=1e-8), (d1, d2, f)


def test_f_cdf_matches_reference_grid():
    for d1, d2 in DOF_PAIRS:
        for f in F_VALUES:
            ref = float(scipy_stats.f.cdf(f, d1, d2))
            assert f_cdf(f, d1, d2) == pytest.approx(ref, abs=5e-12), (d1, d2, f)


def test_deep_tail_relative_accuracy():
    # the survival function is evaluated directly, so even p-values far
    # below double rounding of 1-cdf stay meaningful
    cases = [(17009.89356010187, 1, 196), (5826.914317883164, 1, 190), (900.0, 3, 50)]
    for f, d1, d2 in cases:
        ref = float(scipy_stats.f.sf(f, d1, d2))
        ours = f_sf(f, d1, d2)
        assert ref > 0.0
        assert ours == pytest.approx(ref, rel=1e-7)


def test_f_edge_cases():
    assert f_sf(0.0, 3, 10) == 1.0
    assert f_sf(-1.0, 3, 10) == 1.0
    assert f_sf(math.inf, 3, 10) == 0.0
    assert f_cdf(0.0, 3, 10) == 0.0
    assert f_cdf(math.inf, 3, 10) == 1.0
    with pytest.raises(ValueError):
        f_sf(1.0, 0, 5)
    with pytest.raises(ValueError):
        f_cdf(1.0, 5, -1)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(1e-3, 1e5, allow_nan=False),
    st.integers(1, 200),
    st.integers(1, 500),
)
@example(99999.0, 151, 1)  # x = 1 - 6.6e-8: rounding 1 - x put the sum 1.04e-12 above 1
def test_property_sf_cdf_complementary(f, d1, d2):
    sf = f_sf(f, d1, d2)
    cdf = f_cdf(f, d1, d2)
    assert 0.0 <= sf <= 1.0
    assert 0.0 <= cdf <= 1.0
    assert sf + cdf == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 50), st.integers(2, 300))
def test_property_sf_monotone_in_f(d1, d2):
    grid = [0.01, 0.1, 1.0, 3.0, 10.0, 100.0]
    tails = [f_sf(f, d1, d2) for f in grid]
    assert all(a >= b for a, b in zip(tails, tails[1:]))


#: ``f_sf`` on a grid over both branches of ``betainc_reg``, as ``float.hex``;
#: p-values are compared against a threshold, so any change of bits may move a report.
F_SF_BITS = {
    (0.7, 1, 1): "0x1.1ce96145fc58cp-1",
    (0.7, 5, 5): "0x1.4b815f598dfe9p-1",
    (0.7, 24, 110): "0x1.af2d04afc460cp-1",
    (0.7, 152, 300): "0x1.fc742e86b7439p-1",
    (3.2, 1, 1): "0x1.4c4c718085f0ep-2",
    (3.2, 5, 5): "0x1.d20495f1732cbp-4",
    (3.2, 24, 110): "0x1.3a7f5d10f7f2dp-16",
    (3.2, 152, 300): "0x1.602f89de60dfbp-58",
    (40.0, 1, 1): "0x1.98e9674ab29efp-4",
    (40.0, 5, 5): "0x1.01bacddfe634ap-11",
    (40.0, 24, 110): "0x1.b33133ea19233p-143",
    (40.0, 152, 300): "0x1.a3ab743a25e43p-465",
}


def test_f_sf_bits_are_pinned():
    assert {args: f_sf(*args).hex() for args in F_SF_BITS} == F_SF_BITS
