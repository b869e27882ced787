"""Gaussian set primitives: membership grades and centroid intervals."""

import math

import numpy as np
import pytest

from oracles import (GaussianT1Set, IT2GaussianSet, MembershipInterval,
                     it2_membership, it2_membership_grid,
                     set_centroid_interval, t1_membership)


def test_t1_membership_known_values():
    s = GaussianT1Set(mean=1.0, sigma=2.0)
    assert t1_membership(s, 1.0) == 1.0
    # one sigma away: exp(-1/2)
    assert t1_membership(s, 3.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert t1_membership(s, -1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_t1_membership_vectorized_matches_scalar(rng):
    s = GaussianT1Set(0.3, 0.7)
    xs = rng.uniform(-3, 3, 50)
    out = t1_membership(s, xs)
    assert out.shape == (50,)
    for x, o in zip(xs, out):
        assert o == t1_membership(s, float(x))


def test_t1_set_validation():
    with pytest.raises(ValueError):
        GaussianT1Set(0.0, 0.0)
    with pytest.raises(ValueError):
        GaussianT1Set(0.0, -1.0)
    with pytest.raises(ValueError):
        GaussianT1Set(float("nan"), 1.0)
    with pytest.raises(ValueError):
        t1_membership(GaussianT1Set(0.0, 1.0), float("inf"))


def test_it2_membership_interval_ordering(rng):
    s = IT2GaussianSet(mean=0.0, sigma_lower=0.5, sigma_upper=1.5)
    at_mean = it2_membership(s, 0.0)
    assert at_mean.lower == 1.0 and at_mean.upper == 1.0
    # away from the mean the wider sigma gives the larger grade
    for x in rng.uniform(-4, 4, 100):
        mi = it2_membership(s, float(x))
        assert 0.0 <= mi.lower <= mi.upper <= 1.0


def test_it2_membership_grid_matches_scalar(rng):
    # the scalar path uses math.exp, the grid path np.exp: 1-ulp agreement
    s = IT2GaussianSet(1.2, 0.8, 1.1)
    xs = rng.uniform(-2, 4, 40)
    lo, up = it2_membership_grid(s, xs)
    for x, l, u in zip(xs, lo, up):
        mi = it2_membership(s, float(x))
        assert l == pytest.approx(mi.lower, rel=1e-15, abs=5e-324)
        assert u == pytest.approx(mi.upper, rel=1e-15, abs=5e-324)


def test_it2_set_validation():
    with pytest.raises(ValueError):
        IT2GaussianSet(0.0, 1.5, 0.5)  # lower > upper
    with pytest.raises(ValueError):
        IT2GaussianSet(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        IT2GaussianSet(float("inf"), 0.5, 1.0)
    with pytest.raises(ValueError):
        MembershipInterval(0.7, 0.3)
    with pytest.raises(ValueError):
        MembershipInterval(-0.1, 0.5)


def test_centroid_interval_is_centered_on_mean():
    s = IT2GaussianSet(mean=2.5, sigma_lower=0.6, sigma_upper=1.0)
    tri = set_centroid_interval(s)
    # symmetric footprint of uncertainty: midpoint sits on the mean
    assert tri.crisp == pytest.approx(2.5, abs=1e-9)
    assert tri.y_l < 2.5 < tri.y_r


def test_centroid_interval_degenerate_set_collapses():
    s = IT2GaussianSet(mean=-1.0, sigma_lower=0.7, sigma_upper=0.7)
    tri = set_centroid_interval(s)
    assert tri.y_l == pytest.approx(tri.y_r, abs=1e-12)
    assert tri.crisp == pytest.approx(-1.0, abs=1e-9)


def test_centroid_interval_widens_with_uncertainty():
    narrow = set_centroid_interval(IT2GaussianSet(0.0, 0.9, 1.0))
    wide = set_centroid_interval(IT2GaussianSet(0.0, 0.5, 1.0))
    assert wide.y_r - wide.y_l > narrow.y_r - narrow.y_l


def test_centroid_interval_validation():
    s = IT2GaussianSet(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        set_centroid_interval(s, resolution=1)
    with pytest.raises(ValueError):
        set_centroid_interval(s, support=(1.0, 2.0))  # mean outside support
    with pytest.raises(ValueError):
        set_centroid_interval(s, support=(2.0, -2.0))


def test_centroid_interval_converges_with_resolution():
    s = IT2GaussianSet(0.0, 0.5, 1.0)
    coarse = set_centroid_interval(s, resolution=101)
    fine = set_centroid_interval(s, resolution=2001)
    # both discretizations agree on the midpoint and roughly on the bounds
    assert coarse.crisp == pytest.approx(fine.crisp, abs=1e-9)
    assert coarse.y_l == pytest.approx(fine.y_l, abs=5e-3)
    assert coarse.y_r == pytest.approx(fine.y_r, abs=5e-3)
