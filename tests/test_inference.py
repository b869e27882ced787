"""Inference engine: KM type reduction against a vertex-enumeration oracle,
firing, prediction paths against the scalar IT2 set math, and the
no-coverage fallback."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

from it2fis import inference, kernels, load_bundled_model
from it2fis.errors import DataError, NoCoverageError
from it2fis.inference import (Prediction, TypeReducedInterval, km_reduce,
                              predict, predict_batch)
from it2fis.rules import KIND_IT2, RuleBase, t1_rule_base

from conftest import random_it2_base, random_t1_base
from oracles import IT2GaussianSet, it2_membership


# ---------------------------------------------------------------------------
# oracle: exact KM bounds by enumerating every corner of the firing box
# ---------------------------------------------------------------------------


def vertex_oracle(lo, up, cents):
    d = len(cents)
    best_lo, best_hi = np.inf, -np.inf
    for mask in range(1 << d):
        f = np.array([up[s] if (mask >> s) & 1 else lo[s] for s in range(d)])
        den = f.sum()
        if den == 0.0:
            continue
        val = f @ cents / den
        best_lo = min(best_lo, val)
        best_hi = max(best_hi, val)
    return best_lo, best_hi


def random_km_instance(rng, d):
    cents = rng.uniform(-5.0, 5.0, d)
    if rng.random() < 0.25:
        cents = np.round(cents, 1)  # provoke centroid ties
    up = rng.uniform(0.0, 1.0, d)
    if rng.random() < 0.3:
        up[rng.integers(0, d)] = 0.0
    if not (up > 0).any():
        up[rng.integers(0, d)] = rng.uniform(0.1, 1.0)
    lo = up * rng.uniform(0.0, 1.0, d)
    if rng.random() < 0.2:
        lo = up.copy()  # degenerate instance
    return lo, up, cents


def test_km_reduce_matches_vertex_oracle(rng):
    for _ in range(200):
        d = int(rng.integers(1, 5))
        lo, up, cents = random_km_instance(rng, d)
        tri = km_reduce(np.column_stack([lo, up]), cents)
        oyl, oyr = vertex_oracle(lo, up, cents)
        assert tri.y_l == pytest.approx(oyl, rel=1e-9, abs=1e-9)
        assert tri.y_r == pytest.approx(oyr, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("d", [1, 4])
def test_km_batch_columns_match_vertex_oracle_and_km_reduce(rng, d):
    # km_batch is rule-major: each column of a (rules, samples) block is one
    # reduction, and it must come out exactly as km_reduce gives it alone
    n = 150
    cents = np.sort(rng.uniform(-5.0, 5.0, d))
    if d > 1:
        cents[2] = cents[1]  # tied centroids
    up = rng.uniform(0.0, 1.0, (d, n))
    up[rng.random((d, n)) < 0.3] = 0.0
    up[rng.integers(0, d, n), np.arange(n)] = rng.uniform(0.1, 1.0, n)
    lo = up * rng.uniform(0.0, 1.0, (d, n))
    lo[:, 0] = 0.0  # zero lower firings
    lo[:, 1] = np.where(up[:, 1] > 0.0, 5e-320, 0.0)  # denormal ones
    lo[:, 2] = up[:, 2]  # degenerate intervals
    lo[0, 3::4] = 0.0
    yl, yr, kl, kr = kernels.km_batch(lo, up, cents)
    flushed = np.where(lo < kernels.TINY, 0.0, lo)
    for j in range(n):
        oyl, oyr = vertex_oracle(flushed[:, j], up[:, j], cents)
        assert yl[j] == pytest.approx(oyl, rel=1e-9, abs=1e-9)
        assert yr[j] == pytest.approx(oyr, rel=1e-9, abs=1e-9)
        tri = km_reduce(np.column_stack([lo[:, j], up[:, j]]), cents)
        assert np.float64(tri.y_l).tobytes() == yl[j].tobytes()
        assert np.float64(tri.y_r).tobytes() == yr[j].tobytes()
        assert tri.switch_points == (kl[j], kr[j])


def km_battery():
    """Seeded km_batch inputs, (lo, up, cents) in ascending-centroid order.

    One column and 2,000 columns (and two inputs wide enough to be cut in
    blocks) of firings with zero, sub-normal and degenerate (lower == upper)
    entries and uncovered columns, under spread, tied, equal and negative
    centroids.
    """
    rng = np.random.default_rng(20)
    shapes = [(d, n) for d in (1, 2, 3, 5, 8) for n in (1, 2000)]
    for d, n in shapes + [(3, 9000), (8, 4100)]:
        for kind in ("spread", "tied", "equal", "negative"):
            cents = {"spread": rng.uniform(-5.0, 5.0, d),
                     "tied": np.round(rng.uniform(-2.0, 2.0, d)),
                     "equal": np.full(d, rng.uniform(-5.0, 5.0)),
                     "negative": rng.uniform(-3.0, -1.0, d)}[kind]
            up = rng.uniform(0.0, 1.0, (d, n))
            lo = up * rng.uniform(0.0, 1.0, (d, n))
            cell = rng.integers(0, 6, (d, n))
            up[cell == 0] = lo[cell == 0] = 0.0
            lo[cell == 1] = 0.0
            lo[cell == 2] *= 1e-310  # below TINY
            up[cell == 3] *= 1e-310
            lo[cell == 3] = 0.0
            lo[cell == 4] = up[cell == 4]
            uncovered = rng.random(n) < 0.05
            up[:, uncovered] = lo[:, uncovered] = 0.0
            yield lo, up, np.sort(cents)


@pytest.mark.parametrize("splits", range(2, 10))
def test_switch_points_are_numpy_argmin_argmax_on_ties(splits):
    # km_batch's switch points must be np.argmin's and np.argmax's index
    # exactly (the first of tied extremes, ±0.0 equal, the first NaN), and
    # the extremes the bits of the entries there
    rng = np.random.default_rng(splits)
    values = np.array([-np.inf, -1.5, -0.0, 0.0, 0.5, 2.0, np.inf])
    rat = rng.choice(values, (2, splits, 600))
    nan = rng.random((2, splits, 600)) < 0.05
    rat[nan] = np.where(rng.random(nan.sum()) < 0.5, np.nan, -np.nan)
    rat[:, :, :7] = values  # columns of one value: every split tied
    want = np.stack([np.argmin(rat[0], axis=0), np.argmax(rat[1], axis=0)])
    k, y = kernels._switch_points(rat)
    assert k.dtype == np.int64
    np.testing.assert_array_equal(k, want)
    at = np.take_along_axis(rat, want[:, None], axis=1)[:, 0]
    assert y.tobytes() == at.tobytes()


def km_reference(lo, up, cents):
    """km_batch's ratios at every split, as np.cumsum sums them, and
    np.argmin / np.argmax of them: (rl, rr, kl, kr)."""
    up = np.where(up < kernels.TINY, 0.0, up)
    lo = np.where(lo < kernels.TINY, 0.0, lo)
    c = cents[:, None]
    zero = np.zeros((1, up.shape[1]))

    def pre(a):
        return np.concatenate([zero, np.cumsum(a, axis=0)])

    def suf(a):
        return np.concatenate([np.cumsum(a[::-1], axis=0)[::-1], zero])

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        num_l, den_l = suf(lo * c) + pre(up * c), suf(lo) + pre(up)
        num_r, den_r = suf(up * c) + pre(lo * c), suf(up) + pre(lo)
        rl = np.where(den_l > 0.0, num_l / den_l, np.inf)
        rr = np.where(den_r > 0.0, num_r / den_r, -np.inf)
    return rl, rr, np.argmin(rl, axis=0), np.argmax(rr, axis=0)


@pytest.mark.parametrize("d", range(1, 9))
def test_km_batch_switch_points_are_numpy_argmin_argmax(d):
    # tie-heavy firings and centroids: equal ratios at several splits, ±0.0
    # ratios (zero and negative-zero weighted sums), ±inf ratios (a weight
    # near the largest double) and NaN ratios (an infinite weight)
    rng = np.random.default_rng(100 + d)
    cents = np.sort(rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], d))
    weights = np.array([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 1e308, np.inf])
    up = rng.choice(weights, (d, 3000), p=[.2, .1, .2, .2, .1, .1, .05, .05])
    lo = np.minimum(up, rng.choice(weights[:6], (d, 3000)))
    rl, rr, kl, kr = km_reference(lo, up, cents)
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, inf - inf
        got = kernels.km_batch(lo, up, cents)
    np.testing.assert_array_equal(got[2], kl)
    np.testing.assert_array_equal(got[3], kr)
    cols = np.arange(3000)
    yl, yr = rl[kl, cols], rr[kr, cols]
    swap = (yl > yr) & (yr > -np.inf)
    yl[swap], yr[swap] = yr[swap], yl[swap]
    assert got[0].tobytes() == yl.tobytes()
    assert got[1].tobytes() == yr.tobytes()


def test_km_batch_is_pinned_bit_for_bit():
    # the digest was recorded before km_batch's stacked rewrite, with the
    # 11 of 92,420 columns whose collapsed interval came out with y_l one ulp
    # above y_r put in (min, max) order: the one change that rewrite made
    lines = []
    for lo, up, cents in km_battery():
        yl, yr, kl, kr = kernels.km_batch(lo, up, cents)
        assert yl.shape == yr.shape == kl.shape == kr.shape == (lo.shape[1],)
        assert kl.dtype == kr.dtype == np.int64
        covered = np.isfinite(yl)
        assert (yl[covered] <= yr[covered]).all()
        assert (yl[~covered] == np.inf).all() and (yr[~covered] == -np.inf).all()
        lines += [f"{a.hex()} {b.hex()} {i} {j}"
                  for a, b, i, j in zip(yl.tolist(), yr.tolist(), kl, kr)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "694720898a696fb2ccc19f94e62b2a407307f32053d24db37e410440dde7fbe4")


@pytest.mark.parametrize("d", range(1, 13))
def test_km_batch_columns_equal_their_one_column_calls(d):
    # one column and several take different paths; every width, those near
    # 32 columns included, gives each column the bits it gets alone, under
    # spread centroids and repeated ones: equal ratios at adjacent splits,
    # and sums of -0.0 (zero weights at centroids <= -0.0) that are -0.0
    # only if each starts from its first term
    rng = np.random.default_rng(d)
    for cents in (np.sort(rng.uniform(-5.0, 5.0, d)),
                  np.sort(rng.choice([-1.5, -0.0, 0.0, 2.0], d)),
                  np.sort(rng.choice([-1.5, -0.0], d))):
        for n in (1, 2, 3, 31, 32, 33, 40):
            up = rng.uniform(0.0, 1.0, (d, n))
            lo = up * rng.uniform(0.0, 1.0, (d, n))
            kind = np.arange(n) % 8
            rule = rng.integers(0, d, n)  # the rule a special firing sits on
            lo[:, kind == 1] = 0.0  # zero lower firings
            up[rule[kind == 1], np.flatnonzero(kind == 1)] = 0.0
            lo[:, kind == 2] *= 1e-310  # sub-normal lower firings, flushed
            lo[:, kind == 3] = up[:, kind == 3]  # collapsed intervals
            up[:, kind == 4] = lo[:, kind == 4] = 0.0  # uncovered
            up[rule[kind == 5], np.flatnonzero(kind == 5)] = np.nan
            # an infinite firing makes inf / inf ratios: a NaN reaches the
            # argmin and argmax, and the first NaN wins
            up[rule[kind == 6], np.flatnonzero(kind == 6)] = np.inf
            at = rule[kind == 7], np.flatnonzero(kind == 7)
            up[at] *= 1e-310  # a sub-normal upper firing, flushed
            lo[at] *= 1e-310
            with np.errstate(invalid="ignore"):  # inf * 0.0 centroid
                yl, yr, kl, kr = kernels.km_batch(lo, up, cents)
            assert np.isnan(yl[kind == 6]).all()
            assert np.isnan(yr[kind == 6]).all()
            for j in range(n):
                one = kernels.km_batch(lo[:, j:j + 1], up[:, j:j + 1], cents)
                assert one[0].tobytes() == yl[j:j + 1].tobytes()
                assert one[1].tobytes() == yr[j:j + 1].tobytes()
                assert (one[2][0], one[3][0]) == (kl[j], kr[j])


def test_km_reduce_interval_properties(rng):
    for _ in range(100):
        d = int(rng.integers(1, 7))
        lo, up, cents = random_km_instance(rng, d)
        tri = km_reduce(np.column_stack([lo, up]), cents)
        assert tri.y_l <= tri.crisp <= tri.y_r
        assert cents.min() - 1e-12 <= tri.y_l
        assert tri.y_r <= cents.max() + 1e-12
        assert tri.crisp == 0.5 * (tri.y_l + tri.y_r)


def test_km_reduce_degenerate_equals_weighted_average(rng):
    for _ in range(50):
        d = int(rng.integers(1, 6))
        w = rng.uniform(0.05, 1.0, d)
        cents = rng.uniform(-3.0, 3.0, d)
        tri = km_reduce(np.column_stack([w, w]), cents)
        expect = w @ cents / w.sum()
        assert tri.y_l == pytest.approx(tri.y_r, abs=1e-12)
        assert tri.crisp == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_km_reduce_scale_invariance(rng):
    for _ in range(50):
        d = int(rng.integers(2, 6))
        lo, up, cents = random_km_instance(rng, d)
        a = km_reduce(np.column_stack([lo, up]), cents)
        s = rng.uniform(0.1, 10.0)
        b = km_reduce(np.column_stack([lo * s, up * s]), cents)
        assert b.y_l == pytest.approx(a.y_l, rel=1e-12, abs=1e-12)
        assert b.y_r == pytest.approx(a.y_r, rel=1e-12, abs=1e-12)


def test_km_reduce_nested_firing_boxes_nest_intervals(rng):
    # shrinking every firing interval toward its midpoint can only shrink
    # the type-reduced interval
    for _ in range(50):
        d = int(rng.integers(2, 6))
        lo, up, cents = random_km_instance(rng, d)
        up = np.maximum(up, 1e-3)
        mid = 0.5 * (lo + up)
        t = rng.uniform(0.1, 0.9)
        outer = km_reduce(np.column_stack([lo, up]), cents)
        inner = km_reduce(
            np.column_stack([mid + t * (lo - mid), mid + t * (up - mid)]), cents)
        assert outer.y_l <= inner.y_l + 1e-12
        assert inner.y_r <= outer.y_r + 1e-12


def test_km_reduce_switch_points_reconstruct_bounds(rng):
    for _ in range(50):
        d = int(rng.integers(2, 6))
        lo, up, cents = random_km_instance(rng, d)
        tri = km_reduce(np.column_stack([lo, up]), cents)
        order = np.argsort(cents, kind="stable")
        lo_s, up_s, c_s = lo[order], up[order], cents[order]
        kl, kr = tri.switch_points
        f_l = np.where(np.arange(d) < kl, up_s, lo_s)
        f_r = np.where(np.arange(d) >= kr, up_s, lo_s)
        assert f_l @ c_s / f_l.sum() == pytest.approx(tri.y_l, rel=1e-12, abs=1e-12)
        assert f_r @ c_s / f_r.sum() == pytest.approx(tri.y_r, rel=1e-12, abs=1e-12)


def test_km_reduce_no_coverage():
    with pytest.raises(NoCoverageError):
        km_reduce(np.zeros((3, 2)), [1.0, 2.0, 3.0])


def test_km_reduce_validation():
    with pytest.raises(ValueError):
        km_reduce(np.array([[0.5, 0.2]]), [1.0])  # lower > upper
    with pytest.raises(ValueError):
        km_reduce(np.array([[-0.1, 0.2]]), [1.0])
    with pytest.raises(ValueError):
        km_reduce(np.array([[0.1, 0.2]]), [1.0, 2.0])  # count mismatch
    with pytest.raises(ValueError):
        km_reduce(np.array([[np.nan, 0.2]]), [1.0])
    with pytest.raises(ValueError):
        km_reduce(np.array([0.1, 0.2]), [1.0, 2.0])  # not (n, 2)
    with pytest.raises(ValueError, match="need at least one rule"):
        km_reduce(np.empty((0, 2)), [])


@pytest.mark.parametrize("y_l, y_r, crisp", [
    (1.0, 2.0, 0.5), (1.0, 2.0, 2.5), (2.0, 1.0, 1.5), (1.0, 2.0, np.nan),
], ids=["below", "above", "reversed", "nan"])
def test_type_reduced_interval_needs_ordered_bounds(y_l, y_r, crisp):
    with pytest.raises(ValueError, match=r"needs y_l <= crisp <= y_r"):
        TypeReducedInterval(y_l, y_r, crisp, None)


# ---------------------------------------------------------------------------
# firing
# ---------------------------------------------------------------------------


def test_fire_t1_is_product_of_memberships(rng):
    rb = random_t1_base(rng, n_rules=3, n_features=3)
    x = rng.uniform(-2, 2, 3)
    w = np.exp(kernels.log_firing(x[None, :], rb.means, rb.sigma_upper))[0]
    for s in range(rb.n_rules):
        prod = 1.0
        for f in range(rb.n_features):
            z = (x[f] - rb.means[s, f]) / rb.sigma_upper[s, f]
            prod *= np.exp(-0.5 * z * z)
        assert w[s] == pytest.approx(prod, rel=1e-12)


def test_fire_it2_bounds_bracket_t1(rng):
    rb = random_it2_base(rng, n_rules=4, n_features=2)
    X = rng.uniform(-2, 2, (20, 2))
    lower = np.exp(kernels.log_firing(X, rb.means, rb.sigma_lower))
    upper = np.exp(kernels.log_firing(X, rb.means, rb.sigma_upper))
    assert lower.shape == upper.shape == (20, 4)
    assert ((0.0 <= lower) & (lower <= upper) & (upper <= 1.0)).all()


def test_fire_input_validation(rng):
    rb = random_t1_base(rng, n_rules=2, n_features=3)
    with pytest.raises(DataError, match="has 2 features; rule base expects 3"):
        predict(rb, [0.0, 1.0])


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_single_rule_returns_consequent(rng):
    rb = t1_rule_base([[0.0, 0.0]], [[1.0, 1.0]], [1.4], [0.2])
    for x in rng.uniform(-2, 2, (20, 2)):
        p = predict(rb, x)
        assert p.crisp == pytest.approx(1.4, rel=1e-12)


def test_predict_threshold_resolution(rng):
    rb = t1_rule_base([[0.0], [0.0]], [[1.0], [1.0]], [1.0, 2.0], [0.2, 0.2])
    # no threshold anywhere: midpoint of the consequent range
    assert predict(rb, [0.0]).threshold == pytest.approx(1.5)
    # the model's threshold wins over the midpoint
    rb2 = dataclasses.replace(rb, threshold=1.8)
    assert predict(rb2, [0.0]).threshold == pytest.approx(1.8)


def test_predict_label_assignment():
    rb = t1_rule_base([[0.0], [4.0]], [[1.0], [1.0]], [1.0, 2.0], [0.2, 0.2])
    low = predict(rb, [0.0])
    high = predict(rb, [4.0])
    assert low.label == rb.label_low and low.crisp < low.threshold
    assert high.label == rb.label_high and high.crisp >= high.threshold


def test_predict_zero_spread_it2_matches_t1(rng):
    # a type-1 base is the type-2 one with equal sigmas, scored the same way
    for _ in range(10):
        t1 = random_t1_base(rng, n_rules=4, n_features=3)
        it2 = dataclasses.replace(t1, kind=KIND_IT2)
        X = rng.uniform(-2, 2, (10, 3))
        for x in X:
            a = predict(t1, x)
            b = predict(it2, x)
            assert a == b
            assert b.interval.y_l == pytest.approx(b.interval.y_r, abs=1e-12)
        a, b = predict_batch(t1, X), predict_batch(it2, X)
        for name in ("crisp", "y_l", "y_r", "flagged"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_predict_switch_points_none_for_zero_width_base(rng):
    # a type-1 base's interval is degenerate: every split gives the same
    # bounds, so it reports no switch points; a type-2 base does
    t1 = random_t1_base(rng, n_rules=4, n_features=3)
    it2 = random_it2_base(rng, n_rules=4, n_features=3)
    assert t1.zero_width and not it2.zero_width
    for x in rng.uniform(-2, 2, (10, 3)):
        assert predict(t1, x).interval.switch_points is None
        kl, kr = predict(it2, x).interval.switch_points
        assert 0 <= kl <= 4 and 0 <= kr <= 4


def test_predict_it2_interval_brackets_crisp(rng):
    rb = random_it2_base(rng, n_rules=4, n_features=2)
    for x in rng.uniform(-2, 2, (25, 2)):
        p = predict(rb, x)
        assert p.interval.y_l <= p.crisp <= p.interval.y_r
        assert rb.cons_mean.min() - 1e-12 <= p.crisp <= rb.cons_mean.max() + 1e-12


def test_predict_no_coverage_falls_back_to_majority(rng):
    rb = random_it2_base(rng, n_rules=3, n_features=2)
    p = predict(rb, [1e180, 1e180])  # squared z overflows: no rule fires
    assert p.flagged
    assert np.isnan(p.crisp)
    assert p.label == rb.label_low
    assert p.interval is None


def test_predict_underflow_rescued_by_normalization(rng):
    # firing products underflow exp() but the log-space shift keeps the
    # ratios; this must NOT be flagged
    rb = t1_rule_base([[0.0], [1.0]], [[0.001], [0.001]], [1.0, 2.0], [0.1, 0.1])
    p = predict(rb, [0.4])
    assert not p.flagged
    assert p.crisp == pytest.approx(1.0, abs=1e-6)  # rule 1 dominates


def test_predict_equal_consequent_means_keep_the_interval_ordered():
    # every rule shares one centroid, so y_l and y_r are the same value
    # reached through different sums; before km_batch ordered its pair,
    # one of these rows came out with y_l an ulp above y_r and predict
    # raised ValueError
    c = float.fromhex("0x1.f88779a167b2cp+2")
    rng = np.random.default_rng(24)
    means = rng.uniform(-2.0, 2.0, (4, 2))
    su = rng.uniform(0.5, 2.0, (4, 2))
    rb = RuleBase(kind=KIND_IT2, variable_names=("x1", "x2"), means=means,
                  sigma_lower=0.3 * su, sigma_upper=su,
                  cons_mean=np.full(4, c), cons_sigma_lower=np.full(4, 0.3),
                  cons_sigma_upper=np.full(4, 0.4))
    for x in 3.0 * rng.normal(size=(50, 2)):
        p = predict(rb, x)
        assert p.interval.y_l <= p.crisp <= p.interval.y_r
        assert abs(p.crisp - c) <= 4 * np.spacing(c)


def predict_battery():
    """200 seeded rows: the bundled model, a random type-1 base and a random
    type-2 one, each with rows whose firing products underflow (rescued by
    the shift) and rows whose squares overflow (flagged)."""
    rng = np.random.default_rng(21)
    bundled = load_bundled_model()
    t1 = random_t1_base(rng, n_rules=5, n_features=4)
    it2 = random_it2_base(rng, n_rules=6, n_features=3)
    for rb, rows in ((bundled, 100), (t1, 60), (it2, 40)):
        X = rng.normal(0.5, 1.0, (rows, rb.n_features))
        X[rows // 2:] *= 40.0  # products far below the smallest double
        X[-rows // 10:] = 1e170  # every square overflows
        for x in X:
            yield rb, x


def test_predict_is_pinned_bit_for_bit():
    # re-recorded when predict became a one-row predict_batch: 25 of the 180
    # scored rows moved (crisp, a bound or a switch point), by at most
    # 3.2e-16 relative; and when type-1 rows lost their switch points: the
    # 54 scored type-1 lines changed only there
    lines = []
    for rb, x in predict_battery():
        p = predict(rb, x)
        iv = p.interval
        tri = "none" if iv is None else (
            f"{iv.y_l.hex()} {iv.y_r.hex()} {iv.switch_points}")
        lines.append(f"{p.crisp.hex()} {tri} {p.label} {p.flagged}")
    assert sum(line.endswith("True") for line in lines) == 20
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "78301e31ee78a04efd36d13fd9b3193c972bea71fff0b7671211aa5f71905e09")


def test_predict_batch_is_pinned_bit_for_bit():
    # one batch per type-2 member of the battery (the bundled model and the
    # random type-2 base); the digest was recorded before predict and
    # predict_batch came to share one firing and reduction path
    batches = {}
    for rb, x in predict_battery():
        if rb.kind == KIND_IT2:
            batches.setdefault(id(rb), (rb, []))[1].append(x)
    digest = hashlib.sha256()
    for rb, rows in batches.values():
        bp = predict_batch(rb, np.array(rows))
        for name in ("crisp", "y_l", "y_r", "flagged"):
            digest.update(getattr(bp, name).tobytes())
        digest.update(" ".join(bp.labels).encode())
    assert digest.hexdigest() == (
        "158f301ce599e2840603213f9a8660d21d8ef3b920fc241895579ee47277e76e")


def test_predict_batch_matches_single():
    # predict is predict_batch on one row: every output bit agrees, over the
    # battery's underflowing and flagged rows too
    batches = {}
    for rb, x in predict_battery():
        batches.setdefault(id(rb), (rb, []))[1].append(x)
    for rb, rows in batches.values():
        bp = predict_batch(rb, np.array(rows))
        for i, x in enumerate(rows):
            p = predict(rb, x)
            assert np.float64(p.crisp).tobytes() == bp.crisp[i].tobytes()
            assert p.label == bp.labels[i]
            assert p.flagged == bp.flagged[i]
            if p.interval is None:
                assert np.isnan(bp.y_l[i]) and np.isnan(bp.y_r[i])
            else:
                assert np.float64(p.interval.y_l).tobytes() == bp.y_l[i].tobytes()
                assert np.float64(p.interval.y_r).tobytes() == bp.y_r[i].tobytes()


# engine oracle: predict and predict_batch share one path, so neither can
# catch the other's error; this one fires each rule as the product of its
# scalar membership intervals, unshifted, and reduces with km_reduce


def scalar_firings(rb, x):
    """(rules, 2) [lower, upper] firings of row x: products over the features
    of each antecedent's it2_membership interval."""
    fir = np.ones((rb.n_rules, 2))
    for s in range(rb.n_rules):
        for f in range(rb.n_features):
            grade = it2_membership(IT2GaussianSet(
                rb.means[s, f], rb.sigma_lower[s, f], rb.sigma_upper[s, f]),
                float(x[f]))
            fir[s] *= grade.lower, grade.upper
    return fir


def check_engine_against_scalar_math(rb, X) -> int:
    """Assert predict_batch's y_l and y_r equal km_reduce of scalar_firings
    within 1e-12 relative, on every row whose firings all reach
    kernels.TINY; return how many rows that was.  The other rows' unshifted
    products underflow, which is why the engine shifts."""
    got = predict_batch(rb, X)
    kept = 0
    for i, x in enumerate(X):
        fir = scalar_firings(rb, x)
        if (fir < kernels.TINY).any():
            continue
        want = km_reduce(fir, rb.cons_mean)
        assert got.y_l[i] == pytest.approx(want.y_l, rel=1e-12, abs=0.0)
        assert got.y_r[i] == pytest.approx(want.y_r, rel=1e-12, abs=0.0)
        kept += 1
    return kept


def test_predict_batch_matches_scalar_it2_math(rng):
    for make in (random_t1_base, random_it2_base) * 100:
        rb = make(rng, n_rules=int(rng.integers(1, 7)),
                  n_features=int(rng.integers(1, 6)))
        X = rng.uniform(-3.0, 3.0, (20, rb.n_features))
        assert check_engine_against_scalar_math(rb, X) == 20


def test_predict_batch_matches_scalar_it2_math_on_bundled_model(rng):
    # rows around the 27-feature model's rule means; a few lower firings of
    # the far rules underflow unshifted and are skipped
    rb = load_bundled_model()
    rules = rng.integers(0, rb.n_rules, 300)
    X = rb.means[rules] + rb.sigma_lower[rules] * rng.standard_normal(
        (300, rb.n_features))
    assert check_engine_against_scalar_math(rb, X) >= 270


def test_predict_batch_row_blocks_change_no_bit(monkeypatch):
    # the battery's rows per rule base, underflowing and flagged ones
    # included; a type-2 base fires its two sigma matrices stacked
    batches = {}
    for rb, x in predict_battery():
        batches.setdefault(id(rb), (rb, []))[1].append(x)
    calls = []
    log_firing = kernels.log_firing
    monkeypatch.setattr(kernels, "log_firing",
                        lambda x, *a: calls.append(len(x)) or log_firing(x, *a))
    for rb, rows in batches.values():
        X = np.array(rows)
        monkeypatch.setattr(inference, "FIRING_BLOCK_CELLS", 2 ** 40)
        whole = predict_batch(rb, X)
        for rows_per_block in (1, 3, 7):
            stacked = rb.n_rules * (2 if rb.kind == KIND_IT2 else 1)
            cells = rows_per_block * stacked * rb.n_features
            monkeypatch.setattr(inference, "FIRING_BLOCK_CELLS", cells)
            calls.clear()
            bp = predict_batch(rb, X)
            assert max(calls) == rows_per_block and sum(calls) >= len(X)
            for name in ("crisp", "y_l", "y_r", "flagged"):
                assert getattr(bp, name).tobytes() == \
                    getattr(whole, name).tobytes()
            assert bp.labels == whole.labels


def test_predict_batch_flags_only_uncovered_rows(rng):
    rb = random_it2_base(rng, n_rules=3, n_features=2)
    X = rng.uniform(-2, 2, (5, 2))
    X[2] = 1e180
    bp = predict_batch(rb, X)
    assert list(bp.flagged) == [False, False, True, False, False]
    assert np.isnan(bp.crisp[2])
    assert bp.labels[2] == rb.label_low
    assert np.isfinite(bp.crisp[[0, 1, 3, 4]]).all()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_features(rng, value):
    # unlike 1e180 above, nan/inf cannot be scored: an error, not a fallback
    for maker in (random_t1_base, random_it2_base):
        rb = maker(rng, n_rules=3, n_features=2)
        col = re.escape(repr(rb.variable_names[1]))
        with pytest.raises(DataError,
                           match=f"column {col}, data row 1: non-finite"):
            predict(rb, [0.5, value])
        X = rng.uniform(-2, 2, (5, 2))
        X[3, 1] = value
        X[4, 0] = value
        with pytest.raises(DataError,
                           match=f"column {col}, data row 4: non-finite"):
            predict_batch(rb, X)


def test_predict_batch_empty_input(rng):
    rb = random_t1_base(rng)
    bp = predict_batch(rb, np.empty((0, rb.n_features)))
    assert bp.crisp.shape == (0,)
    assert bp.labels == []


def test_predict_batch_shape_mismatch(rng):
    rb = random_t1_base(rng, n_features=3)
    with pytest.raises(DataError, match="rule base expects 3"):
        predict_batch(rb, np.zeros((4, 2)))


def test_prediction_is_frozen(rng):
    rb = random_t1_base(rng)
    p = predict(rb, np.zeros(rb.n_features))
    assert isinstance(p, Prediction)
    with pytest.raises(AttributeError):
        p.crisp = 0.0
