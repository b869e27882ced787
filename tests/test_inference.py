"""Inference engine: KM type reduction against a vertex-enumeration oracle,
firing, prediction paths, and the no-coverage fallback."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

from it2fis import inference, kernels, load_bundled_model
from it2fis.errors import DataError, NoCoverageError
from it2fis.inference import Prediction, km_reduce, predict, predict_batch
from it2fis.rules import it2_rule_base, t1_rule_base

from conftest import random_it2_base, random_t1_base


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


# ---------------------------------------------------------------------------
# firing
# ---------------------------------------------------------------------------


def test_fire_t1_is_product_of_memberships(rng):
    rb = random_t1_base(rng, n_rules=3, n_features=3)
    x = rng.uniform(-2, 2, 3)
    w = np.exp(kernels.log_firing(x[None, :], rb.means, rb.sigma_upper))[0]
    for s, rule in enumerate(rb.rules):
        prod = 1.0
        for f, ant in enumerate(rule.antecedents):
            z = (x[f] - ant.mean) / ant.sigma
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
    # config threshold wins over the midpoint
    rb2 = dataclasses.replace(rb, threshold=1.8)
    assert predict(rb2, [0.0]).threshold == pytest.approx(1.8)
    # explicit argument wins over everything
    assert predict(rb2, [0.0], threshold=1.2).threshold == pytest.approx(1.2)


def test_predict_label_assignment():
    rb = t1_rule_base([[0.0], [4.0]], [[1.0], [1.0]], [1.0, 2.0], [0.2, 0.2])
    low = predict(rb, [0.0])
    high = predict(rb, [4.0])
    assert low.label == rb.label_low and low.crisp < low.threshold
    assert high.label == rb.label_high and high.crisp >= high.threshold


def test_predict_zero_spread_it2_matches_t1(rng):
    for _ in range(10):
        t1 = random_t1_base(rng, n_rules=4, n_features=3)
        it2 = it2_rule_base(t1.means, t1.sigma_lower, t1.sigma_upper,
                            t1.cons_mean, t1.cons_sigma_lower,
                            t1.cons_sigma_upper)
        for x in rng.uniform(-2, 2, (10, 3)):
            a = predict(t1, x)
            b = predict(it2, x)
            assert b.crisp == pytest.approx(a.crisp, rel=1e-12, abs=1e-12)
            assert b.interval.y_l == pytest.approx(b.interval.y_r, abs=1e-12)


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
    rb = it2_rule_base(means, 0.3 * su, su, np.full(4, c), np.full(4, 0.3),
                       np.full(4, 0.4))
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
    lines = []
    for rb, x in predict_battery():
        p = predict(rb, x)
        iv = p.interval
        tri = "none" if iv is None else (
            f"{iv.y_l.hex()} {iv.y_r.hex()} {iv.switch_points}")
        lines.append(f"{p.crisp.hex()} {tri} {p.label} {p.flagged}")
    assert sum(line.endswith("True") for line in lines) == 20
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "4c40ac8beea654f56b7f64ea52ac784ef3294b70bf221cf4029c8cc53e2ed5e6")


def test_predict_batch_matches_single(rng):
    for maker in (random_t1_base, random_it2_base):
        rb = maker(rng, n_rules=4, n_features=3)
        X = rng.uniform(-2, 2, (40, 3))
        bp = predict_batch(rb, X)
        for i in range(40):
            p = predict(rb, X[i])
            assert bp.crisp[i] == pytest.approx(p.crisp, rel=1e-12, abs=1e-12)
            assert bp.labels[i] == p.label
            assert not bp.flagged[i]
            if p.interval is not None:
                assert bp.y_l[i] == pytest.approx(p.interval.y_l, rel=1e-12, abs=1e-12)
                assert bp.y_r[i] == pytest.approx(p.interval.y_r, rel=1e-12, abs=1e-12)


def test_predict_batch_row_blocks_change_no_bit(monkeypatch):
    # the battery's rows per rule base, underflowing and flagged ones included
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
            cells = rows_per_block * rb.n_rules * rb.n_features
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
