"""Rule extraction and tuning: finite-difference gradient oracles, label
encoding, the widen step, and descent behavior on synthetic data."""

import dataclasses
import re

import numpy as np
import pytest

from it2fis import kernels
from it2fis.errors import DataError
from it2fis.learning import (SIGMA_FLOOR, TuneConfig, encode_labels,
                             extract_rules, targets_for, tune_it2, tune_t1,
                             widen_to_it2)
from it2fis.inference import predict_batch
from it2fis.preprocess import Dataset
from it2fis.rules import KIND_IT2, KIND_T1, RuleBase, t1_rule_base

import oracles
from conftest import random_it2_base, random_t1_base, two_class_dataset


# ---------------------------------------------------------------------------
# independent forward passes for finite-difference checks
# ---------------------------------------------------------------------------


def t1_error(X, y, means, sig, cons):
    z = (X[:, None, :] - means[None]) / sig[None]
    w = np.exp(-0.5 * (z ** 2).sum(axis=2))
    f = w @ cons / w.sum(axis=1)
    return float(np.mean(0.5 * (f - y) ** 2))


def km_exact(lo, up, cents):
    """KM bounds by checking every switch split (independent reimplementation)."""
    order = np.argsort(cents, kind="stable")
    lo, up, cents = lo[order], up[order], cents[order]
    d = cents.size
    yl, yr = np.inf, -np.inf
    for k in range(d + 1):
        f_l = np.concatenate([up[:k], lo[k:]])
        f_r = np.concatenate([lo[:k], up[k:]])
        if f_l.sum() > 0:
            yl = min(yl, f_l @ cents / f_l.sum())
        if f_r.sum() > 0:
            yr = max(yr, f_r @ cents / f_r.sum())
    return yl, yr


def it2_error(X, y, means, sl, su, cons):
    errs = []
    for j in range(X.shape[0]):
        zlo = (X[j] - means) / sl
        zup = (X[j] - means) / su
        lo = np.exp(-0.5 * (zlo ** 2).sum(axis=1))
        up = np.exp(-0.5 * (zup ** 2).sum(axis=1))
        yl, yr = km_exact(lo, up, cons)
        errs.append(0.5 * (0.5 * (yl + yr) - y[j]) ** 2)
    return float(np.mean(errs))


def fd_gradient(fn, arrays, h=1e-5):
    """Central finite differences of fn() with respect to every array entry."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = a[idx]
            a[idx] = keep + h
            up = fn()
            a[idx] = keep - h
            dn = fn()
            a[idx] = keep
            g[idx] = (up - dn) / (2.0 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / scale


# ---------------------------------------------------------------------------
# label encoding
# ---------------------------------------------------------------------------


def test_encode_labels_majority_is_low():
    y, low, high = encode_labels(["b", "a", "b", "b", "a"])
    assert (low, high) == ("b", "a")
    np.testing.assert_array_equal(y, [1.0, 2.0, 1.0, 1.0, 2.0])


def test_encode_labels_tie_goes_to_smaller_code():
    y, low, high = encode_labels(["2", "1", "1", "2"])
    assert (low, high) == ("1", "2")


def test_encode_labels_needs_two_codes():
    with pytest.raises(DataError):
        encode_labels(["a", "a"])
    with pytest.raises(DataError):
        encode_labels(["a", "b", "c"])


def test_targets_for_roundtrip(rng):
    rb = random_t1_base(rng, label_low="x", label_high="y")
    y = targets_for(rb, ["x", "y", "x"])
    np.testing.assert_array_equal(y, [1.0, 2.0, 1.0])
    with pytest.raises(DataError, match="neither"):
        targets_for(rb, ["z"])


# ---------------------------------------------------------------------------
# gradient oracles
# ---------------------------------------------------------------------------


def check_t1_gradient(X, y, means, sig, cons):
    gm, gs, gc, err = kernels.t1_epoch(kernels.centre(X), y, means, sig, cons)
    assert err == pytest.approx(t1_error(X, y, means, sig, cons), rel=1e-12)

    fm, fs, fc = fd_gradient(lambda: t1_error(X, y, means, sig, cons),
                             [means, sig, cons])
    assert rel_err(gm, fm) < 1e-4
    assert rel_err(gs, fs) < 1e-4
    assert rel_err(gc, fc) < 1e-4


def check_it2_gradient(X, y, means, sl, su, cons):
    gm, gsl, gsu, gc, err = kernels.it2_epoch(kernels.centre(X), y, means,
                                              sl, su, cons)
    assert err == pytest.approx(it2_error(X, y, means, sl, su, cons), rel=1e-12)

    # at generic parameters the switch points are locally constant, so the
    # frozen-switch gradient matches finite differences of the exact output
    fm, fsl, fsu, fc = fd_gradient(
        lambda: it2_error(X, y, means, sl, su, cons), [means, sl, su, cons])
    assert rel_err(gm, fm) < 1e-3
    assert rel_err(gsl, fsl) < 1e-3
    assert rel_err(gsu, fsu) < 1e-3
    assert rel_err(gc, fc) < 1e-3


def test_t1_gradient_matches_finite_differences(rng):
    X = rng.uniform(-2, 2, (8, 2))
    y = rng.uniform(1, 2, 8)
    means = rng.uniform(-1.5, 1.5, (3, 2))
    sig = rng.uniform(0.8, 1.5, (3, 2))
    cons = rng.uniform(1, 2, 3)
    check_t1_gradient(X, y, means, sig, cons)


def test_it2_gradient_matches_finite_differences(rng):
    X = rng.uniform(-2, 2, (8, 2))
    y = rng.uniform(1, 2, 8)
    means = rng.uniform(-1.5, 1.5, (3, 2))
    su = rng.uniform(1.0, 1.6, (3, 2))
    sl = su * rng.uniform(0.6, 0.9, (3, 2))
    cons = rng.uniform(1, 2, 3)
    check_it2_gradient(X, y, means, sl, su, cons)


def check_epochs_match_loops(X, y, means, sl, su, cons, t1=True):
    """Both epoch kernels against their loop twins in tests/oracles.py, on
    the full batch and on one sample (t1=False: it2_epoch only)."""
    order = np.argsort(cons, kind="stable")
    for rows in (slice(None), slice(4, 5)):
        x, t = X[rows], y[rows]
        if t1:
            got = kernels.t1_epoch(kernels.centre(x), t, means, su, cons)
            want = oracles._t1_epoch_loops(x, t, means, su, cons)
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)
        got = kernels.it2_epoch(kernels.centre(x), t, means, sl, su, cons)
        want = oracles._it2_epoch_loops(x, t, means, sl, su, cons, order)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


def test_epoch_kernels_match_loop_twins():
    # the reference loops of tests/oracles.py compute the epoch element
    # by element.  Column 0 is constant with its sigma at the floor and the
    # rule means about 50 sigma off it, as a constant one-hot column ends up
    # after tuning: there x^2 / sigma^2 ~ 1e12, so a matmul firing that is
    # not centred on a data row loses ~1e-4 to cancellation.
    r = np.random.default_rng(7)
    X = np.column_stack([np.ones(9), r.integers(0, 2, (9, 2)),
                         r.uniform(-2.0, 2.0, 9)])
    y = r.uniform(1.0, 2.0, 9)
    means = r.uniform(-1.0, 1.0, (3, 4))
    means[:, 0] = 1.0 + SIGMA_FLOOR * np.array([50.0, -50.0, 49.9])
    su = r.uniform(0.8, 1.5, (3, 4))
    sl = su * r.uniform(0.6, 0.95, (3, 4))
    su[:, 0] = sl[:, 0] = SIGMA_FLOOR
    cons = r.uniform(1.0, 2.0, 3)
    check_epochs_match_loops(X, y, means, sl, su, cons)

    # four rules whose sorting permutation is not its own inverse, so a
    # kernel that scatters sorted rows back with it the wrong way round fails
    cons4 = np.array([1.6, 1.2, 1.9, 1.4])
    order4 = np.argsort(cons4, kind="stable")
    assert not np.array_equal(order4[order4], np.arange(4))
    means4 = r.uniform(-1.0, 1.0, (4, 4))
    su4 = r.uniform(0.8, 1.5, (4, 4))
    sl4 = su4 * r.uniform(0.6, 0.95, (4, 4))
    check_epochs_match_loops(X, y, means4, sl4, su4, cons4, t1=False)


def mixed_columns(r, n):
    """(n, 6) rows of the column kinds that centre tells apart: a constant,
    a 0/1 flag, a {0, 2.5} column whose first row takes 2.5, a {-1, 3}
    column, and two continuous ones."""
    X = np.column_stack([np.full(n, 2.0), r.integers(0, 2, n),
                         np.where(r.random(n) < 0.4, 2.5, 0.0),
                         np.where(r.random(n) < 0.5, -1.0, 3.0),
                         r.uniform(-2.0, 2.0, n), r.normal(0.0, 1.0, n)])
    X[:2, 1] = [0.0, 1.0]  # both levels present
    X[:2, 2] = [2.5, 0.0]
    X[:2, 3] = [3.0, -1.0]
    return X


def test_centre_folds_two_valued_columns():
    X = mixed_columns(np.random.default_rng(3), 12)
    x0, zt, c, wide, z2w = kernels.centre(X)
    np.testing.assert_array_equal(x0, X[0])
    np.testing.assert_array_equal(zt, (X - X[0]).T)
    # the one nonzero centred value of each two-valued column, where z^2 =
    # c z exactly; the continuous columns keep their squares
    np.testing.assert_array_equal(c, [0.0, 1.0, -2.5, -4.0, 0.0, 0.0])
    np.testing.assert_array_equal(wide, [4, 5])
    np.testing.assert_array_equal(zt[:4] * zt[:4], c[:4, None] * zt[:4])
    assert z2w.tobytes() == (zt[wide] * zt[wide]).tobytes()
    assert z2w.flags.c_contiguous

    # a two-valued column whose square overflows stays wide, as do columns
    # with a NaN or three values; -0.0 is zero
    odd = np.zeros((5, 4))
    odd[2, 0] = 1e180
    odd[3, 1] = np.nan
    odd[1:3, 2] = [1.0, 2.0]
    odd[4, 3] = -0.0
    _, _, c, wide, z2w = kernels.centre(odd)
    np.testing.assert_array_equal(c, np.zeros(4))
    np.testing.assert_array_equal(wide, [0, 1, 2])
    assert np.isinf(z2w[0, 2])

    # one row: every column is constant
    _, zt, c, wide, z2w = kernels.centre(X[3:4])
    assert not zt.any() and not c.any()
    assert wide.size == 0 and z2w.shape == (0, 1)


def test_epoch_kernels_match_loop_twins_on_mixed_columns(monkeypatch):
    # the folded products for two-valued and constant columns, the z^2
    # products for the wide ones, and it2_epoch in blocks of 3 columns
    monkeypatch.setattr(kernels, "_KM_BLOCK_CELLS", 16)
    r = np.random.default_rng(11)
    X = mixed_columns(r, 40)
    y = r.uniform(1.0, 2.0, 40)
    means = r.uniform(-1.0, 3.0, (4, 6))
    su = r.uniform(0.8, 1.5, (4, 6))
    sl = su * r.uniform(0.6, 0.95, (4, 6))
    cons = np.array([1.6, 1.2, 1.9, 1.4])
    check_epochs_match_loops(X, y, means, sl, su, cons)


def test_gradients_match_finite_differences_on_mixed_columns():
    r = np.random.default_rng(12)
    X = mixed_columns(r, 10)
    y = r.uniform(1, 2, 10)
    means = r.uniform(-1.0, 3.0, (3, 6))
    su = r.uniform(1.0, 1.6, (3, 6))
    sl = su * r.uniform(0.6, 0.9, (3, 6))
    cons = r.uniform(1, 2, 3)
    check_t1_gradient(X, y, means, su * 0.8, cons)
    check_it2_gradient(X, y, means, sl, su, cons)


def test_gradient_vanishes_at_perfect_fit(rng):
    # a single rule outputs its consequent regardless of x, so matching
    # targets zero the error and every gradient exactly
    X = rng.uniform(-1, 1, (6, 2))
    y = np.full(6, 1.7)
    means = rng.uniform(-1, 1, (1, 2))
    sig = np.ones((1, 2))
    cons = np.array([1.7])
    gm, gs, gc, err = kernels.t1_epoch(kernels.centre(X), y, means, sig, cons)
    assert err == 0.0
    assert not gm.any() and not gs.any() and not gc.any()


# ---------------------------------------------------------------------------
# tuning
# ---------------------------------------------------------------------------


def regression_dataset(rng, n=60):
    x = np.concatenate([rng.normal(-1.0, 0.4, n), rng.normal(1.0, 0.4, n)])
    labels = ("a",) * n + ("b",) * n
    return Dataset(x[:, None], labels, ("x1",))


def test_tune_t1_reduces_error(rng):
    data = regression_dataset(rng)
    rb = t1_rule_base([[-0.5], [0.5]], [[0.8], [0.8]], [1.3, 1.7], [0.2, 0.2],
                      label_low="a", label_high="b")
    tuned, trace = tune_t1(rb, data, TuneConfig(learning_rate=0.05, epochs=40))
    assert trace.epoch_error[trace.best_epoch] < 0.9 * trace.epoch_error[0]
    assert trace.epoch_error.min() == trace.epoch_error[trace.best_epoch]


def test_tune_t1_returns_best_epoch_snapshot(rng):
    data = regression_dataset(rng)
    rb = t1_rule_base([[-0.5], [0.5]], [[0.8], [0.8]], [1.3, 1.7], [0.2, 0.2],
                      label_low="a", label_high="b")
    tuned, trace = tune_t1(rb, data, TuneConfig(learning_rate=0.05, epochs=30))
    # the returned base, run through the epoch kernel once more, has the
    # best epoch's error to the bit
    *_, err = kernels.t1_epoch(kernels.centre(data.features),
                               targets_for(rb, data.labels), tuned.means,
                               tuned.sigma_upper, tuned.cons_mean)
    assert float(err) == trace.epoch_error[trace.best_epoch]
    assert np.array_equal(tuned.sigma_lower, tuned.sigma_upper)  # stays type-1


def test_tune_trace_records_the_mean_error(rng):
    # epoch 0 of the trace measures the untouched base, so it must equal
    # 0.5 * mean((f - y)^2) of that base's own predictions, in both tuners
    data = regression_dataset(rng)
    rb = t1_rule_base([[-0.5], [0.5]], [[0.8], [0.8]], [1.3, 1.7], [0.2, 0.2],
                      label_low="a", label_high="b")
    f = predict_batch(rb, data.features).crisp
    want = 0.5 * np.mean((f - targets_for(rb, data.labels)) ** 2)
    _, trace = tune_t1(rb, data, TuneConfig(learning_rate=0.05, epochs=3))
    assert trace.epoch_error[0] == pytest.approx(want, rel=1e-12)
    it2 = widen_to_it2(rb, spread=0.0)
    _, trace = tune_it2(it2, data, TuneConfig(learning_rate=0.05, epochs=3))
    assert trace.epoch_error[0] == pytest.approx(want, rel=1e-12)


def test_tune_it2_reduces_error_and_keeps_invariants(rng):
    data = regression_dataset(rng)
    rb = t1_rule_base([[-0.5], [0.5]], [[0.8], [0.8]], [1.3, 1.7], [0.2, 0.2],
                      label_low="a", label_high="b")
    rb = widen_to_it2(rb, spread=0.2)
    tuned, trace = tune_it2(rb, data, TuneConfig(learning_rate=0.05, epochs=40))
    assert trace.epoch_error[trace.best_epoch] <= trace.epoch_error[0]
    assert (tuned.sigma_lower <= tuned.sigma_upper).all()
    assert (tuned.sigma_lower >= SIGMA_FLOOR).all()
    *_, err = kernels.it2_epoch(kernels.centre(data.features),
                                targets_for(rb, data.labels), tuned.means,
                                tuned.sigma_lower, tuned.sigma_upper,
                                tuned.cons_mean)
    assert float(err) == trace.epoch_error[trace.best_epoch]


def base_for(tune):
    """The small two-rule base the tuning tests start from, of tune's kind."""
    rb = t1_rule_base([[-0.5], [0.5]], [[0.8], [0.8]], [1.3, 1.7], [0.2, 0.2],
                      label_low="a", label_high="b")
    return widen_to_it2(rb, 0.2) if tune is tune_it2 else rb


@pytest.mark.parametrize("tune", [tune_t1, tune_it2], ids=["t1", "it2"])
def test_tune_centres_each_batch_once(rng, tune, monkeypatch):
    # the data terms depend on the training rows only, so a run builds them
    # once, before its first epoch
    rows = []
    centre = kernels.centre
    monkeypatch.setattr(kernels, "centre",
                        lambda x: rows.append(x.shape[0]) or centre(x))
    data = regression_dataset(rng)
    n = data.features.shape[0]
    cfg = TuneConfig(learning_rate=0.05, epochs=5, patience=5)
    _, trace = tune(base_for(tune), data, cfg)
    assert len(trace.epoch_error) == 5
    assert rows == [n]


def test_tune_early_stopping(rng):
    data = regression_dataset(rng)
    rb = t1_rule_base([[-0.5], [0.5]], [[0.8], [0.8]], [1.3, 1.7], [0.2, 0.2],
                      label_low="a", label_high="b")
    cfg = TuneConfig(learning_rate=2.0, epochs=200, patience=3)
    _, trace = tune_t1(rb, data, cfg)  # overshooting triggers patience
    # the run stops at the patience-th epoch without a lower error
    assert len(trace.epoch_error) == trace.best_epoch + 3 + 1 < 200
    assert trace.best_epoch == int(np.argmin(trace.epoch_error))

    # with patience >= epochs, as perfbench's train_large sets it, every
    # epoch runs, along the same path, and the best is the earliest minimum
    _, full = tune_t1(rb, data, TuneConfig(learning_rate=2.0, epochs=60,
                                           patience=60))
    assert len(full.epoch_error) == 60
    np.testing.assert_array_equal(
        full.epoch_error[:len(trace.epoch_error)], trace.epoch_error)
    assert full.best_epoch == int(np.argmin(full.epoch_error))


def test_tune_it2_survives_aggressive_steps(rng):
    # huge steps drive sigmas negative; the floor + projection keep the
    # parameters legal every epoch (construction would fail otherwise)
    data = regression_dataset(rng)
    rb = widen_to_it2(t1_rule_base([[-0.5], [0.5]], [[0.8], [0.8]],
                                   [1.3, 1.7], [0.2, 0.2],
                                   label_low="a", label_high="b"), 0.3)
    tuned, _ = tune_it2(rb, data, TuneConfig(learning_rate=50.0, epochs=8,
                                             patience=8))
    assert (tuned.sigma_lower >= SIGMA_FLOOR).all()
    assert (tuned.sigma_lower <= tuned.sigma_upper).all()


def test_tune_kind_checks(rng):
    data = regression_dataset(rng)
    t1 = random_t1_base(rng, label_low="a", label_high="b", n_features=1)
    it2 = random_it2_base(rng, label_low="a", label_high="b", n_features=1)
    with pytest.raises(ValueError):
        tune_t1(it2, data)
    with pytest.raises(ValueError):
        tune_it2(t1, data)


def test_tune_rejects_uncovered_sample(rng):
    # 1e180 is finite, but its squared distance to every rule overflows, so
    # each of the row's log firings is -inf and its gradient is NaN; both
    # tuners name the row
    data = regression_dataset(rng)
    feats = data.features.copy()
    feats[2, 0] = 1e180
    bad = Dataset(feats, data.labels, data.feature_names)
    for tune in (tune_t1, tune_it2):
        with pytest.raises(DataError, match=r"^non-finite gradient at sample 2$"):
            tune(base_for(tune), bad, TuneConfig(epochs=2))


def test_tune_rejects_uncovered_sample_in_two_valued_column(rng):
    # the same overflow in a column of zeros and one 1e180: its square
    # overflows, so centre keeps it wide and the row's log firings are -inf
    # as above, not folded into a finite product
    data = regression_dataset(rng)
    flag = np.zeros(data.n_rows)
    flag[2] = 1e180
    bad = Dataset(np.column_stack([data.features[:, 0], flag]), data.labels,
                  ("x1", "x2"))
    assert kernels.centre(bad.features)[3].tolist() == [0, 1]
    rb = t1_rule_base([[-0.5, 0.0], [0.5, 0.0]], [[0.8, 0.5], [0.8, 0.5]],
                      [1.3, 1.7], [0.2, 0.2], label_low="a", label_high="b")
    for base in (rb, widen_to_it2(rb, 0.2)):
        tune = tune_it2 if base.kind == KIND_IT2 else tune_t1
        with pytest.raises(DataError,
                           match=r"^non-finite gradient at sample 2$"):
            tune(base, bad, TuneConfig(epochs=2))


@pytest.mark.parametrize("lr", [1e200, 1e308])
@pytest.mark.parametrize("tune", [tune_t1, tune_it2], ids=["t1", "it2"])
def test_tune_names_a_diverging_learning_rate(rng, tune, lr):
    # epoch 0 is finite; the first step of a huge finite rate makes the
    # error non-finite, which is the rate's fault, not a row's (and numpy's
    # overflow warnings would fail the test)
    data = regression_dataset(rng)
    with pytest.raises(DataError,
                       match=re.escape(f"learning_rate={lr!r}; lower")):
        tune(base_for(tune), data, TuneConfig(learning_rate=lr, epochs=5))


@pytest.mark.parametrize("tune", [tune_t1, tune_it2], ids=["t1", "it2"])
@pytest.mark.parametrize("features, message", [
    (np.zeros((4, 2)), "training rows have 2 features; rule base expects 1"),
    (np.zeros((0, 1)), "training set is empty"),
], ids=["feature_count", "empty"])
def test_tune_rejects_unfit_training_rows(tune, features, message):
    n, g = features.shape
    data = Dataset(features, ("a",) * n, tuple(f"x{k + 1}" for k in range(g)))
    with pytest.raises(DataError, match=f"^{message}$"):
        tune(base_for(tune), data, TuneConfig(epochs=2))


# ---------------------------------------------------------------------------
# widening
# ---------------------------------------------------------------------------


def test_widen_to_it2_arithmetic(rng):
    rb = random_t1_base(rng)
    wide = widen_to_it2(rb, spread=0.25)
    assert wide.kind == KIND_IT2
    np.testing.assert_allclose(wide.sigma_lower, rb.sigma_upper * 0.75, rtol=1e-15)
    np.testing.assert_allclose(wide.sigma_upper, rb.sigma_upper * 1.25, rtol=1e-15)
    np.testing.assert_array_equal(wide.means, rb.means)
    np.testing.assert_array_equal(wide.cons_mean, rb.cons_mean)
    assert ("spread", "0.25") in wide.provenance


def test_widen_zero_spread_keeps_sigmas(rng):
    rb = random_t1_base(rng)
    wide = widen_to_it2(rb, spread=0.0)
    assert np.array_equal(wide.sigma_lower, wide.sigma_upper)


def test_widen_validation(rng):
    rb = random_t1_base(rng)
    with pytest.raises(ValueError):
        widen_to_it2(rb, spread=1.0)
    with pytest.raises(ValueError):
        widen_to_it2(rb, spread=-0.1)
    with pytest.raises(ValueError):
        widen_to_it2(widen_to_it2(rb, 0.1), 0.1)  # already interval type-2


@dataclasses.dataclass(frozen=True)
class TaggedRuleBase(RuleBase):
    """A rule base with one field the learner does not know of."""
    tag: str = "untouched"


def test_learning_steps_carry_every_field_they_do_not_set(rng):
    # a field added to RuleBase later (here `tag`) must pass through widening
    # and tuning without any step listing it
    data = regression_dataset(rng)
    start = base_for(tune_t1)
    given = {f.name: getattr(start, f.name) for f in dataclasses.fields(start)}
    rb = TaggedRuleBase(**{**given, "threshold": 1.5,
                           "provenance": (("built_by", "test"),)}, tag="kept")
    steps = [
        (lambda b: tune_t1(b, data, TuneConfig(epochs=2))[0],
         {"means", "sigma_lower", "sigma_upper", "cons_mean"}),
        (widen_to_it2,
         {"kind", "sigma_lower", "sigma_upper", "cons_sigma_lower",
          "cons_sigma_upper", "provenance"}),
        (lambda b: tune_it2(b, data, TuneConfig(epochs=2))[0],
         {"means", "sigma_lower", "sigma_upper", "cons_mean"}),
    ]
    for step, sets in steps:
        out = step(rb)
        assert type(out) is TaggedRuleBase
        assert out.tag == "kept"
        for f in dataclasses.fields(TaggedRuleBase):
            if f.name not in sets:
                before, after = getattr(rb, f.name), getattr(out, f.name)
                if isinstance(before, np.ndarray):
                    assert np.array_equal(before, after), f.name
                else:
                    assert before == after, f.name
        rb = out
    assert rb.kind == KIND_IT2


# ---------------------------------------------------------------------------
# rule extraction
# ---------------------------------------------------------------------------


def test_extract_rules_single_cluster_gives_global_stats(rng):
    data = two_class_dataset(rng)
    rb = extract_rules(data, 1, seed=0)
    y, low, high = encode_labels(data.labels)
    assert rb.n_rules == 1
    assert (rb.label_low, rb.label_high) == (low, high)
    assert rb.cons_mean[0] == pytest.approx(y.mean(), rel=1e-9)
    assert rb.means[0, 0] == pytest.approx(data.features[:, 0].mean(), rel=1e-9)
    assert rb.sigma_upper[0, 0] == pytest.approx(data.features[:, 0].std(), rel=1e-6)


def test_extract_rules_finds_two_separated_groups(rng):
    data = two_class_dataset(rng, n_major=80, n_minor=40, gap=4.0)
    rb = extract_rules(data, 2, seed=0)
    assert rb.n_rules == 2
    assert rb.kind == KIND_T1
    # consequent means ascend and sit near the encoded targets
    assert rb.cons_mean[0] < rb.cons_mean[1]
    assert rb.cons_mean[0] == pytest.approx(1.0, abs=0.15)
    assert rb.cons_mean[1] == pytest.approx(2.0, abs=0.15)
    assert rb.means[0, 0] == pytest.approx(0.0, abs=0.3)
    assert rb.means[1, 0] == pytest.approx(4.0, abs=0.3)
    prov = dict(rb.provenance)
    assert prov["clustering"] in ("gk", "fcm-fallback")
    assert prov["cluster_count"] == "2"


def test_extract_rules_sorted_by_consequent(rng):
    data = two_class_dataset(rng)
    for c in (2, 3, 4):
        rb = extract_rules(data, c, seed=1)
        assert (np.diff(rb.cons_mean) >= 0).all()


def test_extract_rules_uses_feature_names(rng):
    data = two_class_dataset(rng)
    rb = extract_rules(data, 2, seed=0)
    assert rb.variable_names == ("x1",)


def test_extract_rules_determinism(rng):
    data = two_class_dataset(rng)
    a = extract_rules(data, 3, seed=9)
    b = extract_rules(data, 3, seed=9)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.cons_mean, b.cons_mean)


def test_extract_rules_row_order_insensitive(rng):
    data = two_class_dataset(rng)
    perm = rng.permutation(data.n_rows)
    shuffled = Dataset(data.features[perm],
                       tuple(data.labels[i] for i in perm),
                       data.feature_names)
    a = extract_rules(data, 2, seed=0)
    b = extract_rules(shuffled, 2, seed=0)
    # same fixed point up to convergence tolerance (init differs by row order)
    np.testing.assert_allclose(a.means, b.means, atol=1e-3)
    np.testing.assert_allclose(a.cons_mean, b.cons_mean, atol=1e-3)


def test_extract_rules_validation(rng):
    data = two_class_dataset(rng)
    bad = Dataset(data.features, ("a",) * data.n_rows, data.feature_names)
    with pytest.raises(DataError):
        extract_rules(bad, 2)
    with pytest.raises(DataError):
        extract_rules(Dataset(np.empty((0, 1)), (), ("x1",)), 2)


def test_tune_config_validation():
    with pytest.raises(ValueError, match="learning_rate"):
        TuneConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="epochs"):
        TuneConfig(epochs=0)
    with pytest.raises(ValueError, match="patience"):
        TuneConfig(patience=0)
