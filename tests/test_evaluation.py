"""Splitting, confusion-matrix metrics, threshold sweep, and both baselines.

The baseline checks compare against deliberately naive per-row loop
reimplementations (scalar math, explicit sorting) so any vectorization slip
in the library shows up as a label mismatch.
"""

import math
from collections import Counter

import numpy as np
import pytest

from it2fis import kernels
from it2fis.errors import DataError
from it2fis.evaluation import (baseline_knn, baseline_nb, calibrate_threshold,
                               compute_metrics, split, take)
from it2fis.preprocess import Dataset


def make_dataset(features, labels):
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[0] != len(labels):
        features = features.T
    names = tuple(f"f{j}" for j in range(features.shape[1]))
    return Dataset(features, tuple(labels), names)


# ---------------------------------------------------------------------------
# split / take
# ---------------------------------------------------------------------------


def test_split_stratified_largest_remainder_counts():
    ds = make_dataset(np.arange(10.0), ("a",) * 7 + ("b",) * 3)
    s = split(ds, ratio=0.7, seed=3)
    assert s.train_indices.size == 7 and s.test_indices.size == 3
    tr = Counter(take(ds, s.train_indices).labels)
    te = Counter(take(ds, s.test_indices).labels)
    # quotas 4.9 / 2.1: the leftover seat goes to the larger fraction
    assert tr == {"a": 5, "b": 2}
    assert te == {"a": 2, "b": 1}


def test_split_partitions_the_index_range(rng):
    ds = make_dataset(rng.normal(size=40), ("x",) * 30 + ("y",) * 10)
    for stratified in (True, False):
        s = split(ds, ratio=0.6, seed=9, stratified=stratified)
        both = np.concatenate([s.train_indices, s.test_indices])
        assert np.array_equal(np.sort(both), np.arange(40))
        assert np.array_equal(s.train_indices, np.sort(s.train_indices))
        assert np.array_equal(s.test_indices, np.sort(s.test_indices))
        assert s.train_indices.size == 24


def test_split_seed_controls_the_shuffle(rng):
    ds = make_dataset(rng.normal(size=30), ("x",) * 20 + ("y",) * 10)
    a = split(ds, seed=5)
    b = split(ds, seed=5)
    c = split(ds, seed=6)
    assert np.array_equal(a.train_indices, b.train_indices)
    assert not np.array_equal(a.train_indices, c.train_indices)


def test_split_rejects_vanishing_class(rng):
    ds = make_dataset(rng.normal(size=10), ("a",) * 9 + ("b",))
    with pytest.raises(DataError, match="class 'b' absent"):
        split(ds, ratio=0.7, seed=0)


def test_split_validation(rng):
    ds = make_dataset(rng.normal(size=10), ("a",) * 5 + ("b",) * 5)
    with pytest.raises(ValueError, match="ratio"):
        split(ds, ratio=1.0)
    with pytest.raises(DataError, match="empty side"):
        split(ds, ratio=0.01)
    one = make_dataset([[1.0]], ("a",))
    with pytest.raises(DataError, match="two rows"):
        split(one, ratio=0.5)


def test_take_preserves_requested_order(rng):
    ds = make_dataset(rng.normal(size=(6, 2)), tuple("abcdef"))
    sub = take(ds, [4, 1, 1])
    assert sub.labels == ("e", "b", "b")
    np.testing.assert_array_equal(sub.features, ds.features[[4, 1, 1]])
    assert sub.feature_names == ds.feature_names


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

HAND_TRUTH = ["p", "p", "n", "n"]
HAND_PRED = ["p", "n", "n", "n"]


def test_metrics_hand_worked_confusion():
    # tp=1 fn=1 fp=0 tn=2
    m = compute_metrics(HAND_PRED, HAND_TRUTH, positive_class="p")
    assert m.accuracy == 0.75
    np.testing.assert_array_equal(m.confusion, [[1, 1], [0, 2]])
    assert m.precision["p"] == 1.0
    assert m.recall["p"] == 0.5
    assert m.f_measure["p"] == pytest.approx(2.0 / 3.0)
    assert m.precision["n"] == pytest.approx(2.0 / 3.0)
    assert m.recall["n"] == 1.0
    assert m.f_measure["n"] == pytest.approx(0.8)
    assert m.macro_f == pytest.approx(0.5 * (2.0 / 3.0 + 0.8))
    assert m.n_test == 4
    # 2-2 count tie: the lexicographically smaller code is the majority
    assert m.majority_class == "n"
    assert m.majority_accuracy == 0.5


def test_metrics_zero_denominator_convention():
    # nothing predicted positive and nothing truly positive handled as F=0
    m = compute_metrics(["n", "n"], ["n", "n"], positive_class="p")
    assert m.accuracy == 1.0
    assert m.precision["p"] == 0.0
    assert m.recall["p"] == 0.0
    assert m.f_measure["p"] == 0.0
    assert m.f_measure["n"] == 1.0
    assert m.macro_f == 0.5


def test_metrics_swapping_positive_class_transposes_confusion(rng):
    for _ in range(25):
        truth = list(rng.choice(["1", "2"], size=12))
        pred = list(rng.choice(["1", "2"], size=12))
        truth[0], truth[1] = "1", "2"  # keep both classes present
        a = compute_metrics(pred, truth, positive_class="1")
        b = compute_metrics(pred, truth, positive_class="2")
        # [[tp, fn], [fp, tn]] becomes [[tn, fp], [fn, tp]]
        np.testing.assert_array_equal(a.confusion, b.confusion[::-1, ::-1])
        assert a.accuracy == b.accuracy
        assert a.macro_f == pytest.approx(b.macro_f, abs=1e-15)
        assert a.precision == b.precision
        assert a.recall == b.recall
        assert a.f_measure == b.f_measure


def test_metrics_rejects_bad_label_sets():
    with pytest.raises(DataError, match="outside classes"):
        compute_metrics(["x", "p"], ["p", "n"], positive_class="p")
    with pytest.raises(DataError, match="exactly two"):
        compute_metrics(["a", "b"], ["a", "b"], positive_class="c")
    with pytest.raises(DataError, match="exactly two"):
        compute_metrics(["a"], ["a"], positive_class="a")
    with pytest.raises(ValueError):
        compute_metrics([], [], positive_class="a")
    with pytest.raises(ValueError):
        compute_metrics(["a"], ["a", "b"], positive_class="a")


def test_metrics_machine_lines_are_parseable():
    m = compute_metrics(HAND_PRED, HAND_TRUTH, positive_class="p")
    lines = m.machine_lines(prefix="m.")
    kv = dict(l.split("=", 1) for l in lines)
    assert kv["m.accuracy"] == "0.75"
    assert kv["m.tp"] == "1" and kv["m.fn"] == "1"
    assert kv["m.fp"] == "0" and kv["m.tn"] == "2"
    assert kv["m.majority_class"] == "n"
    assert "m.f.p" in kv and "m.f.n" in kv


def test_metrics_text_mentions_majority():
    m = compute_metrics(HAND_PRED, HAND_TRUTH, positive_class="p")
    text = m.text("demo")
    assert "== demo ==" in text
    assert "class n (majority)" in text
    assert "always-majority baseline accuracy: 0.5000" in text


# ---------------------------------------------------------------------------
# threshold sweep
# ---------------------------------------------------------------------------


def test_calibrate_threshold_picks_first_separating_point():
    best = calibrate_threshold([1.0, 2.0], ["L", "H"], "L", 1.0, 2.0)
    # any t in (1, 2] separates perfectly; the sweep grid's second point wins
    assert best == np.linspace(1.0, 2.0, 101)[1]


def test_calibrate_threshold_nan_counts_as_low():
    best = calibrate_threshold([np.nan, 2.0], ["L", "H"], "L", 1.0, 2.0)
    assert best == 1.0  # perfect F already at the lowest threshold


def test_calibrate_threshold_all_ties_keep_smallest():
    # the low class never occurs: F stays 0 everywhere, lo wins by tie rule
    assert calibrate_threshold([1.5, 1.7], ["H", "H"], "L", 0.0, 3.0) == 0.0


def test_calibrate_threshold_against_exhaustive_scan(rng):
    for _ in range(10):
        crisp = rng.uniform(1.0, 2.0, size=30)
        truth = list(rng.choice(["L", "H"], size=30))
        best = calibrate_threshold(crisp, truth, "L", 1.0, 2.0, n_points=51)
        is_low = np.array([t == "L" for t in truth])

        def f_at(t):
            pred_low = crisp < t
            tp = int((pred_low & is_low).sum())
            fp = int((pred_low & ~is_low).sum())
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / is_low.sum() if is_low.sum() else 0.0
            return 2 * p * r / (p + r) if p + r else 0.0

        grid = np.linspace(1.0, 2.0, 51)
        scores = [f_at(t) for t in grid]
        assert f_at(best) == max(scores)
        assert best == grid[int(np.argmax(scores))]  # argmax keeps first


# ---------------------------------------------------------------------------
# naive-bayes baseline
# ---------------------------------------------------------------------------


def naive_nb(train, test, alpha=1.0):
    """Scalar-loop Naive Bayes used as an oracle for baseline_nb."""
    Xtr, Xte = train.features, test.features
    classes = sorted(set(train.labels))
    is_bin = [set(np.unique(Xtr[:, j])) <= {0.0, 1.0}
              for j in range(Xtr.shape[1])]
    out = []
    for x in Xte:
        scores = []
        for c in classes:
            rows = [i for i, l in enumerate(train.labels) if l == c]
            nc = len(rows)
            s = math.log(nc / Xtr.shape[0])
            for j in range(Xtr.shape[1]):
                col = Xtr[rows, j]
                if is_bin[j]:
                    p1 = (col.sum() + alpha) / (nc + 2.0 * alpha)
                    s += math.log(p1) if x[j] == 1.0 else math.log1p(-p1)
                else:
                    mu = col.mean()
                    var = max(col.var(), 1e-9)
                    s += -0.5 * ((x[j] - mu) ** 2 / var
                                 + math.log(2.0 * math.pi * var))
            scores.append(s)
        best = max(range(len(classes)), key=lambda i: (scores[i], -i))
        out.append(classes[best])
    return out


def mixed_data(rng, n_train=60, n_test=25):
    def block(n):
        b = rng.integers(0, 2, size=(n, 3)).astype(float)
        c = rng.normal(size=(n, 2)) * np.array([1.0, 3.0])
        return np.hstack([b, c])

    Xtr, Xte = block(n_train), block(n_test)
    # labels lean on the first continuous column so accuracy is non-trivial
    ytr = tuple("1" if v + rng.normal() * 0.5 > 0 else "2" for v in Xtr[:, 3])
    yte = tuple("1" if v > 0 else "2" for v in Xte[:, 3])
    if len(set(ytr)) < 2:  # pragma: no cover - seeds below avoid this
        raise AssertionError("degenerate draw")
    names = tuple(f"f{j}" for j in range(5))
    return Dataset(Xtr, ytr, names), Dataset(Xte, yte, names)


def test_baseline_nb_matches_scalar_oracle(rng):
    for _ in range(5):
        train, test = mixed_data(rng)
        assert baseline_nb(train, test) == naive_nb(train, test)
        assert baseline_nb(train, test, alpha=0.5) == naive_nb(
            train, test, alpha=0.5)


def test_baseline_nb_hand_worked_bernoulli():
    train = make_dataset([[1.0], [1.0], [0.0], [0.0], [0.0], [0.0], [0.0]],
                         ("1", "1", "1", "2", "2", "2", "2"))
    # p(x=1|1) = (2+1)/(3+2) = 0.6, p(x=1|2) = (0+1)/(4+2) = 1/6
    test = make_dataset([[1.0], [0.0]], ("?", "?"))
    assert baseline_nb(train, test) == ["1", "2"]


def test_baseline_nb_posterior_tie_takes_smaller_code():
    # perfectly symmetric classes: every posterior ties exactly
    train = make_dataset([[1.0], [0.0], [0.0], [1.0]], ("a", "a", "b", "b"))
    test = make_dataset([[1.0], [0.0]], ("?", "?"))
    assert baseline_nb(train, test) == ["a", "a"]


def test_baseline_nb_variance_floor_handles_constant_column():
    train = make_dataset([[5.0], [5.0], [5.0], [0.0], [1.0], [2.0]],
                         ("1", "1", "1", "2", "2", "2"))
    test = make_dataset([[5.0], [1.0]], ("?", "?"))
    assert baseline_nb(train, test) == ["1", "2"]


def test_baseline_nb_validation(rng):
    train, test = mixed_data(rng)
    bad = Dataset(test.features[:, :3], test.labels, test.feature_names[:3])
    with pytest.raises(DataError, match="feature counts differ"):
        baseline_nb(train, bad)
    mono = Dataset(train.features, ("1",) * train.n_rows, train.feature_names)
    with pytest.raises(DataError, match="two classes"):
        baseline_nb(mono, test)


# ---------------------------------------------------------------------------
# k-nearest-neighbor baseline
# ---------------------------------------------------------------------------


def naive_knn(train, test, k):
    """Sorted-scan KNN oracle: lexicographic (distance, train row index)."""
    Xtr = train.features.astype(float).copy()
    Xte = test.features.astype(float).copy()
    for j in range(Xtr.shape[1]):
        if set(np.unique(Xtr[:, j])) <= {0.0, 1.0}:
            continue
        lo, hi = Xtr[:, j].min(), Xtr[:, j].max()
        span = hi - lo if hi > lo else 1.0
        Xtr[:, j] = (Xtr[:, j] - lo) / span
        Xte[:, j] = (Xte[:, j] - lo) / span
    classes = sorted(set(train.labels))
    out = []
    for x in Xte:
        d2 = ((Xtr - x) ** 2).sum(axis=1)
        order = sorted(range(len(d2)), key=lambda i: (d2[i], i))[:k]
        votes = Counter(train.labels[i] for i in order)
        top = max(votes.values())
        winners = [c for c in classes if votes.get(c, 0) == top]
        out.append(winners[0] if len(winners) == 1 else train.labels[order[0]])
    return out


def test_baseline_knn_matches_scalar_oracle(rng):
    for k in (1, 3, 5):
        train, test = mixed_data(rng)
        assert baseline_knn(train, test, k=k) == naive_knn(train, test, k)


def test_baseline_knn_chunking_is_invisible(rng):
    train, test = mixed_data(rng)
    assert baseline_knn(train, test, k=3, chunk=7) == baseline_knn(
        train, test, k=3)


def test_baseline_knn_distance_tie_prefers_lower_row_index():
    # duplicated training points produce bitwise-equal distances
    train = make_dataset([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]],
                         ("a", "a", "b", "b"))
    mid = make_dataset([[0.5, 0.5]], ("?",))
    # both pairs are exactly 0.5 away; rows 0 and 1 win the k=2 slots
    assert baseline_knn(train, mid, k=2) == ["a"]


def test_baseline_knn_even_vote_falls_to_nearest():
    train = make_dataset([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]],
                         ("a", "a", "b", "b"))
    near_b = make_dataset([[0.6, 0.6]], ("?",))
    near_a = make_dataset([[0.4, 0.4]], ("?",))
    assert baseline_knn(train, near_b, k=4) == ["b"]
    assert baseline_knn(train, near_a, k=4) == ["a"]


def test_baseline_knn_scales_only_non_binary_columns():
    # the wide column dominates unless it is min-max scaled
    train = make_dataset(
        [[0.0, 0.0], [1.0, 1000.0], [0.0, 10.0], [1.0, 990.0]],
        ("a", "b", "a", "b"))
    test = make_dataset([[0.0, 30.0], [1.0, 970.0]], ("?", "?"))
    assert baseline_knn(train, test, k=1) == ["a", "b"]


def test_baseline_knn_validation(rng):
    train, test = mixed_data(rng)
    with pytest.raises(DataError, match="exceeds"):
        baseline_knn(train, test, k=train.n_rows + 1)
    with pytest.raises(ValueError):
        baseline_knn(train, test, k=0)
    bad = Dataset(test.features[:, :2], test.labels, test.feature_names[:2])
    with pytest.raises(DataError, match="feature counts differ"):
        baseline_knn(train, bad)


# ---------------------------------------------------------------------------
# top-k selection kernel (KNN)
# ---------------------------------------------------------------------------


def tie_heavy_distances(rng, m, nan=True):
    """Distance rows whose k-th smallest value is tied for most k."""
    integer = rng.integers(0, 6, size=(12, m)).astype(float)
    all_equal = np.full((3, m), 2.5)
    # signed zeros compare equal and must keep their column order
    zero_heavy = rng.choice([0.0, -0.0, 0.0, rng.random()], size=(5, m))
    straddle = []  # a block of equal values between smaller and larger ones
    for _ in range(6):
        below = rng.integers(0, m // 3)
        tied = rng.integers(2, m // 2)
        row = np.r_[rng.random(below) * 0.5, np.full(tied, 0.75),
                    1.0 + rng.random(m - below - tied)]
        straddle.append(rng.permutation(row))
    d2 = np.vstack([integer, all_equal, zero_heavy, np.array(straddle)])
    if nan:
        # NaN sorts last; a row with fewer than k non-NaN entries must not
        # take candidates from its neighbours
        nan_rows = np.where(rng.random((4, m)) < 0.6, np.nan,
                            rng.integers(0, 3, size=(4, m)))
        nan_rows[0] = np.nan
        d2 = np.vstack([d2, nan_rows])
    return d2[rng.permutation(d2.shape[0])]


def test_topk_select_matches_stable_argsort_on_ties(rng):
    for m in (1, 2, 9, 31):
        d2 = tie_heavy_distances(rng, max(m, 6))[:, :m]
        for k in range(1, m + 1):
            got = kernels.topk_select_np(d2, k)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(
                got, np.argsort(d2, axis=1, kind="stable")[:, :k])


def test_topk_select_loop_twin_matches_stable_argsort():
    # `_topk_select_loops` is the numba body; called directly it runs as
    # plain Python, so keep the inputs tiny; NaN must sort last
    rng = np.random.default_rng(7)
    d2 = np.vstack([tie_heavy_distances(rng, 8, nan=True),
                    [3.0, np.nan, 0.0, 0.0, np.nan, 3.0, np.inf, np.nan]])
    for k in range(1, 9):
        np.testing.assert_array_equal(
            kernels._topk_select_loops(d2, k),
            np.argsort(d2, axis=1, kind="stable")[:, :k])


def test_baseline_knn_three_classes_on_tied_distances(rng):
    # integer levels 0..4 with both ends present: min-max scaling divides by
    # 4, so every distance is exact in both the library and the oracle, and
    # many neighbours tie; random labels give even and three-way votes
    def codes(n):
        X = rng.integers(0, 5, size=(n, 3)).astype(float)
        X[0], X[1] = 0.0, 4.0
        return X

    names = ("f0", "f1", "f2")
    train = Dataset(codes(60), tuple(rng.choice(["a", "b", "c"], 60)), names)
    test = Dataset(codes(40), ("?",) * 40, names)
    for k in (4, 5):
        want = naive_knn(train, test, k)
        for chunk in (None, 3):
            assert baseline_knn(train, test, k=k, chunk=chunk) == want
