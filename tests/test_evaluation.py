"""Splitting, confusion-matrix metrics, threshold sweep, and both baselines.

The baseline checks compare against deliberately naive per-row loop
reimplementations (scalar math, explicit sorting) so any vectorization slip
in the library shows up as a label mismatch.
"""

import math
import multiprocessing
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from it2fis import evaluation, kernels, parallel
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
    s = split(ds, ratio=0.6, seed=9)
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


def low_f(crisp, truth, t):
    """Exact F of the low class "L" when rows scored >= t are high and the
    rest (NaN included) low, from its precision and recall."""
    pred_low = ~(np.asarray(crisp) >= t)
    is_low = np.array([c == "L" for c in truth])
    tp = int((pred_low & is_low).sum())
    if tp == 0:
        return Fraction(0)
    p, r = Fraction(tp, int(pred_low.sum())), Fraction(tp, int(is_low.sum()))
    return 2 * p * r / (p + r)


def brute_force_threshold(crisp, truth):
    """The first best of every distinct finite score and one cut above
    them all, each scored on its own."""
    finite = sorted(set(float(c) for c in crisp if np.isfinite(c)))
    cuts = finite + [float(np.nextafter(finite[-1], np.inf))]
    scores = [low_f(crisp, truth, t) for t in cuts]
    return cuts[scores.index(max(scores))]


def test_calibrate_threshold_picks_first_separating_point():
    # any t in (1, 2] separates perfectly; the smallest cut is the score 2
    assert calibrate_threshold([1.0, 2.0], ["L", "H"], "L") == 2.0


def test_calibrate_threshold_nan_counts_as_low():
    # the NaN row is low at every cut, so the cut at 2 is already perfect
    assert calibrate_threshold([np.nan, 2.0], ["L", "H"], "L") == 2.0
    assert calibrate_threshold([np.nan, 2.0], ["H", "L"], "L") > 2.0


def test_calibrate_threshold_all_ties_keep_smallest():
    # the low class never occurs: F stays 0 at every cut; the smallest wins
    assert calibrate_threshold([1.7, 1.5], ["H", "H"], "L") == 1.5


def test_calibrate_threshold_tie_block_is_one_cut():
    crisp = np.array([1.0, 2.0, 2.0, 2.0, 3.0])
    # the best split would fall inside the tie block; whole blocks give
    # F 0.4 (cut 2), 0.6 (cut 3) and 6/11 (all low)
    thr = calibrate_threshold(crisp, ["L", "L", "L", "H", "H"], "L")
    assert thr == 3.0
    assert not (crisp[1:4] >= thr).any()


def test_calibrate_threshold_all_low_cut_stays_finite():
    thr = calibrate_threshold([1.0, 2.0], ["L", "L"], "L")
    assert thr == np.nextafter(2.0, np.inf) and np.isfinite(thr)


def test_calibrate_threshold_needs_a_finite_score():
    with pytest.raises(DataError, match="no training row has a finite"):
        calibrate_threshold([np.nan, np.nan], ["L", "H"], "L")


def test_calibrate_threshold_against_exhaustive_scan(rng):
    for n in (1, 2, 5, 30, 200):
        for _ in range(20):
            # one decimal: plenty of tied scores; and a few NaN rows
            crisp = np.round(rng.uniform(1.0, 2.0, size=n), 1)
            crisp[rng.random(n) < 0.1] = np.nan
            if np.isnan(crisp).all():
                crisp[0] = 1.5
            truth = list(rng.choice(["L", "H"], size=n, p=[0.8, 0.2]))
            thr = calibrate_threshold(crisp, truth, "L")
            assert np.isfinite(thr)
            assert thr == brute_force_threshold(crisp, truth)
            # the 101-point grid this sweep replaced never does better
            grid = max(low_f(crisp, truth, t)
                       for t in np.linspace(1.0, 2.0, 101))
            assert low_f(crisp, truth, thr) >= grid


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
    # such an alpha used to return labels, with no error
    for alpha in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha must be finite and "
                                             "positive"):
            baseline_nb(train, test, alpha=alpha)


# ---------------------------------------------------------------------------
# k-nearest-neighbor baseline
# ---------------------------------------------------------------------------


def knn_vote(labels, d2, k):
    """Label of one test row from its distances to the training rows: the k
    nearest by (distance, row index), majority vote, nearest on a shared top."""
    classes = sorted(set(labels))
    order = sorted(range(len(d2)), key=lambda i: (d2[i], i))[:k]
    votes = Counter(labels[i] for i in order)
    top = max(votes.values())
    winners = [c for c in classes if votes.get(c, 0) == top]
    return winners[0] if len(winners) == 1 else labels[order[0]]


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
    return [knn_vote(train.labels, ((Xtr - x) ** 2).sum(axis=1), k)
            for x in Xte]


def exact_keys(train, test):
    """Exact squared distances of integer features as Python ints, scaled by
    the lcm of the non-binary columns' squared spans: one list per test row."""
    Xtr = train.features.astype(int).tolist()
    cols = list(zip(*Xtr))
    binary = [set(c) <= {0, 1} for c in cols]
    span = [max(c) - min(c) or 1 for c in cols]
    lcm = math.lcm(*(s * s for s, b in zip(span, binary) if not b))
    w = [lcm if b else lcm // (s * s) for s, b in zip(span, binary)]
    return [[sum(wj * (a - b) ** 2 for wj, a, b in zip(w, t, x)) for x in Xtr]
            for t in test.features.astype(int).tolist()]


@pytest.fixture
def knn_in_blocks(monkeypatch):
    """`baseline_knn` with blocks of at least `rows` test rows, set through
    `evaluation.knn_block_rows` for the one call; None keeps its height."""
    def knn(train, test, k=5, rows=None):
        with monkeypatch.context() as patch:
            if rows is not None:
                patch.setattr(evaluation, "knn_block_rows",
                              lambda n_train: rows)
            return baseline_knn(train, test, k=k)
    return knn


def test_baseline_knn_matches_scalar_oracle(rng):
    for k in (1, 3, 5):
        train, test = mixed_data(rng)
        assert baseline_knn(train, test, k=k) == naive_knn(train, test, k)


def test_baseline_knn_chunking_is_invisible(rng, knn_in_blocks):
    train, test = mixed_data(rng)
    assert knn_in_blocks(train, test, k=3, rows=7) == baseline_knn(
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


def test_binary_columns_verdicts_match_the_set_form():
    nan = np.nan
    # columns: NaN, signed zero, all zero, {0, 1, 2}, all one, 0.5, -1
    X = np.array([[0.0, -0.0, 0.0, 0.0, 1.0, 0.5, -1.0],
                  [1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0],
                  [nan, 0.0, 0.0, 2.0, 1.0, 1.0, 1.0]])
    set_form = [set(np.unique(X[:, j])) <= {0.0, 1.0}
                for j in range(X.shape[1])]
    got = evaluation._binary_columns(X)
    assert got.tolist() == set_form == [False, True, True, False, True,
                                        False, False]


def covid_like(rng, n, n_flags=32):
    """Sparse 0/1 flags and an integer age column: many equal distances."""
    flags = (rng.random((n, n_flags)) < 0.08).astype(float)
    return np.column_stack([flags, rng.integers(30, 70, n)])


def test_baseline_knn_integer_keys_settle_ties_exactly(knn_in_blocks):
    rng = np.random.default_rng(0)
    Xtr, Xte = covid_like(rng, 160), covid_like(rng, 40)
    Xtr[0, -1], Xtr[1, -1] = 0.0, 97.0  # age span 97, not a power of two
    names = tuple(f"f{j}" for j in range(Xtr.shape[1]))
    train = Dataset(Xtr, tuple(rng.choice(["a", "b"], 160)), names)
    test = Dataset(Xte, ("?",) * 40, names)
    keys = np.array(exact_keys(train, test), dtype=float)  # exact below 2^53
    assert evaluation._integer_key_blocks(
        Xtr, Xte, ~evaluation._binary_columns(Xtr)) is not None

    # the float64 expansion of the scaled values picks neighbours at the
    # right exact distances but misorders some of the ties, which changes
    # votes at k = 1 and 3
    S, T = Xtr.copy(), Xte.copy()
    S[:, -1] /= 97.0
    T[:, -1] /= 97.0
    d2 = (-2.0 * T) @ S.T + (T * T).sum(axis=1)[:, None] + (S * S).sum(axis=1)
    floats = np.argsort(d2, axis=1, kind="stable")[:, :5]
    exact = np.argsort(keys, axis=1, kind="stable")[:, :5]
    assert (floats != exact).any()
    np.testing.assert_array_equal(np.take_along_axis(keys, floats, 1),
                                  np.take_along_axis(keys, exact, 1))

    changed = 0
    for k in (1, 3, 5):
        want = [knn_vote(train.labels, row, k) for row in keys.tolist()]
        for rows in (None, 7):
            assert knn_in_blocks(train, test, k=k, rows=rows) == want
        changed += want != [knn_vote(train.labels, row, k)
                            for row in d2.tolist()]
    assert changed == 2


def test_baseline_knn_falls_back_to_float64_distances(rng, knn_in_blocks):
    # each case leaves the integer key; the levels are multiples of a power
    # of two, so min-max scaling is exact and the oracle sees the same ties
    def levels(n, scale=1.0):
        X = np.column_stack([rng.integers(0, 2, (n, 3)),
                             rng.integers(0, 5, (n, 2)) * scale])
        X[0, 3:], X[1, 3:] = 0.0, 4.0 * scale
        return X

    names = tuple(f"f{j}" for j in range(5))
    half, missing, wide = levels(50), levels(50), levels(50, 1024.0)
    half_te, missing_te, wide_te = levels(20), levels(20), levels(20, 1024.0)
    half_te[4, 3] = 0.5  # not an integer
    missing_te[6, 0] = np.nan  # not finite
    # span 4096: 4 * 4096^2 is above 2^24
    for Xtr, Xte in ((half, half_te), (missing, missing_te), (wide, wide_te)):
        assert evaluation._integer_key_blocks(
            Xtr, Xte, ~evaluation._binary_columns(Xtr)) is None
        train = Dataset(Xtr, tuple(rng.choice(["a", "b"], 50)), names)
        test = Dataset(Xte, ("?",) * 20, names)
        for k in (1, 3, 5):
            want = naive_knn(train, test, k)
            for rows in (None, 7):
                assert knn_in_blocks(train, test, k=k, rows=rows) == want


def covid_split(rng, n_train, n_test, n_flags=33):
    Xtr, Xte = covid_like(rng, n_train, n_flags), covid_like(rng, n_test, n_flags)
    names = tuple(f"f{j}" for j in range(Xtr.shape[1]))
    labels = tuple(np.where(rng.random(n_train) < 0.1, "1", "2"))
    return (Dataset(Xtr, labels, names),
            Dataset(Xte, ("?",) * n_test, names))


def test_baseline_knn_blocks_stay_cache_sized():
    # the pipeline benchmark's shape: 2,080 x 892 test rows x 34 features;
    # one 892-row block took 16.4 MB at its peak
    train, test = covid_split(np.random.default_rng(3), 2080, 892)
    assert evaluation.knn_block_rows(2080) == 126
    baseline_knn(train, test)  # warm-up: numpy's own lazy allocations
    tracemalloc.start()
    try:
        baseline_knn(train, test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_baseline_knn_blocks_keep_the_row_floor(rng, monkeypatch,
                                               knn_in_blocks):
    # 2^18 cells would be 32 rows against 8,000 training rows
    train, test = covid_split(rng, 8000, 130)
    rows = []
    real = kernels.topk_select

    def recording(d2, k):
        rows.append(d2.shape[0])
        return real(d2, k)

    monkeypatch.setattr(kernels, "topk_select", recording)
    labels = baseline_knn(train, test)
    assert evaluation.knn_block_rows(8000) == evaluation.KNN_MIN_ROWS == 48
    assert rows == [65, 65]  # two blocks of at least 48 rows, equal in size
    monkeypatch.setattr(kernels, "topk_select", real)
    assert labels == knn_in_blocks(train, test, rows=130)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the worker pool needs the fork start method")
def test_baseline_knn_forked_equals_in_process(rng, monkeypatch,
                                              knn_in_blocks):
    train, test = covid_split(rng, 6000, 200)  # four 50-row blocks
    # a half-integer age leaves the integer keys for float64 distances
    ftest = Dataset(test.features + np.r_[np.zeros(33), 0.5], test.labels,
                    test.feature_names)
    assert evaluation._integer_key_blocks(
        train.features, test.features,
        ~evaluation._binary_columns(train.features)) is not None
    assert evaluation._integer_key_blocks(
        train.features, ftest.features,
        ~evaluation._binary_columns(train.features)) is None
    cases = [(t, k, rows) for t in (test, ftest) for k in (1, 5)
             for rows in (None, 7)]
    alone = [knn_in_blocks(train, t, k, rows) for t, k, rows in cases]

    pools = []
    real = parallel.fork_map

    def recording(fn, shared, tasks, n_workers):
        pools.append(n_workers)
        return real(fn, shared, tasks, n_workers)

    monkeypatch.setattr(evaluation, "KNN_FORK_PAIRS", 0)
    monkeypatch.setattr(parallel.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(parallel, "fork_map", recording)
    forked = [knn_in_blocks(train, t, k, rows) for t, k, rows in cases]
    assert pools == [2] * len(cases)
    assert forked == alone
    assert parallel._worker is None


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
    # every smallest value in the last column chunk of `topk_select`
    descending = np.arange(m, 0, -1.0) // 2
    d2 = np.vstack([integer, all_equal, zero_heavy, np.array(straddle),
                    descending])
    if nan:
        # NaN sorts last; a row with fewer than k non-NaN entries must not
        # take candidates from its neighbours
        nan_rows = np.where(rng.random((4, m)) < 0.6, np.nan,
                            rng.integers(0, 3, size=(4, m)))
        nan_rows[0] = np.nan
        nan_rows[1, ::2] = np.nan  # a NaN minimum in every wider chunk
        d2 = np.vstack([d2, nan_rows])
    return d2[rng.permutation(d2.shape[0])]


def test_topk_select_matches_stable_argsort_on_ties(rng):
    # up to 32 columns every chunk of the bound is one column wide; 65 leaves
    # a partial last chunk, and k = m // 3 or m narrows the chunks to m // k
    cases = []
    for m in (1, 2, 9, 31, 64, 65, 257, 2081):
        d2 = tie_heavy_distances(rng, max(m, 6))[:, :m]
        ks = range(1, m + 1) if m < 32 else [*range(1, m // 32 + 2), m // 3, m]
        cases.append((d2, ks))
    # NaN, inf and ties in one row, for every k: NaN sorts after inf
    cases.append((np.array([[3.0, np.nan, 0.0, 0.0, np.nan, 3.0, np.inf,
                             np.nan]]), range(1, 9)))
    for d2, ks in cases:
        # float64, and float32 integer keys as the KNN baseline passes them
        for block in (d2, np.rint(4.0 * d2).astype(np.float32)):
            for k in ks:
                got = kernels.topk_select(block, k)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(
                    got, np.argsort(block, axis=1, kind="stable")[:, :k])


def test_baseline_knn_three_classes_on_tied_distances(rng, knn_in_blocks):
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
        for rows in (None, 3):
            assert knn_in_blocks(train, test, k=k, rows=rows) == want
