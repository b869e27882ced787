"""Train/test splitting, metrics, threshold calibration, and two baselines.

The split is seeded and stratified (the class balance here is roughly 9:1,
so plain shuffling would add avoidable variance).  Metrics come from
exact confusion-matrix arithmetic with the F convention F = 0 when P + R = 0.
Reports carry both per-class F values; with heavy imbalance the headline
F-measure belongs to the majority class, so the majority code is recorded
explicitly alongside the accuracy a constant majority predictor would get.
The decision threshold is fitted on the train share by an exact sweep of
the distinct crisp scores, maximizing the majority class's F.

Baselines: a mixed Naive Bayes (Bernoulli with Laplace smoothing on binary
columns, Gaussian on the rest) and a k-nearest-neighbor classifier with
non-binary columns min-max scaled by training statistics.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import kernels, parallel
from .errors import DataError
from .preprocess import Dataset

# The KNN baseline scores its test rows in blocks of at least
# `knn_block_rows(training rows)` rows.  KNN_BLOCK_CELLS keeps a block's
# float32 keys (1 MiB) and the selection's boolean masks of them within a
# 2 MiB L2 cache; KNN_MIN_ROWS keeps the rows per block from falling so low
# on wide training sets that repacking the whole (features + 2, training
# rows) key operand for every block's product dominates.  At 85,569 training
# rows on a 2-vCPU host, 48-row blocks cost 0.53 ms per test row, 8-row
# ones 0.92 ms.
KNN_BLOCK_CELLS = 2 ** 18
KNN_MIN_ROWS = 48

# KNN forks over every CPU (`parallel.fork_map`) only beyond this many
# (test row, training row) pairs.  On a 2-vCPU host a fork pool's round
# trip costs 14-18 ms and in-process KNN against 85,569 training rows about
# 3 ns a pair beyond a fixed 0.1 s for the keys; forked and in-process
# times cross between 16M and 33M pairs, so forking starts at the top of
# that range.
KNN_FORK_PAIRS = 2 ** 25

# Every integer of magnitude up to 2**24 is a float32; the exact KNN key and
# all its partial sums stay within this.
_F32_EXACT = 2 ** 24


@dataclass(frozen=True)
class Split:
    train_indices: np.ndarray
    test_indices: np.ndarray


@dataclass(frozen=True)
class MetricsReport:
    """Confusion-matrix metrics for a binary classifier.

    `confusion` rows are truth (positive first), columns are predictions:
    [[TP, FN], [FP, TN]].  precision/recall/f_measure map each class code to
    its value with that code treated as positive.
    """

    accuracy: float
    confusion: np.ndarray
    classes: tuple
    positive_class: str
    precision: dict
    recall: dict
    f_measure: dict
    macro_f: float
    majority_class: str
    majority_accuracy: float
    n_test: int

    def machine_lines(self, prefix="") -> list:
        tp, fn = self.confusion[0]
        fp, tn = self.confusion[1]
        lines = [
            f"{prefix}accuracy={self.accuracy!r}",
            f"{prefix}macro_f={self.macro_f!r}",
            f"{prefix}positive_class={self.positive_class}",
            f"{prefix}tp={tp}", f"{prefix}fn={fn}",
            f"{prefix}fp={fp}", f"{prefix}tn={tn}",
            f"{prefix}n_test={self.n_test}",
            f"{prefix}majority_class={self.majority_class}",
            f"{prefix}majority_accuracy={self.majority_accuracy!r}",
        ]
        for c in self.classes:
            lines.append(f"{prefix}precision.{c}={self.precision[c]!r}")
            lines.append(f"{prefix}recall.{c}={self.recall[c]!r}")
            lines.append(f"{prefix}f.{c}={self.f_measure[c]!r}")
        return lines

    def text(self, title="metrics") -> str:
        tp, fn = self.confusion[0]
        fp, tn = self.confusion[1]
        lines = [
            f"== {title} ==",
            f"test rows: {self.n_test}",
            f"accuracy: {self.accuracy:.4f}",
            f"confusion (truth x prediction, positive={self.positive_class}): "
            f"[[{tp}, {fn}], [{fp}, {tn}]]",
        ]
        for c in self.classes:
            tag = " (majority)" if c == self.majority_class else ""
            lines.append(
                f"class {c}{tag}: precision {self.precision[c]:.4f}, "
                f"recall {self.recall[c]:.4f}, F {self.f_measure[c]:.4f}"
            )
        lines.append(f"macro F: {self.macro_f:.4f}")
        lines.append(
            f"always-majority baseline accuracy: {self.majority_accuracy:.4f}"
        )
        return "\n".join(lines) + "\n"


def split(data: Dataset, ratio=0.7, seed=0) -> Split:
    """Seeded stratified train/test partition; |train| = round(ratio * N)
    exactly.

    Each class is allocated its share by largest remainder, so the class
    proportions survive within rounding; a class that would vanish from
    either side is a DataError.
    """
    n = data.n_rows
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    if n < 2:
        raise DataError("need at least two rows to split")
    n_train = int(round(ratio * n))
    if n_train < 1 or n_train >= n:
        raise DataError(f"ratio {ratio} leaves an empty side for {n} rows")

    rng = np.random.default_rng(seed)
    labels = np.asarray(data.labels, dtype=object)
    codes = sorted(set(data.labels))
    groups = {c: np.flatnonzero(labels == c) for c in codes}
    quota = {c: ratio * groups[c].size for c in codes}
    alloc = {c: int(np.floor(quota[c])) for c in codes}
    remainder = n_train - sum(alloc.values())
    for c in sorted(codes, key=lambda c: (-(quota[c] - np.floor(quota[c])), c)):
        if remainder <= 0:
            break
        alloc[c] += 1
        remainder -= 1

    train_parts, test_parts = [], []
    for c in codes:
        idx = groups[c]
        t = alloc[c]
        if t == 0 or t == idx.size:
            raise DataError(
                f"stratified split leaves class {c!r} absent from one side"
            )
        shuffled = idx[rng.permutation(idx.size)]
        train_parts.append(shuffled[:t])
        test_parts.append(shuffled[t:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return Split(train, test)


def take(data: Dataset, indices) -> Dataset:
    indices = np.asarray(indices, dtype=int)
    return replace(data, features=data.features[indices],
                   labels=tuple(data.labels[i] for i in indices))


def compute_metrics(predictions, truth, positive_class) -> MetricsReport:
    predictions = list(predictions)
    truth = list(truth)
    if len(predictions) != len(truth) or not truth:
        raise ValueError("predictions and truth must have equal nonzero length")
    classes = sorted(set(truth) | {positive_class})
    if len(classes) != 2:
        raise DataError(f"expected exactly two class codes, found {classes}")
    stray = sorted(set(predictions) - set(classes))
    if stray:
        raise DataError(f"prediction label {stray[0]!r} outside classes {classes}")
    pos = positive_class
    neg = classes[0] if classes[1] == pos else classes[1]

    cells = Counter(zip(truth, predictions))  # (truth, prediction) pairs
    tp, fn = cells[pos, pos], cells[pos, neg]
    fp, tn = cells[neg, pos], cells[neg, neg]
    n = len(truth)
    confusion = np.array([[tp, fn], [fp, tn]], dtype=np.int64)

    def prf(tp_, fp_, fn_):
        p = tp_ / (tp_ + fp_) if tp_ + fp_ else 0.0
        r = tp_ / (tp_ + fn_) if tp_ + fn_ else 0.0
        f = 2.0 * p * r / (p + r) if p + r else 0.0
        return p, r, f

    p_pos, r_pos, f_pos = prf(tp, fp, fn)
    p_neg, r_neg, f_neg = prf(tn, fn, fp)
    precision = {pos: p_pos, neg: p_neg}
    recall = {pos: r_pos, neg: r_neg}
    f_measure = {pos: f_pos, neg: f_neg}

    counts = Counter(truth)
    majority = min(counts, key=lambda c: (-counts[c], c))
    return MetricsReport(
        accuracy=(tp + tn) / n,
        confusion=confusion,
        classes=tuple(classes),
        positive_class=pos,
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        macro_f=0.5 * (f_pos + f_neg),
        majority_class=majority,
        majority_accuracy=counts[majority] / n,
        n_test=n,
    )


def calibrate_threshold(crisp, truth, low_code) -> float:
    """The decision threshold that maximizes the F-measure of `low_code`
    (the majority class; rows scored >= threshold get the other class).

    Exact: every distinct finite score is one cut, all rows with that score
    landing on the same side, and one more cut above the top score sends
    every row low.  Rows below a cut are counted from cumulative class
    counts over the sorted scores.  Ties go to the smallest threshold.  A
    non-finite score (NaN: no rule fired) always counts as low, matching
    the flagged-fallback label.  Returns the winning cut's score, or
    ``nextafter(top score, inf)`` for the all-low cut, so it is finite.
    Raises DataError when no score is finite.
    """
    crisp = np.asarray(crisp, dtype=float)
    is_low = np.array([t == low_code for t in truth], dtype=bool)
    finite = np.isfinite(crisp)
    if not finite.any():
        raise DataError("no training row has a finite crisp score")
    order = np.argsort(crisp[finite], kind="stable")
    scores, low = crisp[finite][order], is_low[finite][order]
    firsts = np.flatnonzero(np.r_[True, scores[1:] != scores[:-1]])
    below = np.r_[firsts, scores.size]  # finite rows below each cut
    # low-predicted rows: m of them, tp truly low; F = 2 tp / (tp + m + n_low)
    tp = np.r_[0, np.cumsum(low)][below] + int(is_low[~finite].sum())
    m = below + int((~finite).sum())
    f = 2.0 * tp / np.maximum(tp + m + int(is_low.sum()), 1)
    best = int(np.argmax(f))  # the first maximum: the smallest threshold
    if best == firsts.size:
        return float(np.nextafter(scores[-1], np.inf))
    return float(scores[firsts[best]])


def _binary_columns(X: np.ndarray) -> np.ndarray:
    return ((X == 0.0) | (X == 1.0)).all(axis=0)


def baseline_nb(train: Dataset, test: Dataset) -> list:
    """Naive Bayes: Bernoulli (Laplace, alpha = 1) on binary columns,
    Gaussian else.

    Returns argmax-posterior labels for the test rows; posterior ties go to
    the lexicographically smaller class code.
    """
    Xtr, Xte = train.features, test.features
    if Xte.shape[1] != Xtr.shape[1]:
        raise DataError("train and test feature counts differ")
    classes = sorted(set(train.labels))
    if len(classes) != 2:
        raise DataError(f"need two classes in training data, found {classes}")
    labels = np.asarray(train.labels, dtype=object)

    is_bin = _binary_columns(Xtr)
    B, C = Xtr[:, is_bin], Xtr[:, ~is_bin]
    Bt, Ct = Xte[:, is_bin], Xte[:, ~is_bin]

    log_post = np.zeros((Xte.shape[0], 2))
    for ci, c in enumerate(classes):
        rows = labels == c
        nc = int(rows.sum())
        log_post[:, ci] = np.log(nc / Xtr.shape[0])
        if B.shape[1]:
            p1 = (B[rows].sum(axis=0) + 1.0) / (nc + 2.0)
            log_post[:, ci] += Bt @ np.log(p1) + (1.0 - Bt) @ np.log1p(-p1)
        if C.shape[1]:
            mu = C[rows].mean(axis=0)
            var = np.maximum(C[rows].var(axis=0), 1e-9)
            z2 = (Ct - mu) ** 2 / var
            log_post[:, ci] += (-0.5 * (z2 + np.log(2.0 * np.pi * var))).sum(axis=1)

    best = np.argmax(log_post, axis=1)  # argmax takes the first (smaller code) on ties
    return [classes[i] for i in best]


def baseline_knn(train: Dataset, test: Dataset, k=5) -> list:
    """k-nearest-neighbor vote over Euclidean distance.

    Non-binary columns are min-max scaled to [0, 1] with training statistics.
    Equal distances prefer the lower training-row index.  The class with the
    most votes wins; when the top count is shared, the single nearest
    neighbor's label decides, even if its class is not among the tied ones
    (possible with three or more classes).

    Ties are exact when every feature value of both shares is a finite
    integer and the integer key of ``_integer_key_blocks`` fits a float32
    (the covid schema: 0/1 flags and an integer age): the neighbours are
    then ordered by exact distance, then by row index.  Otherwise the
    distances are float64 expansions |t|^2 - 2 t.x + |x|^2 of the scaled
    values, whose rounding can order two mathematically equal distances
    either way, so float rounding settles such ties.

    The n test rows are scored in max(1, n // rows) blocks whose sizes
    differ by at most one row, so every block has at least ``rows =
    knn_block_rows(training rows)`` rows, or all n when n is smaller.
    Beyond ``KNN_FORK_PAIRS`` (test x training) pairs, contiguous ranges of
    whole blocks are spread over forked workers, one per CPU, through
    ``parallel.fork_map``.  The workers score the same blocks, so they do
    not change the result; nor does the block height on the exact
    integer-key path.  On the float64 path a BLAS product can round a row
    differently at another block height, which can move a tie.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > train.n_rows:
        raise DataError(f"k={k} exceeds the {train.n_rows} training rows")
    Xtr = np.ascontiguousarray(train.features)
    Xte = np.ascontiguousarray(test.features)
    if Xte.shape[1] != Xtr.shape[1]:
        raise DataError("train and test feature counts differ")

    scale_cols = ~_binary_columns(Xtr)
    block = (_integer_key_blocks(Xtr, Xte, scale_cols)
             or _scaled_blocks(Xtr, Xte, scale_cols))

    classes = sorted(set(train.labels))
    code = {c: i for i, c in enumerate(classes)}
    ytr = np.array([code[l] for l in train.labels], dtype=np.int64)

    n = Xte.shape[0]
    n_blocks = max(1, n // knn_block_rows(Xtr.shape[0]))
    edges = [i * n // n_blocks for i in range(n_blocks + 1)]
    workers = (parallel.workers(n_blocks)
               if n * Xtr.shape[0] > KNN_FORK_PAIRS else 1)
    # a few ranges per worker, so that one slowed worker holds up little
    per = -(-n_blocks // (4 * workers))
    ranges = [tuple(edges[i:i + per + 1]) for i in range(0, n_blocks, per)]
    winners = parallel.fork_map(_knn_winners, (block, ytr, k, len(classes)),
                                ranges, workers)
    return [classes[i] for i in np.concatenate(winners)]


def knn_block_rows(n_train: int) -> int:
    """Test rows per KNN block against `n_train` training rows: as many as
    keep the block within ``KNN_BLOCK_CELLS``, but at least
    ``KNN_MIN_ROWS``."""
    return max(KNN_MIN_ROWS, KNN_BLOCK_CELLS // n_train)


def _knn_winners(block, ytr, k, n_classes, edges):
    """Winning class codes (int64) of the test rows edges[0]:edges[-1],
    one distance block per pair of consecutive edges."""
    class_ids = np.arange(n_classes)
    out = []
    for start, stop in zip(edges[:-1], edges[1:]):
        # (rows, k) class codes of the nearest training rows, nearest first
        votes = ytr[kernels.topk_select(block(start, stop), k)]
        counts = (votes[:, :, None] == class_ids).sum(axis=1)
        unique = (counts == counts.max(axis=1)[:, None]).sum(axis=1) == 1
        out.append(np.where(unique, counts.argmax(axis=1), votes[:, 0]))
    return np.concatenate(out)


def _integer_key_blocks(Xtr, Xte, scale_cols):
    """Distance blocks of exact integer keys L * d^2, or None where they
    would not be exact.

    With every value a finite integer, L the lcm of the scaled columns'
    squared ranges and w_j = L / rng_j^2 (L on binary columns), L * d^2 =
    sum_j w_j (t_j - x_j)^2 is an integer.  It is formed as |t|_w^2 -
    2 t.x_w + |x|_w^2, with the scaled columns shifted by their train
    minimum to keep the values small, in one float32 product whose two
    extra columns carry the norms.  While 4 sum_j w_j max|x_j|^2 <= 2^24,
    every product and partial sum of it is an integer that float32 holds
    exactly, whatever the BLAS summation order, so the key orders the rows
    by exact distance.  Returns ``block(start, stop)``, the (stop - start,
    training rows) float32 keys of those test rows, or None when a value is
    not a finite integer or the bound fails.
    """
    for X in (Xtr, Xte):
        if not (np.isfinite(X).all() and (X == np.rint(X)).all()):
            return None
    lo = np.where(scale_cols, Xtr.min(axis=0), 0.0)
    Str, Ste = Xtr - lo, Xte - lo
    # Python ints: the lcm and the bound may exceed every fixed-width type
    span = [max(int(r), 1) for r in Str.max(axis=0)]
    lcm = math.lcm(*(r * r for r, s in zip(span, scale_cols) if s))
    w = [lcm // (r * r) if s else lcm for r, s in zip(span, scale_cols)]
    top = np.maximum(np.abs(Str).max(axis=0),
                     np.abs(Ste).max(axis=0, initial=0.0))
    if 4 * sum(wj * int(m) ** 2 for wj, m in zip(w, top)) > _F32_EXACT:
        return None
    w = np.array(w, dtype=np.float64)
    # [-2 w t, |t|_w^2, 1] @ [x; 1; |x|_w^2]; the operands are formed in
    # float64, where every term and sum is an integer below 2^24, so they
    # reach float32 unrounded
    A = np.column_stack([-2.0 * w * Ste, (Ste * Ste) @ w,
                         np.ones(len(Ste))]).astype(np.float32)
    Bt = np.vstack([Str.T, np.ones(len(Str)),
                    (Str * Str) @ w]).astype(np.float32)
    return lambda start, stop: A[start:stop] @ Bt


def _scaled_blocks(Xtr, Xte, scale_cols):
    """Distance blocks of float64 squared distances, the non-binary columns
    min-max scaled with training statistics: ``block(start, stop)`` gives
    the (stop - start, training rows) distances of those test rows."""
    if scale_cols.any():
        lo = Xtr[:, scale_cols].min(axis=0)
        rng = Xtr[:, scale_cols].max(axis=0) - lo
        rng[rng == 0.0] = 1.0
        Xtr = Xtr.copy()
        Xte = Xte.copy()
        Xtr[:, scale_cols] = (Xtr[:, scale_cols] - lo) / rng
        Xte[:, scale_cols] = (Xte[:, scale_cols] - lo) / rng
    # scaling by -2 is exact, so each product equals -2 * (T @ Xtr.T)
    A, te_norm = -2.0 * Xte, (Xte * Xte).sum(axis=1)
    tr_norm = (Xtr * Xtr).sum(axis=1)

    def block(start, stop):
        # d2 = |t|^2 - 2 t.x + |x|^2, built in place in the product's buffer
        d2 = A[start:stop] @ Xtr.T
        d2 += te_norm[start:stop, None]
        d2 += tr_norm
        return np.maximum(d2, 0.0, out=d2)

    return block
