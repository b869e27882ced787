"""Train/test splitting, classification metrics, and the two baselines.

The split is seeded and stratified by default (the class balance here is
roughly 9:1, so plain shuffling adds avoidable variance).  Metrics come from
exact confusion-matrix arithmetic with the F convention F = 0 when P + R = 0.
Reports carry both per-class F values; with heavy imbalance the headline
F-measure belongs to the majority class, so the majority code is recorded
explicitly alongside the accuracy a constant majority predictor would get.

Baselines: a mixed Naive Bayes (Bernoulli with Laplace smoothing on binary
columns, Gaussian on the rest) and a k-nearest-neighbor classifier with
non-binary columns min-max scaled by training statistics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DataError
from .preprocess import Dataset

# Cell budget of one KNN distance block: 2**22 doubles, 32 MiB.  The block and
# the selection's temporaries (a partitioned copy, a mask) then stay within a
# small multiple of it, however many test rows there are.
KNN_BLOCK_CELLS = 2 ** 22


@dataclass(frozen=True)
class Split:
    train_indices: np.ndarray
    test_indices: np.ndarray
    ratio: float
    seed: int


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


def split(data: Dataset, ratio=0.7, seed=0, stratified=True) -> Split:
    """Seeded train/test partition; |train| = round(ratio * N) exactly.

    Stratified mode allocates per class by largest remainder so the class
    proportions survive within rounding, and errors out when any class
    would vanish from either side.
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
    if not stratified:
        perm = rng.permutation(n)
        train = np.sort(perm[:n_train])
        test = np.sort(perm[n_train:])
        return Split(train, test, float(ratio), seed)

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
    return Split(train, test, float(ratio), seed)


def take(data: Dataset, indices) -> Dataset:
    indices = np.asarray(indices, dtype=int)
    return Dataset(
        features=data.features[indices],
        labels=tuple(data.labels[i] for i in indices),
        feature_names=data.feature_names,
        label_name=data.label_name,
    )


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

    tp = sum(1 for p, t in zip(predictions, truth) if t == pos and p == pos)
    fn = sum(1 for p, t in zip(predictions, truth) if t == pos and p == neg)
    fp = sum(1 for p, t in zip(predictions, truth) if t == neg and p == pos)
    tn = sum(1 for p, t in zip(predictions, truth) if t == neg and p == neg)
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


def calibrate_threshold(crisp, truth, low_code, lo, hi, n_points=101) -> float:
    """Sweep n_points thresholds over [lo, hi] and keep the one maximizing
    the F-measure of `low_code` (the majority class, scored >= threshold as
    the other class).  Ties go to the smallest threshold.  NaN crisp scores
    compare as below-threshold, matching the flagged-fallback label.
    """
    crisp = np.asarray(crisp, dtype=float)
    is_low = np.array([t == low_code for t in truth])
    n_low = int(is_low.sum())
    best_f, best_t = -1.0, float(lo)
    with np.errstate(invalid="ignore"):
        for t in np.linspace(lo, hi, n_points):
            pred_low = ~(crisp >= t)
            tp = int((pred_low & is_low).sum())
            fp = int((pred_low & ~is_low).sum())
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / n_low if n_low else 0.0
            f = 2.0 * p * r / (p + r) if p + r else 0.0
            if f > best_f:
                best_f, best_t = f, float(t)
    return best_t


def _binary_columns(X: np.ndarray) -> np.ndarray:
    return np.array([set(np.unique(X[:, j])) <= {0.0, 1.0}
                     for j in range(X.shape[1])])


def baseline_nb(train: Dataset, test: Dataset, alpha=1.0) -> list:
    """Naive Bayes: Bernoulli (Laplace alpha) on binary columns, Gaussian else.

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
            p1 = (B[rows].sum(axis=0) + alpha) / (nc + 2.0 * alpha)
            log_post[:, ci] += Bt @ np.log(p1) + (1.0 - Bt) @ np.log1p(-p1)
        if C.shape[1]:
            mu = C[rows].mean(axis=0)
            var = np.maximum(C[rows].var(axis=0), 1e-9)
            z2 = (Ct - mu) ** 2 / var
            log_post[:, ci] += (-0.5 * (z2 + np.log(2.0 * np.pi * var))).sum(axis=1)

    best = np.argmax(log_post, axis=1)  # argmax takes the first (smaller code) on ties
    return [classes[i] for i in best]


def baseline_knn(train: Dataset, test: Dataset, k=5, chunk=None) -> list:
    """k-nearest-neighbor vote over Euclidean distance.

    Non-binary columns are min-max scaled to [0, 1] with training statistics.
    Equal distances prefer the lower training-row index.  The class with the
    most votes wins; when the top count is shared, the single nearest
    neighbor's label decides, even if its class is not among the tied ones
    (possible with three or more classes).

    Test rows are scored in chunks whose (rows x training rows) distance block
    holds at most ``KNN_BLOCK_CELLS`` doubles; ``chunk``, when given, further
    caps the rows per chunk.  Chunking does not change the result.
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
    if scale_cols.any():
        lo = Xtr[:, scale_cols].min(axis=0)
        rng = Xtr[:, scale_cols].max(axis=0) - lo
        rng[rng == 0.0] = 1.0
        Xtr = Xtr.copy()
        Xte = Xte.copy()
        Xtr[:, scale_cols] = (Xtr[:, scale_cols] - lo) / rng
        Xte[:, scale_cols] = (Xte[:, scale_cols] - lo) / rng

    classes = sorted(set(train.labels))
    code = {c: i for i, c in enumerate(classes)}
    ytr = np.array([code[l] for l in train.labels], dtype=np.int64)
    class_ids = np.arange(len(classes))

    rows = max(1, KNN_BLOCK_CELLS // Xtr.shape[0])
    if chunk is not None:
        rows = min(rows, chunk)
    tr_norm = (Xtr * Xtr).sum(axis=1)
    winner = np.empty(Xte.shape[0], dtype=np.int64)
    for start in range(0, Xte.shape[0], rows):
        T = Xte[start:start + rows]
        # d2 = |t|^2 - 2 t.x + |x|^2, built in place in the product's buffer;
        # scaling T by -2 is exact, so the block equals -2 * (T @ Xtr.T)
        d2 = (-2.0 * T) @ Xtr.T
        d2 += (T * T).sum(axis=1)[:, None]
        d2 += tr_norm
        np.maximum(d2, 0.0, out=d2)
        votes = ytr[kernels.topk_select(d2, k)]  # (rows, k), nearest first
        counts = (votes[:, :, None] == class_ids).sum(axis=1)
        unique = (counts == counts.max(axis=1)[:, None]).sum(axis=1) == 1
        winner[start:start + rows] = np.where(unique, counts.argmax(axis=1),
                                              votes[:, 0])
    return [classes[i] for i in winner]
