"""Center-of-sets inference engine: firing, type reduction, predict.

Firing uses singleton fuzzification with the product t-norm.  Interval type-2
outputs go through Karnik-Mendel center-of-sets type reduction; the crisp
score is the midpoint of [y_l, y_r].  Type-1 bases use the same center-of-sets
ratio with degenerate intervals.

Center-of-sets centroids: a symmetric Gaussian consequent has a centroid
interval centered exactly on its mean, so the consequent means are used as
the rule centroids directly (no discretization error).

Batch paths work on log firing strengths shifted by the per-sample maximum
before exponentiation.  The crisp score and the type-reduced interval are
ratios of firing strengths, hence invariant to that positive rescaling, so
the shift changes nothing except that 27-feature products no longer underflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DataError, NoCoverageError
from .preprocess import reject_non_finite
from .rules import KIND_IT2, RuleBase

# Cell budget of one (rows, rules, features) temporary of the batch firing:
# 2**16 doubles, 512 KiB.  predict_batch fires its rows in blocks of that
# size, so the temporaries stay in cache however many rows a batch has.
FIRING_BLOCK_CELLS = 2 ** 16


@dataclass(frozen=True)
class TypeReducedInterval:
    y_l: float
    y_r: float
    crisp: float
    switch_points: tuple[int, int]

    def __post_init__(self):
        if not (self.y_l <= self.crisp <= self.y_r):
            raise ValueError("type-reduced interval needs y_l <= crisp <= y_r")


@dataclass(frozen=True)
class Prediction:
    crisp: float
    label: str
    threshold: float
    interval: TypeReducedInterval | None
    flagged: bool = False


@dataclass(frozen=True)
class BatchPredictions:
    """Column-oriented predictions for a whole feature matrix."""

    crisp: np.ndarray
    y_l: np.ndarray
    y_r: np.ndarray
    labels: list
    flagged: np.ndarray
    threshold: float


def _check_input(rb: RuleBase, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.size != rb.n_features:
        raise DataError(
            f"input vector has {x.size} features; rule base expects {rb.n_features}"
        )
    # nan/inf cannot be scored; "flagged" is kept for finite inputs whose
    # firing overflows or underflows
    reject_non_finite(x[None, :], rb.variable_names)
    return x


def _log_fire(x, means, sigmas):
    # log of the product-t-norm firing: -1/2 sum_f ((x_f - m)/sigma)^2,
    # one sum per rule (sigmas may stack several (rules, features) matrices;
    # each row is summed alone, so stacking changes no bit); an overflowing
    # square is deliberate (it marks the sample uncovered)
    with np.errstate(over="ignore"):
        z = (x[None, :] - means) / sigmas
        return -0.5 * (z * z).sum(axis=-1)


def km_reduce(firings, centroids) -> TypeReducedInterval:
    """Karnik-Mendel center-of-sets type reduction.

    y_l minimizes and y_r maximizes sum(f_s * c_s) / sum(f_s) over
    f_s in [lower_s, upper_s].  The optimum of this linear-fractional
    objective sits at a switch point of the ascending-centroid order, so all
    n+1 switch splits are evaluated and the extremes taken; this is exact and
    needs no convergence test.  The returned switch points count, in
    ascending-centroid order, how many rules take their upper firing from the
    left (y_l) and how many take their lower firing from the left (y_r).

    `firings` is an (n, 2) array-like of [lower, upper] rows.  Raises
    NoCoverageError when every upper firing is zero (the ratio is undefined:
    no rule fires).  This is the validating entry for firings from outside
    the engine (set centroids, API callers); `predict` builds its firings to
    satisfy these checks and calls the kernel itself.
    """
    fir = np.asarray(firings, dtype=float)
    if fir.ndim != 2 or fir.shape[1] != 2:
        raise ValueError("firings must be an (n, 2) array of [lower, upper] rows")
    cents = np.asarray(centroids, dtype=float).ravel()
    if fir.shape[0] != cents.size:
        raise ValueError(
            f"{fir.shape[0]} firing intervals for {cents.size} centroids"
        )
    if cents.size < 1:
        raise ValueError("need at least one rule")
    if not np.isfinite(fir).all() or not np.isfinite(cents).all():
        raise ValueError("firings and centroids must be finite")
    lo, up = fir[:, 0], fir[:, 1]
    if (lo < 0).any() or (lo > up).any():
        raise ValueError("firing intervals must satisfy 0 <= lower <= upper")
    # the kernels flush sub-normal weights to zero (their ratios are
    # unreliable); apply the same rule before the coverage check so an
    # all-denormal input raises rather than dividing by nothing
    lo = np.where(lo < kernels.TINY, 0.0, lo)
    up = np.where(up < kernels.TINY, 0.0, up)
    if not (up > 0).any():
        raise NoCoverageError("no rule fires: all upper firing strengths are zero")

    order = np.argsort(cents, kind="stable")
    y_l, y_r, k_l, k_r = kernels.km_batch(
        lo[order][:, None], up[order][:, None], cents[order])
    y_l, y_r = float(y_l[0]), float(y_r[0])
    return TypeReducedInterval(
        y_l=y_l,
        y_r=y_r,
        crisp=0.5 * (y_l + y_r),
        switch_points=(int(k_l[0]), int(k_r[0])),
    )


def _resolve_threshold(rb: RuleBase, threshold) -> float:
    if threshold is not None:
        return float(threshold)
    if rb.threshold is not None:
        return float(rb.threshold)
    return 0.5 * float(rb.cons_mean.min() + rb.cons_mean.max())


def _fallback(rb: RuleBase, thr: float) -> Prediction:
    # no rule fires (underflow): majority training class, flagged
    return Prediction(
        crisp=float("nan"), label=rb.label_low, threshold=thr,
        interval=None, flagged=True,
    )


def _log_firing_blocks(X, means, sigmas) -> np.ndarray:
    # kernels.log_firing over row blocks of at most FIRING_BLOCK_CELLS cells;
    # it sums each (row, rule) pair alone, so the blocks change no bit
    rows = max(1, FIRING_BLOCK_CELLS // sigmas.size)
    out = np.empty((X.shape[0], sigmas.shape[0]))
    for start in range(0, X.shape[0], rows):
        out[start:start + rows] = kernels.log_firing(
            X[start:start + rows], means, sigmas)
    return out


def predict(rb: RuleBase, x, threshold=None) -> Prediction:
    """Classify one input vector.

    IT2 path: firing intervals -> Karnik-Mendel reduction over consequent
    means -> interval midpoint.  T1 path: the same center-of-sets ratio with
    degenerate intervals.  Label is the high class exactly when crisp >=
    threshold.  When no rule fires (vanishing firing after underflow) the
    prediction falls back to the majority training class (the low label)
    with flagged=True and a NaN crisp score.  A nan or inf feature raises
    DataError instead.

    The lower and upper log firings come from one pass over the stacked
    sigma matrices and are shifted by the upper maximum, so the upper firings
    peak at exactly 1.  The reduction calls ``kernels.km_batch`` on one
    column directly: ``km_reduce``'s checks (finite firings, 0 <= lower <=
    upper, some upper firing positive) hold here by construction, and its
    result is the same bit for bit.
    """
    x = _check_input(rb, x)
    thr = _resolve_threshold(rb, threshold)

    it2 = rb.kind == KIND_IT2
    if it2:  # lower over upper
        sig = np.concatenate((rb.sigma_lower, rb.sigma_upper))
        sig = sig.reshape(2, rb.n_rules, rb.n_features)
    else:
        sig = rb.sigma_upper[None]
    logf = _log_fire(x, rb.means, sig)
    shift = logf[-1].max()
    if not np.isfinite(shift):
        return _fallback(rb, thr)
    fir = np.exp(logf - shift)
    order = np.argsort(rb.cons_mean, kind="stable")
    fir = fir[:, order, None]
    y_l, y_r, k_l, k_r = kernels.km_batch(fir[0], fir[-1], rb.cons_mean[order])
    y_l, y_r = float(y_l[0]), float(y_r[0])
    tri = TypeReducedInterval(y_l=y_l, y_r=y_r, crisp=0.5 * (y_l + y_r),
                              switch_points=(int(k_l[0]), int(k_r[0])))
    label = rb.label_high if tri.crisp >= thr else rb.label_low
    return Prediction(crisp=tri.crisp, label=label, threshold=thr,
                      interval=tri, flagged=False)


def predict_batch(rb: RuleBase, X, threshold=None) -> BatchPredictions:
    """Vectorized predict over a feature matrix; one output row per input.

    Raises DataError on a non-finite cell, naming its feature and row.
    Rows are fired in blocks of at most ``FIRING_BLOCK_CELLS`` (rows x rules
    x features) cells; the blocks do not change the result.
    """
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)))
    if X.shape[1] != rb.n_features:
        raise DataError(
            f"input rows have {X.shape[1]} features; rule base expects {rb.n_features}"
        )
    reject_non_finite(X, rb.variable_names)
    thr = _resolve_threshold(rb, threshold)
    n = X.shape[0]
    if n == 0:
        empty = np.empty(0)
        return BatchPredictions(empty, empty.copy(), empty.copy(), [],
                                np.zeros(0, dtype=bool), thr)

    logu = _log_firing_blocks(X, rb.means, rb.sigma_upper)
    shift = logu.max(axis=1)
    covered = np.isfinite(shift)

    crisp = np.full(n, np.nan)
    y_l = np.full(n, np.nan)
    y_r = np.full(n, np.nan)

    if covered.any():
        idx = np.flatnonzero(covered)
        with np.errstate(invalid="ignore"):
            up = np.exp(logu[idx] - shift[idx, None])
        if rb.kind == KIND_IT2:
            logl = _log_firing_blocks(X[idx], rb.means, rb.sigma_lower)
            lo = np.exp(logl - shift[idx, None])
            order = np.argsort(rb.cons_mean, kind="stable")
            yl, yr, _, _ = kernels.km_batch(
                lo.T[order], up.T[order], rb.cons_mean[order])
            y_l[idx], y_r[idx] = yl, yr
            crisp[idx] = 0.5 * (yl + yr)
        else:
            c = up @ rb.cons_mean / up.sum(axis=1)
            crisp[idx] = c
            y_l[idx] = c
            y_r[idx] = c

    with np.errstate(invalid="ignore"):
        high = crisp >= thr
    labels = [rb.label_high if h else rb.label_low for h in high]
    return BatchPredictions(crisp=crisp, y_l=y_l, y_r=y_r, labels=labels,
                            flagged=~covered, threshold=thr)
