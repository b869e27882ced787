"""Center-of-sets inference engine: firing, type reduction, predict.

Firing uses singleton fuzzification with the product t-norm.  Outputs go
through Karnik-Mendel center-of-sets type reduction; the crisp score is the
midpoint of [y_l, y_r].  A type-1 base is the same system with zero-width
intervals: its firings are passed as both bounds, so its interval is
degenerate and no reduction of its own exists.

Center-of-sets centroids: each rule's centroid is its crisp consequent
mean.  The stored consequent sigmas enter no score, here or in tuning,
although an interval type-2 Gaussian consequent has a centroid interval of
non-zero width centered on its mean (tests/oracles.set_centroid_interval
computes it); that interval is taken as its midpoint.

There is one engine, ``_score``: ``predict_batch`` runs it on a matrix and
``predict`` on one row, so the two agree bit for bit.  It works on log
firing strengths shifted by each row's maximum upper log firing before
exponentiation.  The crisp score and the type-reduced interval are ratios
of firing strengths, hence invariant to that positive rescaling, so the
shift changes nothing except that 27-feature products no longer underflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DataError, NoCoverageError
from .preprocess import reject_non_finite
from .rules import RuleBase

# Cell budget of one (rows, stacked rules, features) temporary of the
# firing: 2**16 doubles, 512 KiB.  The engine fires its rows in blocks of
# that size, so the temporaries stay in cache however many rows a batch has.
FIRING_BLOCK_CELLS = 2 ** 16


@dataclass(frozen=True)
class TypeReducedInterval:
    y_l: float
    y_r: float
    crisp: float
    # None from `predict` on a type-1 base (or a type-2 one of zero spread):
    # its intervals are degenerate, every split gives the same bounds, and
    # the splits KM picks are rounding noise
    switch_points: tuple[int, int] | None

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
    no rule fires).  This is the validating entry for callers outside the
    engine; the engine's own firings meet these checks by construction and
    go to the kernel directly.
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
    crisp = 0.5 * (y_l + y_r)
    # the inputs are finite, so a non-finite result is an overflow
    if not np.isfinite([y_l, y_r, crisp]).all():
        raise ValueError(f"type reduction overflowed: y_l={y_l!r}, "
                         f"y_r={y_r!r}, crisp={crisp!r}")
    return TypeReducedInterval(
        y_l=y_l,
        y_r=y_r,
        crisp=crisp,
        switch_points=(int(k_l[0]), int(k_r[0])),
    )


def _resolve_threshold(rb: RuleBase) -> float:
    if rb.threshold is not None:
        return float(rb.threshold)
    return 0.5 * float(rb.cons_mean.min() + rb.cons_mean.max())


def _checked(rb: RuleBase, X) -> np.ndarray:
    # the one input check of predict and predict_batch: X is (rows, features)
    X = np.ascontiguousarray(X, dtype=float)
    if X.shape[1] != rb.n_features:
        raise DataError(
            f"input has {X.shape[1]} features; rule base expects {rb.n_features}"
        )
    # nan/inf cannot be scored; "flagged" is kept for finite inputs whose
    # firing overflows or underflows
    reject_non_finite(X, rb.variable_names)
    return X


def _score(rb: RuleBase, X):
    """Fire and reduce the checked (rows, features) matrix X.

    Returns (y_l, y_r, k_l, k_r, covered), one entry per row.  The firing
    takes ``rb.firing_stack``: a type-2 base fires its lower over its upper
    sigmas in one ``kernels.log_firing`` pass per block of at most
    ``FIRING_BLOCK_CELLS`` cells, and a type-1 base passes its one set of
    firings as both bounds.  Each row is shifted by its upper maximum.  A
    row that no rule fires on (every upper square overflows) is uncovered:
    it is shifted by 0, so it fires nothing, and its bounds are NaN.
    """
    means, sigmas, cents = rb.firing_stack
    n, r = X.shape[0], cents.size
    rows = max(1, FIRING_BLOCK_CELLS // sigmas.size)
    if n <= rows:
        logf = kernels.log_firing(X, means, sigmas)
    else:  # log_firing sums each (row, rule) pair alone: blocks change no bit
        logf = np.empty((n, sigmas.shape[0]))
        for start in range(0, n, rows):
            logf[start:start + rows] = kernels.log_firing(
                X[start:start + rows], means, sigmas)
    shift = logf[:, -r:].max(axis=1)
    covered = np.isfinite(shift)
    all_covered = covered.all()
    if not all_covered:
        shift[~covered] = 0.0  # exp(-inf - 0) = 0
    fir = np.exp(logf.T - shift)
    y_l, y_r, k_l, k_r = kernels.km_batch(fir[:r], fir[-r:], cents)
    if not all_covered:
        y_l[~covered] = np.nan
        y_r[~covered] = np.nan
    return y_l, y_r, k_l, k_r, covered


def predict(rb: RuleBase, x) -> Prediction:
    """Classify one input vector: ``predict_batch`` on one row, bit for bit.

    The crisp score is the midpoint of the Karnik-Mendel interval [y_l, y_r],
    returned with its switch points.  A type-1 base (or a type-2 one of zero
    spread) has a degenerate interval and no switch points (None).  Label
    is the high class exactly when crisp >= the model's threshold (the
    midpoint of the consequent means when it has none).  When no rule fires
    (vanishing firing after underflow) the prediction falls back to the
    majority training class (the low label) with flagged=True, a NaN crisp
    score and no interval.  A nan or inf feature raises DataError instead.
    """
    X = _checked(rb, np.asarray(x, dtype=float).reshape(1, -1))
    thr = _resolve_threshold(rb)
    y_l, y_r, k_l, k_r, covered = _score(rb, X)
    if not covered[0]:
        return Prediction(crisp=float("nan"), label=rb.label_low,
                          threshold=thr, interval=None, flagged=True)
    y_l, y_r = float(y_l[0]), float(y_r[0])
    switch = None if rb.zero_width else (int(k_l[0]), int(k_r[0]))
    tri = TypeReducedInterval(y_l=y_l, y_r=y_r, crisp=0.5 * (y_l + y_r),
                              switch_points=switch)
    label = rb.label_high if tri.crisp >= thr else rb.label_low
    return Prediction(crisp=tri.crisp, label=label, threshold=thr,
                      interval=tri, flagged=False)


def predict_batch(rb: RuleBase, X) -> BatchPredictions:
    """``predict`` over the rows of a feature matrix; one output row per input.

    Raises DataError on a non-finite cell, naming its feature and row.  The
    outputs equal single-row ``predict`` bit for bit (``_score`` is the one
    firing and reduction path); the switch points are dropped.
    """
    X = _checked(rb, np.atleast_2d(X))
    thr = _resolve_threshold(rb)
    y_l, y_r, _, _, covered = _score(rb, X)
    crisp = 0.5 * (y_l + y_r)
    labels = [rb.label_high if h else rb.label_low for h in crisp >= thr]
    return BatchPredictions(crisp=crisp, y_l=y_l, y_r=y_r, labels=labels,
                            flagged=~covered, threshold=thr)
