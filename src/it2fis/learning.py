"""Rule extraction from fuzzy clusters and steepest-descent parameter tuning.

Extraction clusters the joint (features + encoded label) space, then projects
each cluster onto every variable as a weighted-Gaussian fit: the raw
projection of a fuzzy cluster is not convex, so the weighted mean / weighted
standard deviation (weights u^m) stand in as its convex approximation.

Tuning minimizes e = 1/2 (f(x) - y)^2.  The type-1 forward pass is the
centroid-weighted output; the interval type-2 forward pass is the
Karnik-Mendel interval midpoint, with gradients routed through the two
boundary type-1 systems picked out by the converged switch points.
Labels are encoded 1.0 (majority class) / 2.0 (minority class) so the crisp
output lives on a regression scale with a decision threshold applied later.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .clustering import fcm, gk
from .errors import DataError
from .rules import KIND_IT2, KIND_T1, RuleBase, t1_rule_base

SIGMA_FLOOR = 1e-6


@dataclass(frozen=True)
class TuneConfig:
    learning_rate: float = 0.01
    epochs: int = 100
    patience: int = 10

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive, "
                             f"got {self.learning_rate!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs!r}")
        if self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience!r}")


@dataclass(frozen=True)
class TuneTrace:
    """Per-epoch mean error and the epoch whose start parameters were returned."""

    epoch_error: np.ndarray
    best_epoch: int


def encode_labels(labels):
    """Map the two label codes to regression targets: majority 1.0, minority 2.0.

    Returns (targets, low_code, high_code).  A tie on class counts sends the
    lexicographically smaller code to 1.0.
    """
    labels = list(labels)
    counts = Counter(labels)
    if len(counts) != 2:
        raise DataError(
            f"need exactly two label codes, found {sorted(counts)}"
        )
    a, b = sorted(counts)
    low, high = (a, b) if counts[a] >= counts[b] else (b, a)
    y = np.where(np.asarray(labels, dtype=object) == low, 1.0, 2.0)
    return y, low, high


def targets_for(rb: RuleBase, labels) -> np.ndarray:
    """Encode labels with the rule base's existing low/high mapping."""
    labels = np.asarray(labels, dtype=object)
    low = labels == rb.label_low
    stray = ~(low | (labels == rb.label_high))
    if stray.any():
        raise DataError(f"label {labels[np.argmax(stray)]!r} is neither "
                        f"{rb.label_low!r} nor {rb.label_high!r}")
    return np.where(low, 1.0, 2.0)


def extract_rules(data, c, seed=0) -> RuleBase:
    """Build a type-1 rule base with one rule per cluster of the joint space.

    FCM partitions the joint (features, encoded label) space; GK then refines
    that partition (warm-started from it) unless its covariances are singular
    even after regularization, in which case the FCM memberships are kept and
    the fallback is recorded in the provenance.  Rules are ordered by
    ascending consequent mean.
    """
    X = data.features
    if X.shape[0] == 0:
        raise DataError("need a non-empty feature matrix")
    y, low, high = encode_labels(data.labels)
    Z = np.column_stack([X, y])

    part = fcm(Z, c, seed=seed)
    method = "gk"
    try:
        part = gk(Z, c, seed=seed, u0=part.U)
    except DataError:
        method = "fcm-fallback"

    w = kernels.fuzzy_weights(part.U, part.m)  # (c, n)
    mass = w.sum(axis=1)
    if (mass < 1e-12).any():
        i = int(np.argmin(mass))
        raise DataError(f"cluster {i} has vanishing membership mass")

    g = X.shape[1]
    means = (w @ Z) / mass[:, None]  # (c, g+1)
    var = np.empty_like(means)
    for i in range(means.shape[0]):
        var[i] = (w[i] @ (Z - means[i]) ** 2) / mass[i]
    sig = np.sqrt(np.clip(var, 0.0, None))
    sig = np.maximum(sig, SIGMA_FLOOR)

    order = np.argsort(means[:, g], kind="stable")
    return t1_rule_base(
        means[order, :g], sig[order, :g], means[order, g], sig[order, g],
        variable_names=data.feature_names, label_low=low, label_high=high,
        provenance=(
            ("clustering", method),
            ("cluster_count", str(c)),
            ("fuzziness", repr(float(part.m))),
            ("seed", str(seed)),
        ),
    )


def widen_to_it2(rb: RuleBase, spread=0.2) -> RuleBase:
    """Widen a type-1 base to interval type-2: sigma -> sigma * (1 -/+ spread)."""
    if rb.kind != KIND_T1:
        raise ValueError("widen_to_it2 expects a type-1 rule base")
    if not (0.0 <= spread < 1.0):
        raise ValueError(f"spread must lie in [0, 1), got {spread}")
    return replace(
        rb, kind=KIND_IT2,
        sigma_lower=rb.sigma_lower * (1.0 - spread),
        sigma_upper=rb.sigma_upper * (1.0 + spread),
        cons_sigma_lower=rb.cons_sigma_lower * (1.0 - spread),
        cons_sigma_upper=rb.cons_sigma_upper * (1.0 + spread),
        provenance=rb.provenance + (("spread", repr(float(spread))),),
    )


def _bad_sample_message(X, params) -> str:
    """Name the first row of X whose log firing is non-finite under one of
    the sigma matrices in params."""
    means, *sigmas, _ = params
    for sig in sigmas:
        bad = ~np.isfinite(kernels.log_firing(X, means, sig).max(axis=1))
        if bad.any():
            return f"non-finite gradient at sample {int(np.flatnonzero(bad)[0])}"
    return "non-finite gradient"


def _train_arrays(rb: RuleBase, train):
    # a Dataset's features are a C-contiguous float matrix, one row per label
    X = train.features
    if X.shape[1] != rb.n_features:
        raise DataError(f"training rows have {X.shape[1]} features; "
                        f"rule base expects {rb.n_features}")
    if X.shape[0] == 0:
        raise DataError("training set is empty")
    return X, targets_for(rb, train.labels)


def _tune(X, y, cfg: TuneConfig, params, kernel, project):
    """The full-batch descent loop of both tuners; returns (best params, trace).

    X is centred once, before the first epoch.  The params arrays (means,
    sigma matrices, consequents) are copied; each epoch calls
    kernel(centred, y, *params) once, steps the params by lr times the
    gradients it returns, and puts them back in their legal set with
    project(*params).  An epoch's error is the mean error that call returns,
    taken before the step.  The params an epoch started from are copied only
    when its error is a new lowest; the loop stops after cfg.patience epochs
    without one and returns that copy, the earliest on a tie.
    """
    lr = cfg.learning_rate
    params = tuple(p.copy() for p in params)
    centred = kernels.centre(X)

    errs, best_err, best_epoch = [], np.inf, -1
    for epoch in range(cfg.epochs):
        *grads, err = kernel(centred, y, *params)
        if not np.isfinite(err):
            if epoch == 0:
                raise DataError(_bad_sample_message(X, params))
            raise DataError(
                "the training error stopped being finite after a step of "
                f"learning_rate={lr!r}; lower the learning rate")
        errs.append(float(err))
        if err < best_err:
            best_err, best_epoch = err, epoch
            best = tuple(p.copy() for p in params)
        elif epoch - best_epoch >= cfg.patience:
            break
        for p, g in zip(params, grads):
            p -= lr * g
        project(*params)

    return best, TuneTrace(np.array(errs), best_epoch)


def _floor_sigma(means, sig, cons):
    np.maximum(sig, SIGMA_FLOOR, out=sig)


def _project_interval(means, sl, su, cons):
    np.maximum(sl, SIGMA_FLOOR, out=sl)
    np.maximum(su, SIGMA_FLOOR, out=su)
    bad = sl > su
    if bad.any():
        avg = 0.5 * (sl[bad] + su[bad])
        sl[bad] = avg
        su[bad] = avg


def tune_t1(rb: RuleBase, train, cfg: TuneConfig = TuneConfig()):
    """Steepest descent on the type-1 system; returns (best base, trace).

    Each epoch steps once with the mean gradient over the whole training
    set.  Sigmas are floored at 1e-6 after every step.  The returned base is
    the epoch-start snapshot with the lowest recorded mean error.
    """
    if rb.kind != KIND_T1:
        raise ValueError("tune_t1 expects a type-1 rule base")
    X, y = _train_arrays(rb, train)
    (means, sig, cons), trace = _tune(
        X, y, cfg, (rb.means, rb.sigma_upper, rb.cons_mean),
        kernels.t1_epoch, _floor_sigma)
    return replace(rb, means=means, sigma_lower=sig, sigma_upper=sig,
                   cons_mean=cons), trace


def tune_it2(rb: RuleBase, train, cfg: TuneConfig = TuneConfig()):
    """Steepest descent on the interval type-2 system; returns (base, trace).

    The forward output is the Karnik-Mendel midpoint; each step re-derives
    the switch points and differentiates the two boundary type-1 systems they
    select.  After every step sigmas are floored and the pair is projected
    back to sigma_lower <= sigma_upper (offenders collapse to their average).
    """
    if rb.kind != KIND_IT2:
        raise ValueError("tune_it2 expects an interval type-2 rule base")
    X, y = _train_arrays(rb, train)
    (means, sl, su, cons), trace = _tune(
        X, y, cfg, (rb.means, rb.sigma_lower, rb.sigma_upper, rb.cons_mean),
        kernels.it2_epoch, _project_interval)
    return replace(rb, means=means, sigma_lower=sl, sigma_upper=su,
                   cons_mean=cons), trace
