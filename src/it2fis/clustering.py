"""Fuzzy c-means, Gustafson-Kessel clustering, and cluster-count selection.

Both partitioners run seeded alternating optimization from a column-normalized
uniform random membership matrix.  GK replaces the Euclidean norm with a
per-cluster Mahalanobis norm built from the fuzzy covariance matrix, volume
fixed to 1 (A_i = det(F_i)^(1/d) F_i^{-1}); the covariance is blended with the
diagonal of the global covariance to survive near-categorical columns.

Cluster counts are scored with the Fukuyama-Sugeno validity index
(compactness minus separation); lower is better, argmin over [2, c_max].
FCM takes SQUAREM steps: every two plain steps are followed by a trial of
the point extrapolated from them, kept only if its objective is no higher
than after the first of the two.  The scan needs only each run's objective
and index, so its runs also stop once the objective has settled
(SETTLE_RTOL); a partition that becomes a rule base runs on until its
memberships change by less than tol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels, parallel
from .errors import DataError


@dataclass(frozen=True)
class FuzzyPartition:
    """Result of a fuzzy clustering run.

    U is (c, N): u[i, j] is the degree of belonging of sample j to cluster i;
    every column sums to 1.  The traces record, for each iteration (each
    kept evaluation, in FCM), the objective sum(u^m * d^2) and the worst
    column-sum deviation from 1.
    """

    U: np.ndarray
    V: np.ndarray
    m: float
    objective: float
    n_iter: int
    converged: bool
    objective_trace: np.ndarray
    colsum_error_trace: np.ndarray
    covariances: np.ndarray | None = None  # (c, d, d), GK only


@dataclass(frozen=True)
class ValidityScan:
    """Result of a cluster-count scan.

    `runs` holds one (c, seed, n_iter, converged, objective, index) tuple per
    FCM run that actually ran, in (c, seed) order; n_iter counts the run's
    membership evaluations (`fcm`), rejected SQUAREM points included, and
    `converged` is true when the run stopped before the cap on them, on a
    small membership change or a settled objective.  A count stops at the
    first run that agrees with its best so far, so the number of runs varies
    from count to count.
    `workers` is the number of processes that ran them, which does not take
    part in comparisons.
    """

    candidates: tuple
    values: tuple
    selected: int
    best_seeds: tuple
    runs: tuple = ()
    workers: int = field(default=1, compare=False)

    def __post_init__(self):
        if self.selected != self.candidates[int(np.argmin(self.values))]:
            raise ValueError("selected count must attain the minimum index value")


def _as_data(X) -> np.ndarray:
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)))
    if not np.isfinite(X).all():
        raise DataError("clustering input contains non-finite values")
    return X


def _check_run(n: int, c: int, m: float, max_iter: int):
    if int(c) != c or c < 1:
        raise ValueError(f"cluster count must be a positive integer, got {c}")
    if not m > 1:
        raise ValueError(f"fuzziness degree must exceed 1, got {m}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if c > n:
        raise DataError(f"cannot fit {c} clusters to {n} samples")


def _init_membership(n: int, c: int, seed) -> np.ndarray:
    """Uniform random memberships, (c, N), each column normalized to 1."""
    # drawn and normalized sample-major, so a seed keeps its start partition
    w = np.random.default_rng(seed).random((n, c))
    return np.ascontiguousarray((w / w.sum(axis=1, keepdims=True)).T)


def _data_terms(X):
    """The data-only inputs of `kernels.sq_distances`: Xᵀ and ‖x‖²."""
    return np.ascontiguousarray(X.T), (X * X).sum(axis=1)


def _prototypes(X, w, v_old=None):
    """Weighted means of the rows of X under the weights w = u^m, (c, N).

    A cluster without weight keeps its previous prototype (the data mean on
    the first iteration).
    """
    wsum = w.sum(axis=1)
    dead = wsum <= 0.0
    if not dead.any():
        return (w @ X) / wsum[:, None]
    live = ~dead
    v = np.empty((w.shape[0], X.shape[1]))
    v[live] = (w[live] @ X) / wsum[live, None]
    v[dead] = X.mean(axis=0) if v_old is None else v_old[dead]
    return v


def _evaluate(xt, xx, v, m):
    """Memberships U(v) of the prototypes v, their weights u^m, the
    objective sum(u^m * d^2) there and the worst column-sum error of U(v)."""
    d2 = kernels.sq_distances(v, xt, xx)
    u = kernels.fcm_memberships(d2, m)
    # u^m serves this objective and the next prototypes
    w = kernels.fuzzy_weights(u, m)
    # d2 is dead after its last use here, so the objective's terms are
    # formed in its buffer
    obj = float(np.multiply(w, d2, out=d2).sum())
    return u, w, obj, float(np.abs(u.sum(axis=0) - 1.0).max())


def _extrapolate(v0, v1, v2):
    """SQUAREM's point from three plain FCM steps v0 -> v1 -> v2.

    With r = v1 - v0, q = v2 - 2 v1 + v0 and alpha = min(-|r|/|q|, -1) it is
    v0 - 2 alpha r + alpha^2 q.  Returns None where that is v2 itself
    (alpha = -1) or not finite.
    """
    r = v1 - v0
    q = v2 - 2.0 * v1 + v0
    nr, nq = np.linalg.norm(r), np.linalg.norm(q)
    if nr <= nq:
        return None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        alpha = -nr / nq
        v = v0 - (2.0 * alpha) * r + (alpha * alpha) * q
    return v if np.isfinite(v).all() else None


def fcm(X, c, m=2.0, tol=1e-6, max_iter=300, seed=0,
        settle_rtol=0.0) -> FuzzyPartition:
    """Fuzzy c-means by alternating optimization with SQUAREM steps.

    A plain step evaluates the memberships of the prototypes V and moves V
    to the weighted means under them, V <- F(V).  The steps come in SQUAREM
    cycles (Varadhan & Roland, Scand. J. Statist. 35(2), 2008): two plain
    steps V0 -> V1 -> V2, then an evaluation at the extrapolated point V'
    (see `_extrapolate`), which is kept, and followed by V' <- F(V'), only
    if its objective is no higher than at V1; otherwise the cycle goes on
    from V2 as plain steps would.  `n_iter` counts membership evaluations,
    rejected points included, and max_iter caps them; the traces record the
    objective sum(u^m * d^2) and the worst column-sum error of the kept
    evaluations only, so the objective trace never rises beyond rounding
    and n_iter can exceed its length.

    Stops when the largest membership change between consecutive kept
    evaluations drops below tol or after max_iter evaluations.  With
    settle_rtol > 0 it also stops at the first kept evaluation that lowers
    the objective by at most settle_rtol times the new objective; a rise,
    which only rounding can cause, counts as settled.  `converged` says that
    either test stopped the run before max_iter.  U is always the
    memberships of the returned V.
    """
    X = _as_data(X)
    n, _ = X.shape
    _check_run(n, c, m, max_iter)
    if not 0.0 <= settle_rtol < np.inf:
        raise ValueError(
            f"settle_rtol must be finite and non-negative, got {settle_rtol}")

    xt, xx = _data_terms(X)
    u = _init_membership(n, c, seed)
    v, v_next = None, _prototypes(X, kernels.fuzzy_weights(u, m))
    cycle = [v_next]  # this SQUAREM cycle's plain steps so far
    fallback = None  # V2, while an extrapolated point is on trial
    obj_trace, colsum_trace = [], []
    n_iter = 0
    converged = False
    while n_iter < max_iter:
        n_iter += 1
        if fallback is None:
            u_new, w, obj, colsum = _evaluate(xt, xx, v_next, m)
        else:
            # a point far out only fails the objective test
            with np.errstate(over="ignore", invalid="ignore"):
                u_new, w, obj, colsum = _evaluate(xt, xx, v_next, m)
            if not obj <= obj_trace[-1]:
                v_next, fallback = fallback, None
                continue
            fallback = None
        v = v_next
        obj_trace.append(obj)
        colsum_trace.append(colsum)
        # u is dead once replaced, so |u_new - u| is formed in its buffer
        np.subtract(u_new, u, out=u)
        delta = float(np.abs(u, out=u).max())
        u = u_new
        settled = (settle_rtol and len(obj_trace) > 1 and
                   obj_trace[-2] - obj_trace[-1] <= settle_rtol * obj_trace[-1])
        if delta < tol or settled:
            converged = True
            break
        if n_iter == max_iter:
            break
        v_next = _prototypes(X, w, v)
        cycle.append(v_next)
        if len(cycle) == 3:
            point = _extrapolate(*cycle)
            if point is not None:
                v_next, fallback = point, v_next
            cycle = []

    return FuzzyPartition(
        U=u, V=v, m=float(m),
        objective=obj_trace[-1], n_iter=n_iter, converged=converged,
        objective_trace=np.array(obj_trace),
        colsum_error_trace=np.array(colsum_trace),
    )


def gk(X, c, m=2.0, tol=1e-6, max_iter=300, seed=0, regularization=1e-3,
       u0=None) -> FuzzyPartition:
    """Gustafson-Kessel clustering (unit-volume Mahalanobis norms).

    Each cluster's fuzzy covariance F_i is blended as
    (1 - reg) * F_i + reg * diag(global covariance) before inversion.
    `u0` optionally warm-starts the membership matrix (given as (c, N),
    e.g. a previous FCM partition's U); otherwise the seeded random
    initialization is used.  Raises DataError when a covariance stays
    singular, which with regularization 0 happens on any flat cluster, and
    before the first iteration when a column of X is constant.
    """
    X = _as_data(X)
    n, d = X.shape
    _check_run(n, c, m, max_iter)
    if regularization < 0 or regularization > 1:
        raise ValueError("regularization must lie in [0, 1]")

    if u0 is None:
        u = _init_membership(n, c, seed)
    else:
        u0 = np.asarray(u0, dtype=float)
        if u0.shape != (c, n):
            raise ValueError(f"u0 must have shape ({c}, {n}), got {u0.shape}")
        u = np.ascontiguousarray(u0)

    flat = np.flatnonzero(X.max(axis=0) == X.min(axis=0))
    if flat.size:
        # a constant column has zero variance in every cluster and in the
        # global blend; left to the iteration, rounding in the prototypes can
        # hide that for many iterations
        raise DataError(
            f"column {int(flat[0])} is constant, so every cluster has a "
            f"singular covariance matrix at any regularization"
        )
    global_diag = np.diag(X.var(axis=0))
    covs = np.empty((c, d, d))
    w = kernels.fuzzy_weights(u, m)
    v = None
    obj_trace, colsum_trace = [], []
    converged = False
    for _ in range(max_iter):
        v = _prototypes(X, w, v)
        wsum = w.sum(axis=1)
        d2 = np.empty((c, n))
        for i in range(c):
            diff = X - v[i]
            denom = wsum[i] if wsum[i] > 0 else 1.0
            F = (w[i, :, None] * diff).T @ diff / denom
            F = (1.0 - regularization) * F + regularization * global_diag
            F = 0.5 * (F + F.T)
            sign, logdet = np.linalg.slogdet(F)
            if sign <= 0 or not np.isfinite(logdet):
                raise DataError(
                    f"cluster {i} has a singular covariance matrix "
                    f"(regularization={regularization}); increase regularization"
                )
            A = np.exp(logdet / d) * np.linalg.inv(F)
            covs[i] = F
            d2[i] = np.einsum("nd,de,ne->n", diff, A, diff)
        np.clip(d2, 0.0, None, out=d2)
        u_new = kernels.fcm_memberships(d2, m)
        w = kernels.fuzzy_weights(u_new, m)
        obj_trace.append(float((w * d2).sum()))
        colsum_trace.append(float(np.abs(u_new.sum(axis=0) - 1.0).max()))
        # u may be the caller's u0, so unlike in fcm |u_new - u| is not
        # formed in u's buffer
        delta = float(np.abs(u_new - u).max())
        u = u_new
        if delta < tol:
            converged = True
            break

    return FuzzyPartition(
        U=u, V=v, m=float(m),
        objective=obj_trace[-1], n_iter=len(obj_trace), converged=converged,
        objective_trace=np.array(obj_trace),
        colsum_error_trace=np.array(colsum_trace),
        covariances=covs,
    )


def fukuyama_index(X, p: FuzzyPartition) -> float:
    """Fukuyama-Sugeno validity index: compactness minus separation.

    sum_ij u_ij^m ||x_j - v_i||^2  -  sum_ij u_ij^m ||v_i - vbar||^2,
    with vbar the plain mean of the c prototypes.  Lower is better.
    """
    X = _as_data(X)
    n, d = X.shape
    if p.U.shape[1] != n:
        raise ValueError(
            f"partition covers {p.U.shape[1]} samples but data has {n}"
        )
    if p.V.shape[1] != d:
        raise ValueError(
            f"partition prototypes have {p.V.shape[1]} coordinates but data has {d}"
        )
    w = kernels.fuzzy_weights(p.U, p.m)  # (c, n)
    d2 = kernels.sq_distances(p.V, *_data_terms(X))  # (c, n)
    compact = float((w * d2).sum())
    vbar = p.V.mean(axis=0)
    sep2 = ((p.V - vbar) ** 2).sum(axis=1)
    separate = float((w.sum(axis=1) * sep2).sum())
    return compact - separate


# Two FCM runs whose objectives differ by at most this share of the best one
# have reached the same partition: seeds that converge together differ only
# by rounding, about 1e-14 relative.
AGREE_RTOL = 1e-6
# A scan run stops once a step lowers its objective by at most this share.
# A hundredth of AGREE_RTOL, so that runs settled on one partition still
# agree: at ten times this, one full-size synthetic scan needed 21 runs
# instead of 18, because settled seeds no longer agreed.
SETTLE_RTOL = AGREE_RTOL / 100


def _scan_count(X, m, seeds, c):
    """One count of the scan: FCM runs and Fukuyama-Sugeno indices.

    Each run stops at `fcm`'s membership tolerance, at an objective settled
    to SETTLE_RTOL, or at `fcm`'s cap on membership evaluations, which n_iter
    counts.  Runs the seeds in order and stops at the first run whose
    objective agrees with the best so far to AGREE_RTOL; that run is
    recorded but the best stays, so agreeing runs go to the earlier seed.  A
    run lower by more than that becomes the best.
    Returns the runs made, as (c, seed, n_iter, converged, objective, index)
    tuples, and the best of them: scalars only, so no membership matrix
    crosses a pipe.
    """
    runs, best = [], None
    for seed in seeds:
        part = fcm(X, c, m=m, seed=seed, settle_rtol=SETTLE_RTOL)
        run = (c, seed, part.n_iter, part.converged, part.objective,
               fukuyama_index(X, part))
        runs.append(run)
        if best is None or run[4] < best[4] - AGREE_RTOL * abs(best[4]):
            best = run
        elif abs(run[4] - best[4]) <= AGREE_RTOL * abs(best[4]):
            break
    return tuple(runs), best


def select_cluster_count(X, c_max=10, m=2.0,
                         seeds=(0, 1, 2, 3, 4)) -> ValidityScan:
    """Pick the cluster count in [2, c_max] minimizing the Fukuyama index.

    Each candidate count runs FCM from the seeds in order until a run's
    objective agrees with the lowest so far to AGREE_RTOL, or the seeds run
    out, and scores its lowest-objective run, the earlier seed among runs
    that agree.  Each run stops at `fcm`'s membership tolerance, at an
    objective settled to SETTLE_RTOL, or at `fcm`'s cap on membership
    evaluations.  So `seeds` bounds the runs per count, and a count makes at
    least two unless only one seed is given.  Ties on the index go to the
    smallest count.

    The counts are independent, so they are spread over one forked worker
    per CPU the process may use (`taskset` limits that set); with one CPU,
    one count, other threads running or no `fork` start method they run
    in-process.  Every run is seeded on its own, so the result is the same
    either way.
    """
    X = _as_data(X)
    if c_max < 2:
        raise ValueError(f"c_max must be at least 2, got {c_max}")
    if c_max > X.shape[0]:
        raise DataError(f"c_max={c_max} exceeds the {X.shape[0]} samples")
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("need at least one seed")

    candidates = tuple(range(2, c_max + 1))
    # largest counts run longest, so they start first and no worker is left
    # with a long run at the end
    tasks = candidates[::-1]
    workers = parallel.workers(len(tasks))
    results = parallel.fork_map(_scan_count, (X, m, seeds), tasks, workers)
    done = dict(zip(tasks, results))

    runs = tuple(r for c in candidates for r in done[c][0])
    best = [done[c][1] for c in candidates]
    values = tuple(b[5] for b in best)
    selected = candidates[int(np.argmin(values))]
    return ValidityScan(
        candidates=candidates, values=values,
        selected=selected, best_seeds=tuple(b[1] for b in best),
        runs=runs, workers=workers,
    )
