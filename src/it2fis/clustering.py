"""Fuzzy c-means, Gustafson-Kessel clustering, and cluster-count selection.

Both partitioners run seeded alternating optimization from a column-normalized
uniform random membership matrix.  GK replaces the Euclidean norm with a
per-cluster Mahalanobis norm built from the fuzzy covariance matrix, volume
fixed to 1 (A_i = det(F_i)^(1/d) F_i^{-1}); the covariance is blended with the
diagonal of the global covariance to survive near-categorical columns.

Cluster counts are scored with the Fukuyama-Sugeno validity index
(compactness minus separation); lower is better, argmin over [2, c_max].
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DataError


@dataclass(frozen=True)
class FuzzyPartition:
    """Result of a fuzzy clustering run.

    U is (c, N): u[i, j] is the degree of belonging of sample j to cluster i;
    every column sums to 1.  The traces record, for each iteration, the
    objective sum(u^m * d^2) and the worst column-sum deviation from 1.
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
    FCM run, in (c, seed) order; `workers` is the number of processes that
    ran them, which does not take part in comparisons.
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


def _check_cm(n: int, c: int, m: float):
    if int(c) != c or c < 1:
        raise ValueError(f"cluster count must be a positive integer, got {c}")
    if not m > 1:
        raise ValueError(f"fuzziness degree must exceed 1, got {m}")
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


def fcm(X, c, m=2.0, tol=1e-6, max_iter=300, seed=0) -> FuzzyPartition:
    """Fuzzy c-means by alternating optimization.

    Stops when the largest membership change drops below tol or after
    max_iter iterations.  The recorded objective is computed after each
    joint prototype+membership update, so the trace is non-increasing.
    """
    X = _as_data(X)
    n, _ = X.shape
    _check_cm(n, c, m)

    xt, xx = _data_terms(X)
    u = _init_membership(n, c, seed)
    w = u ** m
    v = None
    obj_trace, colsum_trace = [], []
    converged = False
    for _ in range(max_iter):
        v = _prototypes(X, w, v)
        d2 = kernels.sq_distances(v, xt, xx)
        u_new = kernels.fcm_memberships(d2, m)
        # u^m serves this iteration's objective and the next prototypes
        w = u_new ** m
        obj_trace.append(float((w * d2).sum()))
        colsum_trace.append(float(np.abs(u_new.sum(axis=0) - 1.0).max()))
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
    _check_cm(n, c, m)
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
    w = u ** m
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
        w = u_new ** m
        obj_trace.append(float((w * d2).sum()))
        colsum_trace.append(float(np.abs(u_new.sum(axis=0) - 1.0).max()))
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
    w = p.U ** p.m  # (c, n)
    d2 = kernels.sq_distances(p.V, *_data_terms(X))  # (c, n)
    compact = float((w * d2).sum())
    vbar = p.V.mean(axis=0)
    sep2 = ((p.V - vbar) ** 2).sum(axis=1)
    separate = float((w.sum(axis=1) * sep2).sum())
    return compact - separate


def _scan_run(X, m, tol, max_iter, task):
    """One (c, seed) run of the scan: FCM and the Fukuyama-Sugeno index.

    Returns (n_iter, converged, objective, index), scalars only, so no
    membership matrix crosses a pipe.
    """
    c, seed = task
    part = fcm(X, c, m=m, tol=tol, max_iter=max_iter, seed=seed)
    return part.n_iter, part.converged, part.objective, fukuyama_index(X, part)


# (X, m, tol, max_iter) of a pool worker's scan, set only inside the forked
# workers by the pool's initializer; `fork` hands the initializer's arguments
# down without pickling, so X is not pickled with every task.
_worker_scan = None


def _init_worker(*scan):
    global _worker_scan
    _worker_scan = scan


def _worker_run(task):
    return _scan_run(*_worker_scan, task)


def _scan_workers(n_runs: int) -> int:
    """One worker per CPU this process may run on, at most one per run.

    A forked child gets only the forking thread, so a lock another thread
    holds at the fork stays locked in it: with other threads running, or
    without `fork`, the scan stays in-process.  It also stays in-process with
    the numba backend: its parallel kernels already use every CPU, and its
    threading layer may abort a child forked after that layer started.
    """
    import multiprocessing

    if (kernels.NUMBA_ACTIVE
            or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(cpus, n_runs))


def select_cluster_count(X, c_max=10, m=2.0, seeds=(0, 1, 2, 3, 4),
                         tol=1e-6, max_iter=300) -> ValidityScan:
    """Pick the cluster count in [2, c_max] minimizing the Fukuyama index.

    Each candidate count runs FCM once per seed and keeps the lowest-objective
    run (the first seed on ties) before scoring; ties on the index go to the
    smallest count.

    The (count, seed) runs are independent, so they are spread over one
    forked worker per CPU the process may use (`taskset` limits that set);
    with one CPU, one run, other threads running, the numba backend or no
    `fork` start method they run in-process.  Every run is seeded on its
    own, so the result is the same either way.
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
    tasks = [(c, s) for c in reversed(candidates) for s in seeds]
    workers = _scan_workers(len(tasks))
    if workers == 1:
        results = list(map(functools.partial(_scan_run, X, m, tol, max_iter),
                           tasks))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # a killed worker raises BrokenProcessPool here instead of hanging
        pool = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker, initargs=(X, m, tol, max_iter))
        try:
            results = list(pool.map(_worker_run, tasks))
        finally:
            pool.shutdown(cancel_futures=True)
    done = dict(zip(tasks, results))

    runs = tuple((c, s) + done[c, s] for c in candidates for s in seeds)
    values, best_seeds = [], []
    for c in candidates:
        # min keeps the first of equal objectives, i.e. the earliest seed
        best = min((r for r in runs if r[0] == c), key=lambda r: r[4])
        values.append(best[5])
        best_seeds.append(best[1])
    selected = candidates[int(np.argmin(values))]
    return ValidityScan(
        candidates=candidates, values=tuple(values),
        selected=selected, best_seeds=tuple(best_seeds),
        runs=runs, workers=workers,
    )
