"""Clustering: FCM against a from-scratch alternating-optimization oracle,
GK shape recovery, and the Fukuyama-Sugeno index against brute force."""

import dataclasses
import multiprocessing
import os
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from it2fis import clustering
from it2fis.clustering import (FuzzyPartition, ValidityScan, fcm,
                               fukuyama_index, gk, select_cluster_count)
from it2fis.clustering import _init_membership
from it2fis.errors import DataError
from it2fis import kernels

from conftest import blobs


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def naive_fcm_run(X, c, m, seed, iters):
    """Textbook alternating optimization, no vectorization tricks."""
    u = _init_membership(X.shape[0], c, seed).T  # (n, c)
    v = None
    for _ in range(iters):
        w = u ** m
        v = (w.T @ X) / w.sum(axis=0)[:, None]
        d2 = ((X[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
        inv = d2 ** (-1.0 / (m - 1.0))
        u = inv / inv.sum(axis=1, keepdims=True)
    return u, v


def brute_fukuyama(X, U, V, m):
    c, n = U.shape
    vbar = V.mean(axis=0)
    total = 0.0
    for i in range(c):
        for j in range(n):
            w = U[i, j] ** m
            total += w * (((X[j] - V[i]) ** 2).sum() - ((V[i] - vbar) ** 2).sum())
    return total


def manual_partition(rng, c, n, d, m=2.0):
    U = rng.random((c, n))
    U /= U.sum(axis=0, keepdims=True)
    V = rng.uniform(-3, 3, (c, d))
    return FuzzyPartition(U=U, V=V, m=m, objective=0.0, n_iter=1,
                          converged=True, objective_trace=np.zeros(1),
                          colsum_error_trace=np.zeros(1))


# ---------------------------------------------------------------------------
# fuzzy c-means
# ---------------------------------------------------------------------------


def test_fcm_matches_naive_alternating_optimization(rng, warm_kernels):
    X = blobs(rng, [[0.0, 0.0], [4.0, 1.0], [-2.0, 5.0]], n_per=30)
    for iters in (1, 3, 7):
        part = fcm(X, 3, m=2.0, seed=7, max_iter=iters, tol=0.0)
        u_ref, v_ref = naive_fcm_run(X, 3, 2.0, 7, iters)
        assert part.n_iter == iters
        np.testing.assert_allclose(part.U, u_ref.T, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(part.V, v_ref, rtol=1e-12, atol=1e-12)


def test_fcm_objective_trace_never_increases(rng, warm_kernels):
    for seed in range(5):
        X = np.random.default_rng(seed).random((80, 3)) * 4.0
        part = fcm(X, 4, seed=seed)
        diffs = np.diff(part.objective_trace)
        assert (diffs <= part.objective_trace[:-1] * 1e-12 + 1e-12).all()


def test_fcm_memberships_are_column_stochastic(rng, warm_kernels):
    X = rng.random((60, 2))
    part = fcm(X, 3, seed=0)
    np.testing.assert_allclose(part.U.sum(axis=0), 1.0, atol=1e-9)
    assert part.colsum_error_trace.max() <= 1e-9
    assert ((part.U >= 0) & (part.U <= 1)).all()


def test_fcm_single_cluster_is_the_mean(rng):
    X = rng.random((40, 3))
    part = fcm(X, 1, seed=0)
    np.testing.assert_allclose(part.U, 1.0, atol=0)
    np.testing.assert_allclose(part.V[0], X.mean(axis=0), rtol=1e-12)
    assert part.converged


def test_fcm_converges_and_stops_early(rng):
    X = blobs(rng, [[0.0, 0.0], [6.0, 6.0]], n_per=40)
    part = fcm(X, 2, tol=1e-8, max_iter=300, seed=1)
    assert part.converged
    assert part.n_iter < 300
    # fixed point: one more alternating step barely moves the memberships
    d2 = kernels.sq_distances(part.V, X.T.copy(), (X * X).sum(axis=1))
    u2 = kernels.fcm_memberships(d2, 2.0)
    assert np.abs(u2 - part.U).max() < 1e-6


def test_fcm_membership_kernel_splits_zero_distances():
    d2 = np.array([[0.0, 0.0, 1.0],  # (c, n): one column per sample
                   [2.0, 0.0, 4.0],
                   [3.0, 1.0, 4.0]])
    u = kernels.fcm_memberships(d2, 2.0)
    np.testing.assert_allclose(u[:, 0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(u[:, 1], [0.5, 0.5, 0.0])
    np.testing.assert_allclose(u.sum(axis=0), 1.0, atol=1e-12)


def test_fcm_determinism(rng):
    X = rng.random((50, 2))
    a = fcm(X, 3, seed=42)
    b = fcm(X, 3, seed=42)
    assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
    c = fcm(X, 3, seed=43)
    assert not np.array_equal(a.U, c.U)


def test_fcm_validation(rng):
    X = rng.random((10, 2))
    with pytest.raises(DataError):
        fcm(X, 11)  # more clusters than points
    with pytest.raises(ValueError):
        fcm(X, 0)
    with pytest.raises(ValueError):
        fcm(X, 2, m=1.0)
    bad = X.copy()
    bad[3, 1] = np.nan
    with pytest.raises(DataError):
        fcm(bad, 2)


def test_fcm_duplicated_groups_end_on_exact_memberships():
    # once each prototype sits exactly on its group, the distances are exact
    # zeros and the zero-distance split makes every membership exactly 0 or 1
    X = np.array([[1.0, 2.0]] * 5 + [[4.0, -1.0]] * 4)
    part = fcm(X, 2, seed=3, tol=0.0, max_iter=30)
    hard = part.U.argmax(axis=0)
    assert len(set(hard[:5])) == 1 and len(set(hard[5:])) == 1
    assert hard[0] != hard[5]
    assert np.array_equal(part.U, (hard == np.arange(2)[:, None]).astype(float))
    assert np.array_equal(part.V[hard[0]], X[0])
    assert np.array_equal(part.V[hard[5]], X[5])
    assert part.objective == 0.0


def test_loop_kernels_match_numpy_kernels():
    # the `_*_loops` twins are the numba bodies; called directly they run as
    # plain Python, so check them against the numpy kernels here
    r = np.random.default_rng(11)
    X = r.normal(size=(7, 3))
    v = np.vstack([r.normal(size=(2, 3)), X[4]])  # prototype 2 sits on x_4
    xt, xx = np.ascontiguousarray(X.T), (X * X).sum(axis=1)
    d2 = kernels.sq_distances_np(v, xt, xx)
    assert d2.shape == (3, 7)
    np.testing.assert_allclose(kernels._sq_distances_loops(v, xt, xx), d2,
                               rtol=1e-12, atol=1e-12)
    d2[2, 4] = 0.0  # cancellation leaves ~1e-16 where the loops give 0
    d2[:, 6] = [0.0, 0.0, 1.5]  # two prototypes share sample 6
    for m in (2.0, 1.5, 3.0):
        u_np = kernels.fcm_memberships_np(d2, m)
        np.testing.assert_allclose(kernels._fcm_memberships_loops(d2, m),
                                   u_np, rtol=1e-12, atol=1e-15)
        assert np.array_equal(u_np[:, 4], [0.0, 0.0, 1.0])
        assert np.array_equal(u_np[:, 6], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(u_np.sum(axis=0), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Gustafson-Kessel
# ---------------------------------------------------------------------------


def elongated_pair(rng, n_per=150):
    """Two long horizontal stripes; Euclidean clustering wants to cut them
    vertically, a Mahalanobis norm separates them correctly."""
    x = rng.normal(0.0, 5.0, 2 * n_per)
    y = np.concatenate([rng.normal(4.0, 0.3, n_per),
                        rng.normal(-4.0, 0.3, n_per)])
    truth = np.repeat([0, 1], n_per)
    return np.column_stack([x, y]), truth


def test_gk_recovers_elongated_clusters(rng, warm_kernels):
    X, truth = elongated_pair(rng)
    warm = fcm(X, 2, seed=0)
    part = gk(X, 2, seed=0, u0=warm.U)
    hard = part.U.argmax(axis=0)
    agree = max((hard == truth).mean(), (hard != truth).mean())
    assert agree >= 0.95


def test_gk_covariances_are_spd(rng):
    X = blobs(rng, [[0.0, 0.0], [5.0, 5.0]], n_per=60)
    part = gk(X, 2, seed=0)
    assert part.covariances.shape == (2, 2, 2)
    for F in part.covariances:
        np.testing.assert_allclose(F, F.T, atol=1e-12)
        assert (np.linalg.eigvalsh(F) > 0).all()


def test_gk_membership_columns_sum_to_one(rng):
    X = rng.random((70, 3))
    part = gk(X, 3, seed=2)
    np.testing.assert_allclose(part.U.sum(axis=0), 1.0, atol=1e-9)
    assert (np.diff(part.objective_trace)
            <= part.objective_trace[:-1] * 1e-12 + 1e-12).all()


def test_gk_warm_start_validation(rng):
    X = rng.random((20, 2))
    with pytest.raises(ValueError, match="u0 must have shape"):
        gk(X, 2, u0=np.ones((3, 20)) / 3)


def test_gk_singular_covariance_raises(rng):
    # a constant column makes every fuzzy covariance singular when the
    # global-variance blend is disabled
    X = np.column_stack([rng.random(30), np.zeros(30)])
    with pytest.raises(DataError, match="singular covariance"):
        gk(X, 2, regularization=0.0)


def test_gk_constant_column_fails_before_iterating(rng, monkeypatch):
    # regularization blends in the global variance, which is zero too, so a
    # constant column dooms GK at any regularization; it must not iterate
    X = np.column_stack([rng.random(40), np.full(40, 0.1), rng.random(40)])
    warm = fcm(X, 2, seed=0)
    calls = []
    monkeypatch.setattr(kernels, "fcm_memberships",
                        lambda *a: calls.append(1))
    with pytest.raises(DataError, match="column 1 is constant"):
        gk(X, 2, seed=0, u0=warm.U)
    assert not calls


def test_gk_determinism(rng):
    X = blobs(rng, [[0.0, 0.0], [4.0, 0.0]], n_per=40)
    a = gk(X, 2, seed=5)
    b = gk(X, 2, seed=5)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.covariances, b.covariances)


# ---------------------------------------------------------------------------
# validity index and cluster-count selection
# ---------------------------------------------------------------------------


def test_fukuyama_index_matches_brute_force(rng):
    for _ in range(20):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(10, 40))
        d = int(rng.integers(1, 4))
        X = rng.uniform(-3, 3, (n, d))
        part = manual_partition(rng, c, n, d)
        got = fukuyama_index(X, part)
        ref = brute_fukuyama(X, part.U, part.V, part.m)
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_fukuyama_index_permutation_invariant(rng):
    X = rng.uniform(-2, 2, (50, 3))
    part = manual_partition(rng, 3, 50, 3)
    perm = rng.permutation(50)
    part2 = manual_partition(rng, 3, 50, 3)
    object.__setattr__(part2, "U", part.U[:, perm])
    object.__setattr__(part2, "V", part.V)
    a = fukuyama_index(X, part)
    b = fukuyama_index(X[perm], part2)
    assert b == pytest.approx(a, rel=1e-9)


def test_fukuyama_prefers_the_true_cluster_count(rng):
    centers = [[0, 0], [8, 0], [0, 8], [8, 8], [4, 16]]
    X = blobs(rng, centers, n_per=50, sigma=0.4)
    scan = select_cluster_count(X, c_max=8, seeds=(0, 1, 2))
    assert scan.selected == 5
    assert scan.candidates == tuple(range(2, 9))
    assert scan.values[scan.candidates.index(5)] == min(scan.values)


def test_fukuyama_index_validation(rng):
    X = rng.random((10, 2))
    part = manual_partition(rng, 2, 10, 2)
    with pytest.raises(ValueError):
        fukuyama_index(rng.random((9, 2)), part)
    with pytest.raises(ValueError):
        fukuyama_index(rng.random((10, 3)), part)


def test_select_cluster_count_is_pinned():
    # a rewrite of the FCM iteration may move U by rounding, but must keep
    # the selected count, the best seeds and every run's iteration count
    rng = np.random.default_rng(2024)
    X = np.vstack([rng.normal(0, 1, (40, 3)), rng.normal(3, 1, (30, 3)),
                   rng.uniform(-2, 5, (20, 3))])
    scan = select_cluster_count(X, c_max=5, seeds=(0, 1, 2))
    assert scan.selected == 5
    assert scan.best_seeds == (0, 1, 2, 0)
    n_iter = {c: tuple(fcm(X, c, seed=s).n_iter for s in (0, 1, 2))
              for c in scan.candidates}
    assert n_iter == {2: (15, 14, 15), 3: (50, 38, 51), 4: (167, 180, 123),
                      5: (105, 106, 100)}
    # the scan's own run record gives the same counts, in (c, seed) order
    assert [r[:2] for r in scan.runs] == [(c, s) for c in scan.candidates
                                          for s in (0, 1, 2)]
    assert {c: tuple(r[2] for r in scan.runs if r[0] == c)
            for c in scan.candidates} == n_iter


def _affinity(monkeypatch, cpus):
    # raising=False: the call exists on Linux only
    monkeypatch.setattr(clustering.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker pool needs the fork start method")


@needs_fork
def test_select_cluster_count_pool_equals_in_process(monkeypatch):
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(0, 1, (30, 2)), rng.normal(4, 1, (30, 2))])
    _affinity(monkeypatch, 2)
    pooled = select_cluster_count(X, c_max=4, seeds=(0, 1, 2))
    _affinity(monkeypatch, 1)
    serial = select_cluster_count(X, c_max=4, seeds=(0, 1, 2))
    assert (pooled.workers, serial.workers) == (2, 1)
    assert pooled == serial
    assert pooled.runs == serial.runs and len(pooled.runs) == 9
    for c, s, n_iter, converged, objective, index in serial.runs:
        part = fcm(X, c, seed=s)
        assert (n_iter, converged, objective) == (
            part.n_iter, part.converged, part.objective)
        assert index == fukuyama_index(X, part)
    # the scan data reach only the workers, never a slot of the caller's
    assert clustering._worker_scan is None


def test_select_cluster_count_ties_go_to_the_first_seed(monkeypatch):
    real_fcm = clustering.fcm
    monkeypatch.setattr(clustering, "fcm", lambda X, c, **kw: dataclasses.replace(
        real_fcm(X, c, **kw), objective=1.0))
    X = np.random.default_rng(0).random((40, 2))
    # neither the smallest nor the largest seed: the first in seed order
    scan = select_cluster_count(X, c_max=4, seeds=(1, 0, 2))
    assert scan.best_seeds == (1, 1, 1)


def test_select_cluster_count_stays_in_process_beside_threads(monkeypatch):
    # fork copies only the calling thread, so another thread's locks would
    # stay held in the workers
    _affinity(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        X = np.random.default_rng(0).random((40, 2))
        scan = select_cluster_count(X, c_max=3, seeds=(0, 1))
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    assert scan.workers == 1 and len(scan.runs) == 4


def test_select_cluster_count_concurrent_threads_keep_their_data():
    # two threads scanning different data at once must each get the scan of
    # their own data, as when run alone
    rng = np.random.default_rng(11)
    data = [np.vstack([rng.normal(0, 1, (60, 2)), rng.normal(k, 1, (60, 2))])
            for k in (3, 6)]
    alone = [select_cluster_count(X, c_max=4, seeds=(0, 1)) for X in data]
    start = threading.Barrier(2)
    got = [None, None]

    def scan(i):
        start.wait(10)
        got[i] = select_cluster_count(data[i], c_max=4, seeds=(0, 1))

    threads = [threading.Thread(target=scan, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert got == alone
    assert [g.runs for g in got] == [a.runs for a in alone]


def test_select_cluster_count_stays_in_process_with_numba(monkeypatch):
    # numba's parallel kernels already use every CPU
    monkeypatch.setattr(kernels, "NUMBA_ACTIVE", True)
    _affinity(monkeypatch, 2)
    X = np.random.default_rng(0).random((40, 2))
    assert select_cluster_count(X, c_max=3, seeds=(0, 1)).workers == 1


@needs_fork
def test_select_cluster_count_without_affinity_counts_cpus(monkeypatch):
    monkeypatch.delattr(clustering.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(clustering.os, "cpu_count", lambda: 2)
    X = np.random.default_rng(0).random((40, 2))
    assert select_cluster_count(X, c_max=3, seeds=(0, 1)).workers == 2
    monkeypatch.setattr(clustering.os, "cpu_count", lambda: None)
    assert select_cluster_count(X, c_max=3, seeds=(0, 1)).workers == 1


@needs_fork
def test_select_cluster_count_worker_error_reaches_caller(monkeypatch):
    real_fcm = clustering.fcm

    def failing_fcm(X, c, **kw):
        if c == 3:
            raise DataError(f"cannot fit {c} clusters here")
        return real_fcm(X, c, **kw)

    # forked workers inherit the patched module attribute
    monkeypatch.setattr(clustering, "fcm", failing_fcm)
    _affinity(monkeypatch, 2)
    X = np.random.default_rng(0).random((40, 2))
    with pytest.raises(DataError, match="^cannot fit 3 clusters here$"):
        select_cluster_count(X, c_max=4, seeds=(0, 1))


@needs_fork
def test_select_cluster_count_killed_worker_raises(monkeypatch):
    monkeypatch.setattr(clustering, "fcm", lambda *a, **kw: os._exit(3))
    _affinity(monkeypatch, 2)
    X = np.random.default_rng(0).random((40, 2))
    with pytest.raises(BrokenProcessPool):
        select_cluster_count(X, c_max=3, seeds=(0,))


def test_select_cluster_count_validation(rng):
    X = rng.random((10, 2))
    with pytest.raises(ValueError):
        select_cluster_count(X, c_max=1)
    with pytest.raises(DataError):
        select_cluster_count(X, c_max=11)
    with pytest.raises(ValueError):
        select_cluster_count(X, seeds=())


def test_validity_scan_consistency_check():
    with pytest.raises(ValueError):
        ValidityScan(candidates=(2, 3), values=(1.0, -2.0), selected=2,
                     best_seeds=(0, 0))
