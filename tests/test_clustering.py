"""Clustering: FCM against a from-scratch alternating-optimization oracle,
GK shape recovery, and the Fukuyama-Sugeno index against brute force."""

import dataclasses
import hashlib
import multiprocessing
import os
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from it2fis import clustering, parallel
from it2fis.clustering import (SETTLE_RTOL, FuzzyPartition, ValidityScan,
                               fcm, fukuyama_index, gk, select_cluster_count)
from it2fis.clustering import _init_membership
from it2fis.errors import DataError
from it2fis import kernels

import oracles
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


@pytest.fixture
def plain_steps(monkeypatch):
    """`fcm` without SQUAREM: `_extrapolate` declines every point, which
    leaves the plain alternating-optimization map, bit for bit."""
    def plain_fcm(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(clustering, "_extrapolate", lambda v0, v1, v2: None)
            return fcm(*args, **kwargs)
    return plain_fcm


def test_fcm_matches_naive_alternating_optimization(rng, plain_steps):
    X = blobs(rng, [[0.0, 0.0], [4.0, 1.0], [-2.0, 5.0]], n_per=30)
    for iters in (1, 3, 7):
        part = plain_steps(X, 3, m=2.0, seed=7, max_iter=iters, tol=0.0)
        u_ref, v_ref = naive_fcm_run(X, 3, 2.0, 7, iters)
        assert part.n_iter == iters
        np.testing.assert_allclose(part.U, u_ref.T, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(part.V, v_ref, rtol=1e-12, atol=1e-12)


def test_fcm_objective_trace_never_increases(rng):
    for seed in range(5):
        X = np.random.default_rng(seed).random((80, 3)) * 4.0
        part = fcm(X, 4, seed=seed)
        diffs = np.diff(part.objective_trace)
        assert (diffs <= part.objective_trace[:-1] * 1e-12 + 1e-12).all()


def test_fcm_memberships_are_column_stochastic(rng):
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


def _bits(a):
    return np.asarray(a).tobytes()


def test_fcm_settle_stop_is_a_prefix_of_the_free_run(plain_steps):
    # with settle_rtol > 0 a run ends at the first iteration whose decrease
    # is at most settle_rtol times its objective, and is then the free run
    # cut there, bit for bit; plain steps keep every evaluation, so the
    # trace indexes the iterations
    X = np.random.default_rng(4).random((60, 2))
    free = plain_steps(X, 3, seed=4, tol=0.0, max_iter=200)
    trace = free.objective_trace
    stops = []
    for rtol in (1e-3, 1e-6, SETTLE_RTOL, 5e-324):
        part = plain_steps(X, 3, seed=4, tol=0.0, max_iter=200,
                           settle_rtol=rtol)
        n = part.n_iter
        assert part.converged and n < 200
        drops = trace[:n - 1] - trace[1:n]
        assert drops[-1] <= rtol * trace[n - 1]
        assert (drops[:-1] > rtol * trace[1:n - 1]).all()
        head = plain_steps(X, 3, seed=4, tol=0.0, max_iter=n)
        assert _bits(part.U) == _bits(head.U)
        assert _bits(part.V) == _bits(head.V)
        assert _bits(part.objective_trace) == _bits(trace[:n])
        assert _bits(part.colsum_error_trace) == _bits(
            free.colsum_error_trace[:n])
        # the same run capped one iteration earlier has not settled
        assert not plain_steps(X, 3, seed=4, tol=0.0, max_iter=n - 1,
                               settle_rtol=rtol).converged
        stops.append(n)
    assert stops == sorted(set(stops))
    # the smallest positive tolerance stops at the first rounding rise
    assert trace[stops[-1] - 1] > trace[stops[-1] - 2]
    # the membership test still stops a run that has not settled
    part = plain_steps(X, 3, seed=4, tol=1e-3, settle_rtol=5e-324)
    assert part.converged and part.n_iter < stops[-1]
    assert part.n_iter == plain_steps(X, 3, seed=4, tol=1e-3).n_iter


def test_fcm_without_settle_rtol_runs_through_rounding_rises(plain_steps):
    # settle_rtol = 0 (the default) never stops on the objective, not even
    # where rounding makes it rise or repeat
    X = np.random.default_rng(4).random((60, 2))
    part = plain_steps(X, 3, seed=4, tol=0.0, max_iter=200, settle_rtol=0.0)
    drops = -np.diff(part.objective_trace)
    assert (drops[:150] < 0).any() and (drops[:150] == 0).any()
    assert part.n_iter == 200 and not part.converged
    default = plain_steps(X, 3, seed=4, tol=0.0, max_iter=200)
    assert _bits(part.U) == _bits(default.U)
    assert _bits(part.objective_trace) == _bits(default.objective_trace)


@pytest.mark.parametrize("rtol", [-1e-9, -np.inf, np.inf, np.nan])
def test_fcm_settle_rtol_must_be_finite_and_non_negative(rtol):
    X = np.random.default_rng(0).random((20, 2))
    with pytest.raises(ValueError, match="settle_rtol"):
        fcm(X, 2, settle_rtol=rtol)


@pytest.mark.parametrize("fit", [fcm, gk], ids=["fcm", "gk"])
@pytest.mark.parametrize("max_iter", [0, -3])
def test_max_iter_must_be_positive(fit, max_iter):
    X = np.random.default_rng(0).random((20, 2))
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        fit(X, 2, max_iter=max_iter)


def _memberships_of(X, part):
    d2 = kernels.sq_distances(part.V, X.T.copy(), (X * X).sum(axis=1))
    return kernels.fcm_memberships(d2, part.m)


def test_fcm_squarem_objective_never_rises_and_u_is_v_memberships():
    for seed in range(8):
        X = np.random.default_rng(seed).random((60, 2)) * 4.0
        for c in (2, 3, 5):
            for rtol in (0.0, SETTLE_RTOL):
                part = fcm(X, c, seed=seed, settle_rtol=rtol)
                trace = part.objective_trace
                assert (np.diff(trace) <= trace[:-1] * 1e-12).all()
                assert part.objective == trace[-1]
                assert part.n_iter >= len(trace)
                np.testing.assert_allclose(part.U.sum(axis=0), 1.0,
                                           atol=1e-12)
                assert part.colsum_error_trace.max() <= 1e-12
                assert _bits(part.U) == _bits(_memberships_of(X, part))


def test_fcm_squarem_reaches_the_plain_minimum_in_fewer_evaluations(
        plain_steps):
    X = np.random.default_rng(0).random((60, 2)) * 4.0
    evaluations = []
    for c in (3, 4, 5):
        plain = plain_steps(X, c, seed=0)
        fast = fcm(X, c, seed=0)
        assert plain.converged and fast.converged
        assert fast.n_iter < plain.n_iter
        assert fast.objective == pytest.approx(plain.objective, rel=1e-10)
        evaluations.append((plain.n_iter, fast.n_iter))
    plain_total, fast_total = map(sum, zip(*evaluations))
    assert fast_total < plain_total / 2
    # at c = 5 some extrapolated point is rejected on its own
    assert fast.n_iter > len(fast.objective_trace)


def test_fcm_squarem_overshoot_takes_the_plain_double_step(monkeypatch,
                                                         plain_steps):
    # every extrapolated point is far off the data, so each is evaluated,
    # rejected, and the run goes on from the plain double step: the kept
    # evaluations are the plain run's, bit for bit
    real = clustering._extrapolate
    tried = []

    def overshoot(v0, v1, v2):
        point = real(v0, v1, v2)
        if point is not None:
            tried.append(point)
            point = point + 1e6
        return point

    monkeypatch.setattr(clustering, "_extrapolate", overshoot)
    X = np.random.default_rng(3).random((60, 2)) * 4.0
    part = fcm(X, 4, seed=3, tol=0.0, max_iter=60)
    kept = len(part.objective_trace)
    assert tried and part.n_iter == 60 == kept + len(tried)
    plain = plain_steps(X, 4, seed=3, tol=0.0, max_iter=kept)
    assert _bits(part.objective_trace) == _bits(plain.objective_trace)
    assert _bits(part.colsum_error_trace) == _bits(plain.colsum_error_trace)
    assert _bits(part.U) == _bits(plain.U)
    assert _bits(part.V) == _bits(plain.V)


def test_fcm_squarem_max_iter_caps_the_evaluations(plain_steps):
    X = np.random.default_rng(5).random((60, 2)) * 4.0
    for cap in range(1, 16):
        part = fcm(X, 4, seed=5, tol=0.0, max_iter=cap)
        assert part.n_iter == cap and not part.converged
        assert 1 <= len(part.objective_trace) <= cap
        assert _bits(part.U) == _bits(_memberships_of(X, part))
    # the first two evaluations of a cycle are the plain run's
    for cap in (1, 2):
        assert _bits(fcm(X, 4, seed=5, tol=0.0, max_iter=cap).V) == _bits(
            plain_steps(X, 4, seed=5, tol=0.0, max_iter=cap).V)


def test_fcm_membership_kernel_splits_zero_distances():
    d2 = np.array([[0.0, 0.0, 1.0],  # (c, n): one column per sample
                   [2.0, 0.0, 4.0],
                   [3.0, 1.0, 4.0]])
    u = kernels.fcm_memberships(d2, 2.0)
    np.testing.assert_allclose(u[:, 0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(u[:, 1], [0.5, 0.5, 0.0])
    np.testing.assert_allclose(u.sum(axis=0), 1.0, atol=1e-12)


def test_fcm_determinism(rng):
    for X, c in ((rng.random((50, 2)), 3),
                 (np.random.default_rng(6).random((80, 3)), 4)):
        a = fcm(X, c, seed=42)
        b = fcm(X, c, seed=42)
        for f in ("U", "V", "objective_trace", "colsum_error_trace"):
            assert _bits(getattr(a, f)) == _bits(getattr(b, f))
        assert (a.n_iter, a.converged) == (b.n_iter, b.converged)
        assert not np.array_equal(a.U, fcm(X, c, seed=43).U)


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
    # the reference loops of tests/oracles.py compute the same result
    # element by element; check the vectorized kernels against them here
    r = np.random.default_rng(11)
    X = r.normal(size=(7, 3))
    v = np.vstack([r.normal(size=(2, 3)), X[4]])  # prototype 2 sits on x_4
    xt, xx = np.ascontiguousarray(X.T), (X * X).sum(axis=1)
    d2 = kernels.sq_distances(v, xt, xx)
    assert d2.shape == (3, 7)
    np.testing.assert_allclose(oracles._sq_distances_loops(v, xt, xx), d2,
                               rtol=1e-12, atol=1e-12)
    d2[2, 4] = 0.0  # cancellation leaves ~1e-16 where the loops give 0
    d2[:, 6] = [0.0, 0.0, 1.5]  # two prototypes share sample 6
    # a subnormal smallest distance and no zero: d2^(-1/(m-1)) overflows
    # for m = 2 and 1.5, so only the column sum's finiteness flags sample 7
    d2 = np.column_stack([d2, [2.0, 5e-324, 0.5]])
    for m in (2.0, 1.5, 3.0):
        u = kernels.fcm_memberships(d2, m)
        with np.errstate(over="ignore"):  # the loops' scalar power at 5e-324
            ref = oracles._fcm_memberships_loops(d2, m)
        np.testing.assert_allclose(ref, u, rtol=1e-12, atol=1e-15)
        assert np.array_equal(u[:, 4], [0.0, 0.0, 1.0])
        assert np.array_equal(u[:, 6], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(u.sum(axis=0), 1.0, atol=1e-12)
    for m in (2.0, 1.5):
        assert np.array_equal(kernels.fcm_memberships(d2, m)[:, 7],
                              [0.0, 1.0, 0.0])


def test_fcm_memberships_default_fuzziness_is_bitwise_the_power_formula():
    # for m = 2 the kernel takes np.reciprocal, not ** -1.0, and skips the
    # finiteness mask when every column sum is finite; neither may move a bit
    r = np.random.default_rng(12)
    d2 = 10.0 ** r.uniform(-300.0, 300.0, (5, 20000))
    d2[r.random(d2.shape) < 1e-3] = 0.0
    d2[:, :3] = 0.0
    zero = d2 == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = d2 ** -1.0
        ref = inv / inv.sum(axis=0)
    cols = zero.any(axis=0)
    ref[:, cols] = zero[:, cols] / zero[:, cols].sum(axis=0)
    u = kernels.fcm_memberships(d2, 2.0)
    assert 3 <= cols.sum() < 300
    assert np.array_equal(u.view(np.int64), ref.view(np.int64))
    w = r.random((6, 5000))
    assert np.array_equal(kernels.fuzzy_weights(w, 2.0).view(np.int64),
                          (w ** 2.0).view(np.int64))


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


def test_gk_recovers_elongated_clusters(rng):
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
    # the selected count, the best seeds, the seeds each count runs and
    # every run's iteration count (the iteration counts were re-recorded
    # when scan runs came to stop at a settled objective, and again with the
    # seeds run when they came to take SQUAREM steps; the rest held)
    rng = np.random.default_rng(2024)
    X = np.vstack([rng.normal(0, 1, (40, 3)), rng.normal(3, 1, (30, 3)),
                   rng.uniform(-2, 5, (20, 3))])
    scan = select_cluster_count(X, c_max=5, seeds=(0, 1, 2))
    assert scan.selected == 5
    assert scan.best_seeds == (0, 0, 0, 0)
    # each count runs a prefix of the seeds, in (c, seed) order; here every
    # count's seed 1 agrees with seed 0 (plain steps took c = 4's seed 1 to a
    # higher partition, 145.609 against 145.516, so seed 2 ran too)
    runs = {2: (0, 1), 3: (0, 1), 4: (0, 1), 5: (0, 1)}
    assert [r[:2] for r in scan.runs] == [(c, s) for c in scan.candidates
                                          for s in runs[c]]
    n_iter = {c: tuple(fcm(X, c, seed=s, settle_rtol=SETTLE_RTOL).n_iter
                       for s in runs[c])
              for c in scan.candidates}
    assert n_iter == {2: (10, 9), 3: (20, 14), 4: (37, 25), 5: (22, 26)}
    # the scan's own run record gives the same counts
    assert {c: tuple(r[2] for r in scan.runs if r[0] == c)
            for c in scan.candidates} == n_iter


def _pinned_scan_digest():
    """SHA-256 of every run of a scan of seeded binary-and-continuous data,
    objectives and indices to the bit."""
    rng = np.random.default_rng(7)
    group = rng.integers(0, 3, 150)
    X = np.column_stack([rng.random((150, 6)) < rng.random((3, 6))[group],
                         rng.random(150)]).astype(float)
    scan = select_cluster_count(X, c_max=5, seeds=(0, 1, 2))
    text = "\n".join(f"{c} {s} {n_iter} {converged} {obj.hex()} {idx.hex()}"
                     for c, s, n_iter, converged, obj, idx in scan.runs)
    return hashlib.sha256(text.encode()).hexdigest()


# re-recorded when scan runs came to stop at a settled objective, and again
# when they came to take SQUAREM steps: the same nine runs each time, fewer
# membership evaluations each
PINNED_SCAN_DIGEST = (
    "f90a8c17d5a0941394cb773fe84059d4d77766cb88651521c32ef5cc83b62f9a")


def test_select_cluster_count_runs_are_pinned_bit_for_bit():
    # seeds that converge to one partition differ in objective by rounding
    # only, so a rounding change inside FCM can move the Fukuyama values
    # while the selected count stays: pin every recorded run's objective and
    # index to the bit
    assert _pinned_scan_digest() == PINNED_SCAN_DIGEST


def _affinity(monkeypatch, cpus):
    # raising=False: the call exists on Linux only
    monkeypatch.setattr(parallel.os, "sched_getaffinity",
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
    # c = 2 and 4 stop at their second seed; at c = 3 seed 1 ends elsewhere
    assert pooled.runs == serial.runs and len(pooled.runs) == 7
    for c, s, n_iter, converged, objective, index in serial.runs:
        part = fcm(X, c, seed=s, settle_rtol=SETTLE_RTOL)
        assert (n_iter, converged, objective) == (
            part.n_iter, part.converged, part.objective)
        assert index == fukuyama_index(X, part)
    # the scan data reach only the workers, never a slot of the caller's
    assert parallel._worker is None


@needs_fork
def test_select_cluster_count_digest_forked_and_in_process(monkeypatch):
    # the scan reaches the pool through parallel.fork_map: one CPU keeps it
    # in-process, two fork it, and both give the pinned runs
    pools = []
    real = parallel.fork_map

    def recording(fn, shared, tasks, n_workers):
        pools.append(n_workers)
        return real(fn, shared, tasks, n_workers)

    monkeypatch.setattr(parallel, "fork_map", recording)
    for cpus in (1, 2):
        _affinity(monkeypatch, cpus)
        assert _pinned_scan_digest() == PINNED_SCAN_DIGEST
    assert pools == [1, 2]


def test_select_cluster_count_ties_go_to_the_first_seed(monkeypatch):
    real_fcm = clustering.fcm
    monkeypatch.setattr(clustering, "fcm", lambda X, c, **kw: dataclasses.replace(
        real_fcm(X, c, **kw), objective=1.0))
    X = np.random.default_rng(0).random((40, 2))
    # neither the smallest nor the largest seed: the first in seed order
    scan = select_cluster_count(X, c_max=4, seeds=(1, 0, 2))
    assert scan.best_seeds == (1, 1, 1)


def _scripted_scan(monkeypatch, objectives, seeds):
    """Scan c = 2, 3 with each seed's FCM objective scripted; the memberships
    and so the indices stay the real runs'."""
    monkeypatch.setattr(clustering, "fcm", lambda X, c, **kw: dataclasses.replace(
        fcm(X, c, **kw), objective=objectives[kw["seed"]]))
    X = np.random.default_rng(0).random((40, 2))
    scan = select_cluster_count(X, c_max=3, seeds=seeds)
    assert all(r[4] == objectives[r[1]] for r in scan.runs)
    # each count scores the run of its best seed
    assert scan.values == tuple(
        next(r[5] for r in scan.runs if r[:2] == (c, s))
        for c, s in zip(scan.candidates, scan.best_seeds))
    return scan


def _seeds_run(scan):
    return {c: tuple(r[1] for r in scan.runs if r[0] == c)
            for c in scan.candidates}


def test_select_cluster_count_stops_once_two_seeds_agree(monkeypatch):
    # the second seed agrees within AGREE_RTOL, above or below the first:
    # no later seed runs, even one that would score lower, and the earlier
    # seed is kept
    rtol = clustering.AGREE_RTOL
    for second in (1.0, 1.0 + 0.5 * rtol, 1.0 - 0.5 * rtol):
        scan = _scripted_scan(monkeypatch, {5: 1.0, 1: second, 2: 0.5},
                              seeds=(5, 1, 2))
        assert _seeds_run(scan) == {2: (5, 1), 3: (5, 1)}
        assert scan.best_seeds == (5, 5)


def test_select_cluster_count_runs_on_until_a_seed_matches_the_best(
        monkeypatch):
    # a higher run neither stops the count nor becomes its best; the run
    # that matches the best does stop it
    scan = _scripted_scan(monkeypatch,
                          {0: 2.0, 1: 3.0, 2: 2.0 * (1 + 1e-9), 3: 0.5},
                          seeds=(0, 1, 2, 3))
    assert _seeds_run(scan) == {2: (0, 1, 2), 3: (0, 1, 2)}
    assert scan.best_seeds == (0, 0)
    # with no two runs agreeing, every seed runs
    scan = _scripted_scan(monkeypatch, {0: 2.0, 1: 3.0, 2: 4.0},
                          seeds=(0, 1, 2))
    assert _seeds_run(scan) == {2: (0, 1, 2), 3: (0, 1, 2)}
    assert scan.best_seeds == (0, 0)


def test_select_cluster_count_lower_seed_beyond_tolerance_is_best(
        monkeypatch):
    # twice the tolerance below the best replaces it, and the next run then
    # has to agree with the new best to stop the count
    lower = 2.0 * (1 - 2 * clustering.AGREE_RTOL)
    scan = _scripted_scan(monkeypatch, {0: 2.0, 1: lower, 2: 2.0, 3: lower,
                                        4: 0.5},
                          seeds=(0, 1, 2, 3, 4))
    assert _seeds_run(scan) == {2: (0, 1, 2, 3), 3: (0, 1, 2, 3)}
    assert scan.best_seeds == (1, 1)


def test_select_cluster_count_one_seed_runs_once_per_count(monkeypatch):
    scan = _scripted_scan(monkeypatch, {3: 1.0}, seeds=(3,))
    assert [r[:2] for r in scan.runs] == [(2, 3), (3, 3)]
    assert scan.best_seeds == (3, 3)


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


@needs_fork
def test_select_cluster_count_without_affinity_counts_cpus(monkeypatch):
    monkeypatch.delattr(parallel.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    X = np.random.default_rng(0).random((40, 2))
    assert select_cluster_count(X, c_max=3, seeds=(0, 1)).workers == 2
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
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
