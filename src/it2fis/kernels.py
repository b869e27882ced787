"""Numeric hot kernels with two interchangeable backends.

Every kernel exists twice: a vectorized pure-numpy version (``*_np``) and a
loop version compiled with numba (``*_nb``).  The module-level names without
a suffix dispatch to the active backend.  Set ``IT2FIS_NO_NUMBA=1`` in the
environment (or run without numba installed) to force the numpy path;
``benchmarks/bench_kernels.py`` times both.

Array conventions: data matrices are (n_samples, n_features); rule parameter
matrices are (n_rules, n_features); firing matrices are (n_samples, n_rules).
The two clustering kernels are cluster-major, like ``FuzzyPartition.U``:
distance and membership matrices are (n_clusters, n_samples), and
``sq_distances`` takes the data transposed, (n_features, n_samples), with its
squared row norms precomputed.
"""

from __future__ import annotations

import os

import numpy as np

_flag = os.environ.get("IT2FIS_NO_NUMBA", "").strip().lower()
NUMBA_DISABLED = _flag in {"1", "true", "yes", "on"}

# Smallest normal double.  Sub-normal firing weights are flushed to zero in
# the KM kernels: denormals quantize to multiples of ~5e-324, so a ratio
# whose denominator is a lone denormal (f*c)/f can land anywhere — far
# outside the centroid hull — instead of at c.
TINY = float(np.finfo(np.float64).tiny)

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled via IT2FIS_NO_NUMBA")
    from numba import njit, prange

    NUMBA_ACTIVE = True
except ImportError:  # pragma: no cover - exercised via env flag
    NUMBA_ACTIVE = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap

    prange = range


# ---------------------------------------------------------------------------
# squared Euclidean distances (FCM inner loop), cluster-major
# ---------------------------------------------------------------------------


def sq_distances_np(v, xt, xx):
    """Squared Euclidean distances from c points to n points, shape (c, n).

    v is (c, d); xt holds the n points as columns, (d, n) and C-contiguous;
    xx is their squared norms, shape (n,).  xt and xx depend on the data
    only, so FCM computes them once per run, not once per iteration.
    """
    g = v @ xt
    g *= 2.0
    d2 = (v * v).sum(axis=1)[:, None] + xx
    d2 -= g
    np.maximum(d2, 0.0, out=d2)
    return d2


def _sq_distances_loops(v, xt, xx):
    # sums the coordinate differences directly, so it never reads xx
    c = v.shape[0]
    d, n = xt.shape
    out = np.empty((c, n))
    for j in prange(n):
        for i in range(c):
            acc = 0.0
            for f in range(d):
                t = xt[f, j] - v[i, f]
                acc += t * t
            out[i, j] = acc
    return out


# ---------------------------------------------------------------------------
# FCM membership update from squared distances, cluster-major
# ---------------------------------------------------------------------------


def fcm_memberships_np(d2, m):
    """Membership update u_ij ∝ d2_ij^(-1/(m-1)) on (c, n); columns sum to 1.

    Columns containing a zero (or overflowing) distance split their mass
    evenly over the offending prototypes.
    """
    p = 1.0 / (m - 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = d2 ** (-p)
        u = inv / inv.sum(axis=0)
    bad = ~np.isfinite(inv)
    cols_bad = bad.any(axis=0)
    if cols_bad.any():
        share = bad[:, cols_bad]
        u[:, cols_bad] = share / share.sum(axis=0)
    return u


def _fcm_memberships_loops(d2, m):
    c, n = d2.shape
    p = 1.0 / (m - 1.0)
    u = np.empty((c, n))
    for j in prange(n):
        nzero = 0
        for i in range(c):
            if d2[i, j] <= 0.0:
                nzero += 1
        if nzero > 0:
            w = 1.0 / nzero
            for i in range(c):
                u[i, j] = w if d2[i, j] <= 0.0 else 0.0
            continue
        tot = 0.0
        for i in range(c):
            val = d2[i, j] ** (-p)
            u[i, j] = val
            tot += val
        if not np.isfinite(tot):
            nbad = 0
            for i in range(c):
                if not np.isfinite(u[i, j]):
                    nbad += 1
            w = 1.0 / nbad
            for i in range(c):
                u[i, j] = w if not np.isfinite(u[i, j]) else 0.0
        else:
            for i in range(c):
                u[i, j] /= tot
    return u


# ---------------------------------------------------------------------------
# log firing strengths: -0.5 * sum_f ((x_f - m_f) / s_f)^2
# ---------------------------------------------------------------------------


def log_firing_np(x, means, sigmas):
    z = (x[:, None, :] - means[None, :, :]) / sigmas[None, :, :]
    return -0.5 * np.einsum("ndg,ndg->nd", z, z)


def _log_firing_loops(x, means, sigmas):
    n, g = x.shape
    d = means.shape[0]
    out = np.empty((n, d))
    for j in prange(n):
        for s in range(d):
            acc = 0.0
            for f in range(g):
                z = (x[j, f] - means[s, f]) / sigmas[s, f]
                acc += z * z
            out[j, s] = -0.5 * acc
    return out


# ---------------------------------------------------------------------------
# Karnik-Mendel center-of-sets reduction, batched over rows
# ---------------------------------------------------------------------------
#
# Inputs are already in ascending-centroid order.  Both backends evaluate the
# weighted-average ratio at every switch split k (first k rules take one bound,
# the rest take the other) and pick the extremal one; the extremum of the
# linear-fractional objective over the firing box sits at such a split.


def km_batch_np(lo, up, cents):
    lo = np.where(lo < TINY, 0.0, lo)
    up = np.where(up < TINY, 0.0, up)
    n, d = lo.shape
    zero = np.zeros((n, 1))

    def prefix(a):  # pre[:, k] = a[:, :k].sum(axis=1)
        return np.hstack([zero, np.cumsum(a, axis=1)])

    def suffix(a):  # suf[:, k] = a[:, k:].sum(axis=1)
        # summed from the right rather than as total - prefix: the
        # difference of two near-equal totals can wipe out a small
        # suffix entirely (a lone 1e-9 weight against O(1) ones),
        # pushing the candidate ratio outside the centroid hull
        return np.hstack([np.cumsum(a[:, ::-1], axis=1)[:, ::-1], zero])

    num_l = prefix(up * cents) + suffix(lo * cents)
    den_l = prefix(up) + suffix(lo)
    num_r = prefix(lo * cents) + suffix(up * cents)
    den_r = prefix(lo) + suffix(up)

    with np.errstate(divide="ignore", invalid="ignore"):
        rat_l = np.where(den_l > 0.0, num_l / den_l, np.inf)
        rat_r = np.where(den_r > 0.0, num_r / den_r, -np.inf)
    kl = np.argmin(rat_l, axis=1)
    kr = np.argmax(rat_r, axis=1)
    yl = rat_l[np.arange(n), kl]
    yr = rat_r[np.arange(n), kr]
    return yl, yr, kl.astype(np.int64), kr.astype(np.int64)


def _km_batch_loops(lo, up, cents):
    n, d = lo.shape
    yl = np.empty(n)
    yr = np.empty(n)
    kl = np.empty(n, dtype=np.int64)
    kr = np.empty(n, dtype=np.int64)
    for j in prange(n):
        best_l = np.inf
        best_r = -np.inf
        bkl = 0
        bkr = 0
        for k in range(d + 1):
            num_l = 0.0
            den_l = 0.0
            num_r = 0.0
            den_r = 0.0
            for s in range(d):
                wu = up[j, s]
                if wu < TINY:
                    wu = 0.0
                wl = lo[j, s]
                if wl < TINY:
                    wl = 0.0
                if s < k:
                    num_l += wu * cents[s]
                    den_l += wu
                    num_r += wl * cents[s]
                    den_r += wl
                else:
                    num_l += wl * cents[s]
                    den_l += wl
                    num_r += wu * cents[s]
                    den_r += wu
            if den_l > 0.0:
                r = num_l / den_l
                if r < best_l:
                    best_l = r
                    bkl = k
            if den_r > 0.0:
                r = num_r / den_r
                if r > best_r:
                    best_r = r
                    bkr = k
        yl[j] = best_l
        yr[j] = best_r
        kl[j] = bkl
        kr[j] = bkr
    return yl, yr, kl, kr


# ---------------------------------------------------------------------------
# full-batch gradient epoch, type-1 system
# ---------------------------------------------------------------------------
#
# f(x) = sum_S w_S g_S / sum_S w_S with w_S the product firing; the epoch
# error is mean over samples of 0.5 (f - y)^2.  Firing is computed in log
# space and shifted by the per-sample max; f and all gradients are ratios of
# firings, so the shift cancels exactly.  A degenerate sample (non-finite
# log firing) makes the returned error non-finite; the caller locates it.


def t1_epoch_np(x, y, means, sigmas, cons):
    n = x.shape[0]
    e = log_firing_np(x, means, sigmas)
    shift = e.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        w = np.exp(e - shift)
    den = w.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = (w @ cons) / den
    r = (f - y) / n
    err = 0.5 * np.mean((f - y) ** 2)

    # q[j,S] = r_j * (g_S - f_j) / den_j * w_jS
    with np.errstate(invalid="ignore", divide="ignore"):
        q = r[:, None] * (cons[None, :] - f[:, None]) / den[:, None] * w
    zx = x[:, None, :] - means[None, :, :]
    with np.errstate(over="ignore", invalid="ignore"):
        gm = np.einsum("ns,nsf->sf", q, zx / sigmas[None, :, :] ** 2)
        gs = np.einsum("ns,nsf->sf", q, zx**2 / sigmas[None, :, :] ** 3)
    with np.errstate(invalid="ignore", divide="ignore"):
        gc = ((r / den)[:, None] * w).sum(axis=0)
    return gm, gs, gc, err


def _t1_epoch_loops(x, y, means, sigmas, cons):
    n, g = x.shape
    d = means.shape[0]
    gm = np.zeros((d, g))
    gs = np.zeros((d, g))
    gc = np.zeros(d)
    err = 0.0
    w = np.empty(d)
    for j in range(n):
        shift = -np.inf
        for s in range(d):
            acc = 0.0
            for f_ in range(g):
                z = (x[j, f_] - means[s, f_]) / sigmas[s, f_]
                acc += z * z
            w[s] = -0.5 * acc
            if w[s] > shift:
                shift = w[s]
        den = 0.0
        num = 0.0
        for s in range(d):
            w[s] = np.exp(w[s] - shift)
            den += w[s]
            num += w[s] * cons[s]
        fx = num / den
        diff = fx - y[j]
        err += 0.5 * diff * diff
        r = diff / n
        for s in range(d):
            q = r * (cons[s] - fx) / den * w[s]
            gc[s] += r * w[s] / den
            for f_ in range(g):
                zx = x[j, f_] - means[s, f_]
                sg = sigmas[s, f_]
                gm[s, f_] += q * zx / (sg * sg)
                gs[s, f_] += q * zx * zx / (sg * sg * sg)
    return gm, gs, gc, err / n


# ---------------------------------------------------------------------------
# full-batch gradient epoch, interval type-2 system
# ---------------------------------------------------------------------------
#
# f(x) = (y_l + y_r)/2 from the KM reduction; gradients follow the two
# type-1 expansions picked out by the converged switch splits.  `order`
# sorts rules by ascending consequent mean and is fixed for the whole call.


def it2_epoch_np(x, y, means, sig_lo, sig_up, cons, order):
    n = x.shape[0]
    d = means.shape[0]
    e_lo = log_firing_np(x, means, sig_lo)
    e_up = log_firing_np(x, means, sig_up)
    shift = e_up.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        w_lo = np.exp(e_lo - shift)
        w_up = np.exp(e_up - shift)
    w_lo[w_lo < TINY] = 0.0
    w_up[w_up < TINY] = 0.0

    cs = cons[order]
    lo_s = w_lo[:, order]
    up_s = w_up[:, order]
    yl, yr, kl, kr = km_batch_np(lo_s, up_s, cs)
    with np.errstate(invalid="ignore"):  # uncovered sample: inf + -inf
        f = 0.5 * (yl + yr)
    r = (f - y) / n
    err = 0.5 * np.mean((f - y) ** 2)

    idx = np.arange(d)[None, :]
    upper_l = idx < kl[:, None]  # rules taking the upper bound in y_l
    upper_r = idx >= kr[:, None]  # rules taking the upper bound in y_r
    a = np.where(upper_l, up_s, lo_s)
    b = np.where(upper_r, up_s, lo_s)
    den_a = a.sum(axis=1)
    den_b = b.sum(axis=1)

    # d f / d theta for each side, in sorted order
    with np.errstate(invalid="ignore", divide="ignore"):
        da = 0.5 * (cs[None, :] - yl[:, None]) / den_a[:, None]
        db = 0.5 * (cs[None, :] - yr[:, None]) / den_b[:, None]
        gc_sorted = (r[:, None] * 0.5 * (a / den_a[:, None] + b / den_b[:, None])).sum(axis=0)
    gc = np.empty(d)
    gc[order] = gc_sorted

    # per-sample weight hitting the upper / lower firing of each sorted rule
    coef_up = r[:, None] * (da * upper_l * up_s + db * upper_r * up_s)
    coef_lo = r[:, None] * (da * ~upper_l * lo_s + db * ~upper_r * lo_s)

    inv = np.empty(d, dtype=np.int64)
    inv[order] = np.arange(d)
    coef_up = coef_up[:, inv]
    coef_lo = coef_lo[:, inv]

    zx = x[:, None, :] - means[None, :, :]
    with np.errstate(over="ignore", invalid="ignore"):
        gm = np.einsum("ns,nsf->sf", coef_up, zx / sig_up[None] ** 2)
        gm += np.einsum("ns,nsf->sf", coef_lo, zx / sig_lo[None] ** 2)
        gsu = np.einsum("ns,nsf->sf", coef_up, zx**2 / sig_up[None] ** 3)
        gsl = np.einsum("ns,nsf->sf", coef_lo, zx**2 / sig_lo[None] ** 3)
    return gm, gsl, gsu, gc, err


def _it2_epoch_loops(x, y, means, sig_lo, sig_up, cons, order):
    n, g = x.shape
    d = means.shape[0]
    gm = np.zeros((d, g))
    gsl = np.zeros((d, g))
    gsu = np.zeros((d, g))
    gc = np.zeros(d)
    err = 0.0
    e_lo = np.empty(d)
    e_up = np.empty(d)
    lo_s = np.empty(d)
    up_s = np.empty(d)
    cs = np.empty(d)
    for s in range(d):
        cs[s] = cons[order[s]]
    for j in range(n):
        shift = -np.inf
        for s in range(d):
            acc_l = 0.0
            acc_u = 0.0
            for f_ in range(g):
                zl = (x[j, f_] - means[s, f_]) / sig_lo[s, f_]
                zu = (x[j, f_] - means[s, f_]) / sig_up[s, f_]
                acc_l += zl * zl
                acc_u += zu * zu
            e_lo[s] = -0.5 * acc_l
            e_up[s] = -0.5 * acc_u
            if e_up[s] > shift:
                shift = e_up[s]
        if not np.isfinite(shift):
            # degenerate sample: poison the epoch error and let the caller
            # locate the offender (mirrors the t1 kernel's behaviour)
            err = np.nan
            break
        for s in range(d):
            v = np.exp(e_lo[order[s]] - shift)
            lo_s[s] = 0.0 if v < TINY else v
            v = np.exp(e_up[order[s]] - shift)
            up_s[s] = 0.0 if v < TINY else v

        best_l = np.inf
        best_r = -np.inf
        kl = 0
        kr = 0
        for k in range(d + 1):
            num_l = 0.0
            den_l = 0.0
            num_r = 0.0
            den_r = 0.0
            for s in range(d):
                if s < k:
                    num_l += up_s[s] * cs[s]
                    den_l += up_s[s]
                    num_r += lo_s[s] * cs[s]
                    den_r += lo_s[s]
                else:
                    num_l += lo_s[s] * cs[s]
                    den_l += lo_s[s]
                    num_r += up_s[s] * cs[s]
                    den_r += up_s[s]
            if den_l > 0.0:
                rr = num_l / den_l
                if rr < best_l:
                    best_l = rr
                    kl = k
            if den_r > 0.0:
                rr = num_r / den_r
                if rr > best_r:
                    best_r = rr
                    kr = k
        yl = best_l
        yr = best_r
        fx = 0.5 * (yl + yr)
        diff = fx - y[j]
        err += 0.5 * diff * diff
        r = diff / n

        den_a = 0.0
        den_b = 0.0
        for s in range(d):
            den_a += up_s[s] if s < kl else lo_s[s]
            den_b += up_s[s] if s >= kr else lo_s[s]
        for s in range(d):
            o = order[s]
            a_s = up_s[s] if s < kl else lo_s[s]
            b_s = up_s[s] if s >= kr else lo_s[s]
            gc[o] += r * 0.5 * (a_s / den_a + b_s / den_b)
            da = 0.5 * (cs[s] - yl) / den_a
            db = 0.5 * (cs[s] - yr) / den_b
            cu = 0.0
            cl = 0.0
            if s < kl:
                cu += da * up_s[s]
            else:
                cl += da * lo_s[s]
            if s >= kr:
                cu += db * up_s[s]
            else:
                cl += db * lo_s[s]
            cu *= r
            cl *= r
            for f_ in range(g):
                zx = x[j, f_] - means[o, f_]
                su = sig_up[o, f_]
                sl = sig_lo[o, f_]
                gm[o, f_] += cu * zx / (su * su) + cl * zx / (sl * sl)
                gsu[o, f_] += cu * zx * zx / (su * su * su)
                gsl[o, f_] += cl * zx * zx / (sl * sl * sl)
    return gm, gsl, gsu, gc, err / n


# ---------------------------------------------------------------------------
# k-nearest-neighbour selection from a distance chunk
# ---------------------------------------------------------------------------
#
# Returns the indices of the k smallest entries per row (1 <= k <= m), nearest
# first; ties on distance go to the lower column index.  The result equals
# np.argsort(d2, axis=1, kind="stable")[:, :k] exactly, order within a row
# included: callers settle even votes on the first column.  The numpy version
# selects instead of sorting: each row's k-th smallest value bounds a small
# candidate set (every entry not above it, so ties straddling the k-th place
# are all kept), and one stable sort of the candidates by (row, distance)
# restores the exact tie order, since np.nonzero lists each row's columns in
# ascending order.  NaN is "not above" anything, so a row with fewer than k
# non-NaN entries still yields k candidates, sorted last as argsort sorts them.


def topk_select_np(d2, k):
    n = d2.shape[0]
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(~(d2 > kth[:, None]))
    order = np.lexsort((d2[rows, cols], rows))
    start = np.zeros(n, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n)[:-1], out=start[1:])
    return cols[order[start[:, None] + np.arange(k)]].astype(np.int64)


def _topk_select_loops(d2, k):
    n, m = d2.shape
    out = np.empty((n, k), dtype=np.int64)
    for j in prange(n):
        bd = np.full(k, np.inf)
        bi = np.full(k, np.int64(m))
        for i in range(m):
            # v goes before a kept entry when that slot is empty (index m),
            # when v is smaller, or when v is a number and the entry NaN;
            # columns arrive in order, so equal values keep theirs
            v = d2[j, i]
            w = bd[k - 1]
            if not (bi[k - 1] == m or v < w or (w != w and v == v)):
                continue
            pos = k - 1
            while pos > 0:
                w = bd[pos - 1]
                if not (bi[pos - 1] == m or v < w or (w != w and v == v)):
                    break
                bd[pos] = w
                bi[pos] = bi[pos - 1]
                pos -= 1
            bd[pos] = v
            bi[pos] = i
        out[j] = bi
    return out


# ---------------------------------------------------------------------------
# backend dispatch
# ---------------------------------------------------------------------------

if NUMBA_ACTIVE:
    sq_distances_nb = njit(cache=True, parallel=True)(_sq_distances_loops)
    fcm_memberships_nb = njit(cache=True, parallel=True)(_fcm_memberships_loops)
    log_firing_nb = njit(cache=True, parallel=True)(_log_firing_loops)
    km_batch_nb = njit(cache=True, parallel=True)(_km_batch_loops)
    t1_epoch_nb = njit(cache=True)(_t1_epoch_loops)
    it2_epoch_nb = njit(cache=True)(_it2_epoch_loops)
    topk_select_nb = njit(cache=True, parallel=True)(_topk_select_loops)

    sq_distances = sq_distances_nb
    fcm_memberships = fcm_memberships_nb
    log_firing = log_firing_nb
    km_batch = km_batch_nb
    t1_epoch = t1_epoch_nb
    it2_epoch = it2_epoch_nb
    topk_select = topk_select_nb
else:
    sq_distances = sq_distances_np
    fcm_memberships = fcm_memberships_np
    log_firing = log_firing_np
    km_batch = km_batch_np
    t1_epoch = t1_epoch_np
    it2_epoch = it2_epoch_np
    topk_select = topk_select_np


def backend() -> str:
    """Name of the active kernel backend ("numba" or "numpy")."""
    return "numba" if NUMBA_ACTIVE else "numpy"
