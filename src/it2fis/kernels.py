"""Numeric hot kernels, vectorized in numpy.

The names without a leading underscore are the kernels the package calls.
The tests check ``sq_distances``, ``fcm_memberships``, ``t1_epoch`` and
``it2_epoch`` against plain-Python loops that compute the same result one
element at a time (``tests/oracles.py``).

Array conventions: data matrices are (n_samples, n_features) and rule
parameter matrices (n_rules, n_features).  The two clustering kernels are
cluster-major, like ``FuzzyPartition.U``: distance and membership matrices
are (n_clusters, n_samples), and ``sq_distances`` takes the data transposed,
(n_features, n_samples), with its squared row norms precomputed.  The tuning
kernels are rule-major in the same way: ``t1_epoch``, ``it2_epoch`` and
``km_batch`` hold firings as (n_rules, n_samples), so every step and every
sum over the few rules runs along rows of n_samples, not as a length-n_rules
inner loop per sample.  ``log_firing`` stays sample-major, (n_samples,
n_rules): it scores rows for the inference engine, which serves
``predict_batch`` and single-row ``predict`` alike, so it sums each (row,
rule) pair's terms by itself in an einsum: a row's score does not depend on
the batch or block it comes in, nor on the rules stacked beside it, and the
engine takes per-row maxima over its columns.

The epoch kernels never form an (n_samples, n_rules, n_features)
array: firing and gradients are BLAS products in a centred form.  Each
column is centred on the batch's first row, z = x - x[0] and mc = means -
x[0], and with P = 1/sigma^2 the log firing is
-0.5 (P (z^2)^T - 2 (mc P) z^T + sum_f mc^2 P).  ``centre`` builds x[0], z^T
and (z^2)^T, which depend on the data only, so a tuning run builds them once
and every epoch reuses them.  Centring keeps the form
exact enough to tune on: a column that is constant in the data (a one-hot
level every row has) has its sigma floored at 1e-6, so uncentred its
x^2/sigma^2 terms are ~1e12 and their cancellation leaves ~1e-4 of error in
the firing, while centred the column is exactly 0.  ``log_firing`` does not
centre: a centre taken from the batch would move a row's score (by ~1e-11)
with the batch it comes in.
"""

from __future__ import annotations

from itertools import accumulate
from math import inf
from operator import add, gt, lt, mul

import numpy as np

# Smallest normal double.  Sub-normal firing weights are flushed to zero in
# the KM kernels: denormals quantize to multiples of ~5e-324, so a ratio
# whose denominator is a lone denormal (f*c)/f can land anywhere — far
# outside the centroid hull — instead of at c.
TINY = float(np.finfo(np.float64).tiny)


# ---------------------------------------------------------------------------
# squared Euclidean distances (FCM inner loop), cluster-major
# ---------------------------------------------------------------------------


def sq_distances(v, xt, xx):
    """Squared Euclidean distances from c points to n points, shape (c, n).

    v is (c, d); xt holds the n points as columns, (d, n) and C-contiguous;
    xx is their squared norms, shape (n,).  xt and xx depend on the data
    only, so FCM computes them once per run, not once per iteration.

    The cross term is (2 v) @ xt, scaled on the (c, d) side rather than the
    (c, n) product.  Multiplying by 2 only moves the exponent (away from
    overflow and the subnormal range), so every product and partial sum of
    the BLAS call is exactly twice that of v @ xt: the result is
    2 * (v @ xt) bit for bit, at one pass over (c, n) less.
    """
    g = (2.0 * v) @ xt
    d2 = (v * v).sum(axis=1)[:, None] + xx
    d2 -= g
    np.maximum(d2, 0.0, out=d2)
    return d2


# ---------------------------------------------------------------------------
# FCM membership update from squared distances, cluster-major
# ---------------------------------------------------------------------------


def fcm_memberships(d2, m):
    """Membership update u_ij ∝ d2_ij^(-1/(m-1)) on (c, n); columns sum to 1.

    Columns containing a zero (or overflowing) distance split their mass
    evenly over the offending prototypes.

    The terms d2^(-1/(m-1)) are non-negative, so a column sum is finite
    only if every term in it is: the (c, n) finiteness mask is built only
    when some column sum is not.  For m = 2, the default, the terms are
    np.reciprocal(d2): numpy 2.4 runs a scalar ``**`` through pow, about
    twice as slow, and both round 1/d2 correctly, so the bits are the same.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = np.reciprocal(d2) if m == 2.0 else d2 ** (-1.0 / (m - 1.0))
        tot = inv.sum(axis=0)
        bad = None if np.isfinite(tot).all() else ~np.isfinite(inv)
        u = np.divide(inv, tot, out=inv)
    if bad is not None:
        cols_bad = bad.any(axis=0)
        share = bad[:, cols_bad]
        u[:, cols_bad] = share / share.sum(axis=0)
    return u


def fuzzy_weights(u, m):
    """The FCM weights u^m; np.square(u) for m = 2, with the bits of u ** 2."""
    return np.square(u) if m == 2.0 else u ** m


# ---------------------------------------------------------------------------
# log firing strengths: -0.5 * sum_f ((x_f - m_f) / s_f)^2
# ---------------------------------------------------------------------------


def log_firing(x, means, sigmas):
    z = (x[:, None, :] - means[None, :, :]) / sigmas[None, :, :]
    return -0.5 * np.einsum("ndg,ndg->nd", z, z)


# ---------------------------------------------------------------------------
# Karnik-Mendel center-of-sets reduction, batched over columns
# ---------------------------------------------------------------------------
#
# Inputs are (n_rules, n_samples), rows already in ascending-centroid order.
# The kernel evaluates the weighted-average ratio at every switch split k
# (first k rules take one bound, the rest take the other) and picks the
# extremal one; the extremum of the linear-fractional objective over the
# firing box sits at such a split.
#
# With prefix sums pre[k] = a[:k].sum() and suffix sums suf[k] = a[k:].sum()
# of the four planes up*c, up, lo*c and lo, the left ratio at split k is
# (pre(up c) + suf(lo c)) / (pre(up) + suf(lo)), and the right one the same
# with lo and up swapped.  The planes are stacked (kind, side, rule,
# column), kind 0 the weighted plane w*c and 1 the weight w, side 0 up and
# 1 lo, so each product w*c is formed once and every prefix or suffix step
# adds all four planes in one row addition per rule.  The suffixes are
# summed with the sides swapped, so one addition pre + suf gives num_l,
# den_l, num_r and den_r; the prefixes are summed in place of the planes,
# and the ratios in place of the numerators, so a call holds two arrays of
# the planes' size.  The suffixes are summed from the bottom, not as total
# - prefix: the difference of two near-equal totals can wipe out a small
# suffix entirely (a lone 1e-9 weight against O(1) ones), pushing the
# candidate ratio outside the centroid hull.  Every sum runs rule by rule
# in the order of np.cumsum.  Wide inputs go in equal blocks of at most
# _KM_BLOCK_CELLS // (n_rules + 1) columns, so that a block's planes and
# sums stay in cache.
#
# One column, a single-row predict's, is reduced in Python floats by
# _km_column instead: at 5 to 10 cells per plane the stacked path's ~25
# numpy calls cost their per-call overhead and little else.  It takes the
# same IEEE additions, products and quotients in the same order (a sum
# starts from its first term, pre[0] and suf[n_rules] are 0.0 added to the
# other side's sum), and Python floats round them as numpy does, so every
# bit equals the stacked path's on the same column.
#
# The left and right ratios of a collapsed interval (every firing rule at
# one centroid) are sums over different splits and may round one ulp
# apart in either direction, so the pair is returned ordered: y_l <= y_r.
# An uncovered column (no positive weight) keeps y_l = inf, y_r = -inf.

_KM_BLOCK_CELLS = 32768  # (rules + 1) x columns of one block's sums
_KM_EMPTY = np.array([np.inf, -np.inf])[:, None, None]  # ratios at den = 0


def km_batch(lo, up, cents):
    d, n = lo.shape
    if n == 1:
        return _km_column(lo[:, 0].tolist(), up[:, 0].tolist(),
                          cents.tolist())
    blocks = -(-n // max(1, _KM_BLOCK_CELLS // (d + 1)))
    if blocks <= 1:
        return _km_columns(lo, up, cents)
    m = -(-n // blocks)  # equal blocks, the last one shorter by < blocks
    yl, yr = np.empty(n), np.empty(n)
    kl, kr = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for j in range(0, n, m):
        b = slice(j, j + m)
        yl[b], yr[b], kl[b], kr[b] = _km_columns(lo[:, b], up[:, b], cents)
    return yl, yr, kl, kr


def _km_columns(lo, up, cents):
    d, n = lo.shape
    planes = np.empty((2, 2, d, n))
    w = planes[1]
    np.concatenate((up, lo), out=w.reshape(2 * d, n))
    np.copyto(w, 0.0, where=w < TINY)
    np.multiply(w, cents[:, None], out=planes[0])

    # suffix sums, sides swapped; then prefix sums in place of the planes,
    # planes[:, :, k] becoming pre[k + 1]
    sums = np.empty((2, 2, d + 1, n))
    sums[:, :, d] = 0.0
    swapped = planes[:, ::-1]
    sums[:, :, d - 1] = swapped[:, :, d - 1]
    for k in range(d - 2, -1, -1):
        np.add(sums[:, :, k + 1], swapped[:, :, k], out=sums[:, :, k])
    for k in range(1, d):
        np.add(planes[:, :, k - 1], planes[:, :, k], out=planes[:, :, k])
    np.add(sums[:, :, 0], 0.0, out=sums[:, :, 0])  # pre[0] = 0 (-0.0 -> 0.0)
    np.add(sums[:, :, 1:], planes, out=sums[:, :, 1:])
    num, den = sums

    with np.errstate(divide="ignore", invalid="ignore"):
        rat = np.divide(num, den, out=num)
    np.copyto(rat, _KM_EMPTY, where=~(den > 0.0))
    kl = rat[0].argmin(axis=0)
    kr = rat[1].argmax(axis=0)
    cols = np.arange(n)
    yl = rat[0, kl, cols]
    yr = rat[1, kr, cols]
    flip = yl > yr
    if flip.any():
        flip &= yr > -np.inf  # an uncovered column keeps (inf, -inf)
        yl[flip], yr[flip] = yr[flip], yl[flip]
    return yl, yr, kl, kr


def _km_column(lo, up, cents):
    """_km_columns on one column given as lists of floats, bit for bit."""
    up = [0.0 if w < TINY else w for w in up]
    lo = [0.0 if w < TINY else w for w in lo]
    upc, loc = list(map(mul, up, cents)), list(map(mul, lo, cents))
    rl = _ratios(_suffix(loc), _prefix(upc), _suffix(lo), _prefix(up), inf)
    rr = _ratios(_suffix(upc), _prefix(loc), _suffix(up), _prefix(lo), -inf)
    kl, kr = _first_extreme(rl, lt), _first_extreme(rr, gt)
    yl, yr = rl[kl], rr[kr]
    if yl > yr > -inf:  # an uncovered column keeps (inf, -inf)
        yl, yr = yr, yl
    return (np.array((yl,)), np.array((yr,)), np.array((kl,), dtype=np.int64),
            np.array((kr,), dtype=np.int64))


def _prefix(a):
    """pre[k] = a[:k].sum(), k = 0..len(a), summed as np.cumsum sums."""
    return [0.0, *accumulate(a)]


def _suffix(a):
    """suf[k] = a[k:].sum(), k = 0..len(a), summed from the bottom."""
    suf = [*accumulate(reversed(a))]
    suf.reverse()
    suf.append(0.0)
    return suf


def _ratios(suf_num, pre_num, suf_den, pre_den, empty):
    """(suf_num + pre_num) / (suf_den + pre_den) per split; `empty` where
    the denominator is not positive (or is NaN)."""
    return [num / den if den > 0.0 else empty
            for num, den in zip(map(add, suf_num, pre_num),
                                map(add, suf_den, pre_den))]


def _first_extreme(r, better):
    """numpy's argmin (better=lt) or argmax (gt) of r: the first extreme
    value, or the first NaN."""
    k, best = 0, r[0]
    for i, x in enumerate(r):
        if x != x:
            return i
        if better(x, best):
            k, best = i, x
    return k


# it2_epoch's own reference: a wrapper put on the public name (the
# benchmark's tracer) then counts only the calls from outside this module
_km_batch = km_batch


# ---------------------------------------------------------------------------
# the epochs' data-only terms
# ---------------------------------------------------------------------------


def centre(x):
    """The data terms the epoch kernels take for the batch x (n, g).

    Returns (x0, zt, z2t): the batch's first row, and z = x - x0 and z * z
    transposed to (g, n), C-contiguous.  They depend on the data only, so a
    full-batch tuning run computes them once, not once per epoch.
    """
    x0 = x[0].copy()
    zt = np.subtract(x.T, x0[:, None], order="C")
    with np.errstate(over="ignore"):  # an overflow marks the sample uncovered
        return x0, zt, zt * zt


# ---------------------------------------------------------------------------
# full-batch gradient epoch, type-1 system
# ---------------------------------------------------------------------------
#
# f(x) = sum_S w_S g_S / sum_S w_S with w_S the product firing; the epoch
# error is mean over samples of 0.5 (f - y)^2.  Firing is computed in log
# space and shifted by the per-sample max; f and all gradients are ratios of
# firings, so the shift cancels exactly.  A degenerate sample (non-finite
# log firing) makes the returned error non-finite; the caller locates it.
#
# The kernel works in the centred form of the module docstring, on
# (n_rules, n_samples) firings.  With per-sample weights q (d, n) on the
# rules' log firings, the gradients are
#   gm = (q z - (sum_j q) mc) P
#   gs = (q z^2 - 2 mc (q z) + (sum_j q) mc^2) P / sigma,
# i.e. sum_j q_sj (x_jf - m_sf) / sigma^2 and sum_j q_sj (x_jf - m_sf)^2 /
# sigma^3 without an (n, d, g) temporary.  For a one-row call z is 0.


def _centred_gauss(zt, z2t, mc, sigmas):
    """Log firing of each row of (mc, sigmas), and the map to its gradients.

    zt and z2t are the data less a reference row, and its square,
    transposed to (n_features, n_samples); mc is the rule means less the
    same row.  Returns (e, grad): e[s, j] = -0.5 sum_f ((z - mc) / sigma)^2,
    shape (n_rows, n_samples), and grad(q) gives sum_j q[s, j] times
    de[s, j] / dmeans and de[s, j] / dsigmas, both (n_rows, n_features).
    """
    p = 1.0 / (sigmas * sigmas)
    mp = mc * p
    e = p @ z2t
    e -= (2.0 * mp) @ zt
    e += (mc * mp).sum(axis=1)[:, None]
    e *= -0.5

    def grad(q):
        qs = q.sum(axis=1)[:, None]
        qz = q @ zt.T
        gm = (qz - qs * mc) * p
        gs = (q @ z2t.T - 2.0 * mc * qz + qs * mc * mc) * (p / sigmas)
        return gm, gs

    return e, grad


def t1_epoch(data, y, means, sigmas, cons):
    x0, zt, z2t = data
    n = zt.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        e, grad = _centred_gauss(zt, z2t, means - x0, sigmas)
    shift = e.max(axis=0)
    with np.errstate(invalid="ignore"):
        w = np.exp(e - shift)
    den = w.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = (cons @ w) / den
    r = (f - y) / n
    with np.errstate(over="ignore"):
        err = 0.5 * np.mean((f - y) ** 2)

    # q[S,j] = r_j * (g_S - f_j) / den_j * w_Sj
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q = r * (cons[:, None] - f) / den * w
    with np.errstate(over="ignore", invalid="ignore"):
        gm, gs = grad(q)
    with np.errstate(invalid="ignore", divide="ignore"):
        gc = (r / den * w).sum(axis=1)
    return gm, gs, gc, err


# ---------------------------------------------------------------------------
# full-batch gradient epoch, interval type-2 system
# ---------------------------------------------------------------------------
#
# f(x) = (y_l + y_r)/2 from the KM reduction; gradients follow the two
# type-1 expansions picked out by the converged switch splits.  `order`
# sorts rules by ascending consequent mean and is fixed for the whole call.
# The kernel takes the centred firing and gradients of the type-1 kernel for
# both sigma matrices at once: stacked, sigma_lower over sigma_upper, they
# are one (2 n_rules, n_features) matrix, so each BLAS product reads the
# data once.  Firings are (n_rules, n_samples).


def it2_epoch(data, y, means, sig_lo, sig_up, cons, order):
    x0, zt, z2t = data
    n = zt.shape[1]
    d = means.shape[0]
    mc = means - x0
    with np.errstate(over="ignore", invalid="ignore"):
        e, grad = _centred_gauss(zt, z2t, np.vstack([mc, mc]),
                                 np.vstack([sig_lo, sig_up]))
    shift = e[d:].max(axis=0)
    with np.errstate(invalid="ignore"):
        w = np.exp(e - shift)
    w[w < TINY] = 0.0

    cs = cons[order]
    lo_s = w[order]
    up_s = w[d + order]
    yl, yr, kl, kr = _km_batch(lo_s, up_s, cs)
    with np.errstate(invalid="ignore"):  # uncovered sample: inf + -inf
        f = 0.5 * (yl + yr)
    r = (f - y) / n
    err = 0.5 * np.mean((f - y) ** 2)

    idx = np.arange(d)[:, None]
    upper_l = idx < kl  # rules taking the upper bound in y_l
    upper_r = idx >= kr  # rules taking the upper bound in y_r
    a = np.where(upper_l, up_s, lo_s)
    b = np.where(upper_r, up_s, lo_s)
    den_a = a.sum(axis=0)
    den_b = b.sum(axis=0)

    # d f / d theta for each side, in sorted order
    with np.errstate(invalid="ignore", divide="ignore"):
        da = 0.5 * (cs[:, None] - yl) / den_a
        db = 0.5 * (cs[:, None] - yr) / den_b
        gc_sorted = (r * 0.5 * (a / den_a + b / den_b)).sum(axis=1)
    gc = np.empty(d)
    gc[order] = gc_sorted

    # per-sample weight hitting the lower / upper firing of each rule, put
    # back from sorted order into the rows of the stacked sigma matrices
    q = np.empty((2 * d, n))
    q[order] = r * (da * ~upper_l * lo_s + db * ~upper_r * lo_s)
    q[d + order] = r * (da * upper_l * up_s + db * upper_r * up_s)

    with np.errstate(over="ignore", invalid="ignore"):
        gm, gs = grad(q)
    return gm[:d] + gm[d:], gs[:d], gs[d:], gc, err


# ---------------------------------------------------------------------------
# k-nearest-neighbour selection from a distance chunk
# ---------------------------------------------------------------------------
#
# Returns the indices of the k smallest entries per row (1 <= k <= m), nearest
# first; ties on distance go to the lower column index.  The result equals
# np.argsort(d2, axis=1, kind="stable")[:, :k] exactly, order within a row
# included: callers settle even votes on the first column.  The kernel
# selects instead of sorting.  A bound t per row marks a small candidate set,
# every entry not above t, and one stable sort of the candidates by (row,
# distance) restores the exact tie order.  t is the k-th smallest of the
# row's chunk minima: each row is cut into _TOPK_CHUNKS contiguous column
# chunks, never fewer than k, and k chunks hold an entry each at or below t,
# so t is at least the row's k-th smallest value and the candidates hold the
# k nearest with every tie straddling the k-th place.  The minima cost one
# streaming pass over d2 and the selection runs on the small (rows, chunks)
# array, not on a copy of d2; rows whose small values crowd into few chunks
# (training rows sorted by a feature) loosen the bound, never the result.
# The candidates are found as flat (row-major) indices into d2, which list
# each row's columns in ascending order as np.nonzero does, at a sixth of the
# 2-D nonzero's cost; divmod by the row length splits them into row and
# column, and the flat index also picks the candidates' distances out of
# d2.ravel().  NaN propagates into its chunk's minimum and is "not above"
# anything, so a row with fewer than k non-NaN chunk minima keeps every
# entry, and a row with fewer than k non-NaN entries still yields k
# candidates, sorted last as argsort sorts them.  d2 may be float64 or
# float32: the KNN baseline passes float32 blocks of exact integer keys,
# whose minima, mask and gather move half the bytes.
_TOPK_CHUNKS = 32


def topk_select(d2, k):
    n, m = d2.shape
    width = max(1, min(-(-m // _TOPK_CHUNKS), m // k))
    mins = np.minimum.reduceat(d2, np.arange(0, m, width), axis=1)
    t = np.partition(mins, k - 1, axis=1)[:, k - 1]
    flat = np.flatnonzero(~(d2 > t[:, None]))
    rows, cols = np.divmod(flat, m)
    order = np.lexsort((d2.ravel()[flat], rows))
    start = np.zeros(n, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n)[:-1], out=start[1:])
    return cols[order[start[:, None] + np.arange(k)]].astype(np.int64)


def backend() -> str:
    """Name of the kernel backend, recorded with every benchmark result."""
    return "numpy"
