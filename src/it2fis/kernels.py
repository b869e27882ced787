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
-0.5 (P (z^2)^T - 2 (mc P) z^T + sum_f mc^2 P).  Centring keeps the form
exact enough to tune on: a column that is constant in the data (a one-hot
level every row has) has its sigma floored at 1e-6, so uncentred its
x^2/sigma^2 terms are ~1e12 and their cancellation leaves ~1e-4 of error in
the firing, while centred the column is exactly 0.  Centred, a column that
takes two values (every one-hot level) takes 0 and one value c, so there
z^2 = c z: its P z^2 term joins the z product as (P c) z, and only the
other, wide columns (a continuous age) have a z^2 product at all.  On
one-hot data that halves the BLAS work of an epoch.  ``centre`` builds
x[0], z^T, the c of each column and the wide columns' (z^2)^T, which depend
on the data only, so a tuning run builds them once and every epoch reuses
them.  ``log_firing`` does not centre: a centre taken from the batch would
move a row's score (by ~1e-11) with the batch it comes in.
"""

from __future__ import annotations

from math import inf

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
# _switch_points finds the split of the least left and the greatest right
# ratio in reductions over the split axis: numpy's argmin and argmax along
# it run one column at a time and took a third of the kernel.  Its result
# is theirs to the index, ties to the first split and NaN first, so no bit
# of y_l, y_r or the switch points depends on which of the two finds them.
#
# One column, a single-row predict's, is reduced in Python floats by
# _km_column instead: at 5 to 10 cells per plane the stacked path's ~25
# numpy calls cost their per-call overhead and little else.  A backward
# pass forms the four suffix sums; a forward pass carries the four prefix
# sums, forms both sides' ratios at each split and keeps the first extremes
# (or the first NaN), as argmin and argmax do.  The sums start from -0.0,
# which added to any x is x, and pre[0] and suf[n_rules] are 0.0 added to
# the other side's sum (a no-op on a sum of weights, never -0.0, so the
# denominators at split 0 skip it): every other IEEE operation is the
# stacked path's, in the same order, and Python floats round as numpy
# does, so the bits are equal.
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
        return _km_column(lo.ravel().tolist(), up.ravel().tolist(),
                          cents.tolist())
    blocks = _column_blocks(n, d)
    if len(blocks) == 1:
        return _km_columns(lo, up, cents)
    yl, yr = np.empty(n), np.empty(n)
    kl, kr = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for b in blocks:
        yl[b], yr[b], kl[b], kr[b] = _km_columns(lo[:, b], up[:, b], cents)
    return yl, yr, kl, kr


def _column_blocks(n, d):
    """Slices that cut n columns of d rules into equal blocks of at most
    _KM_BLOCK_CELLS // (d + 1) columns, the last one shorter by < blocks."""
    blocks = max(1, -(-n // max(1, _KM_BLOCK_CELLS // (d + 1))))
    m = max(1, -(-n // blocks))
    return [slice(j, j + m) for j in range(0, max(n, 1), m)]


def _km_columns(lo, up, cents):
    d, n = lo.shape
    planes = np.empty((2, 2, d, n))
    w = planes[1]
    np.concatenate((up, lo), out=w.reshape(2 * d, n))
    _flush(w)
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
    k, (yl, yr) = _switch_points(rat)
    flip = yl > yr
    if flip.any():
        flip &= yr > -np.inf  # an uncovered column keeps (inf, -inf)
        yl[flip], yr[flip] = yr[flip], yl[flip]
    return yl, yr, k[0], k[1]


def _flush(w):
    """Set every entry of w below TINY, -0.0 included, to +0.0, in place.

    A masked store over an irregular mask (the zero firings of sparse data)
    costs several arithmetic passes, so the mask leaves out the entries
    that are already +0.0: firings flushed once pass through unchanged at
    the cost of two comparisons.
    """
    low = w < TINY
    low &= w.view(np.int64) != 0  # not +0.0
    if low.any():
        np.copyto(w, 0.0, where=low)


def _switch_points(rat):
    """np.argmin of rat[0] and np.argmax of rat[1] along their splits, and
    the extremes there, of a (2, splits, n) array: ((2, n), (2, n)).

    numpy's argmin and argmax along an axis that is not the last run one
    column at a time.  Here the extremes come first, as row reductions,
    and the first split equal to its column's extreme is found as another:
    each equal entry weighs splits - i, and the largest weight is the
    first.  A NaN extreme equals nothing, so its columns take argmin, which
    like argmax returns the first NaN.  Extremes that are NaN or zero are
    read at the split found, whose sign and payload bits they may not
    share; every other one is bit for bit the entry there.
    """
    splits = rat.shape[1]
    y = np.empty((2, rat.shape[2]))
    rat[0].min(axis=0, out=y[0])
    rat[1].max(axis=0, out=y[1])
    weight = np.arange(splits, 0, -1, dtype=np.min_scalar_type(splits))
    first = np.equal(rat, y[:, None]).view(np.uint8) * weight[:, None]
    k = splits - first.max(axis=1).astype(np.int64)
    fix = ~(np.abs(y) > 0.0)  # NaN or zero extremes
    if fix.any():
        s, j = np.nonzero(fix)
        nan = np.isnan(y[s, j])
        s_nan, j_nan = s[nan], j[nan]
        k[s_nan, j_nan] = rat[s_nan, :, j_nan].argmin(axis=1)
        y[s, j] = rat[s, k[s, j], j]
    return k, y


def _km_column(lo, up, cents):
    """_km_columns on one column given as lists of floats, bit for bit."""
    nl = dl = nr = dr = -0.0  # suffix sums of lo*c, lo, up*c and up
    suf, terms = [(0.0, 0.0, 0.0, 0.0)], []  # splits n_rules down to 0
    for l, u, c in zip(reversed(lo), reversed(up), reversed(cents)):
        l = 0.0 if l < TINY else l
        u = 0.0 if u < TINY else u
        lc, uc = l * c, u * c
        nl += lc
        dl += l
        nr += uc
        dr += u
        suf.append((nl, dl, nr, dr))
        terms.append((uc, u, lc, l))
    nl, dl, nr, dr = suf.pop()  # split 0; a weight sum is never -0.0
    yl = (nl + 0.0) / dl if dl > 0.0 else inf
    yr = (nr + 0.0) / dr if dr > 0.0 else -inf
    kl = kr = 0
    puc = pu = plc = pl = -0.0  # prefix sums of up*c, up, lo*c and lo
    for k, (uc, u, lc, l) in enumerate(reversed(terms), 1):
        puc += uc
        pu += u
        plc += lc
        pl += l
        nl, dl, nr, dr = suf.pop()
        den = dl + pu
        r = (nl + puc) / den if den > 0.0 else inf
        if r < yl or r != r and yl == yl:
            kl, yl = k, r
        den = dr + pl
        r = (nr + plc) / den if den > 0.0 else -inf
        if r > yr or r != r and yr == yr:
            kr, yr = k, r
    if yl > yr > -inf:  # an uncovered column keeps (inf, -inf)
        yl, yr = yr, yl
    y, k = np.array((yl, yr)), np.array((kl, kr), np.int64)
    return y[:1], y[1:], k[:1], k[1:]


# ---------------------------------------------------------------------------
# the epochs' data-only terms
# ---------------------------------------------------------------------------


def centre(x):
    """The data terms the epoch kernels take for the batch x (n, g).

    Returns (x0, zt, c, wide, z2w): the batch's first row x0; z = x - x0
    transposed to (g, n), C-contiguous; per column the one value c that its
    nonzero z take, 0.0 where it takes none or more than one; the indices
    of those other, wide columns; and z * z of the wide columns, (wide, n).
    On a two-valued column z * z = c z exactly, so the epochs fold it into
    their products with z.  A column whose c * c overflows stays wide, so
    that a row whose square overflows still has a -inf log firing.
    The terms depend on the data only, so a full-batch tuning run computes
    them once, not once per epoch.
    """
    x0 = x[0].copy()
    zt = np.subtract(x.T, x0[:, None], order="C")
    nonzero = zt != 0.0
    c = zt[np.arange(zt.shape[0]), nonzero.argmax(axis=1)]
    with np.errstate(over="ignore", invalid="ignore"):
        wide = ~np.isfinite(c * c)
    wide |= ~((zt == c[:, None]) | ~nonzero).all(axis=1)
    c[wide] = 0.0
    wide = np.flatnonzero(wide)
    z2w = zt[wide]
    with np.errstate(over="ignore"):  # an overflow marks the sample uncovered
        z2w *= z2w
    return x0, zt, c, wide, z2w


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
# sigma^3 without an (n, d, g) temporary.  On a two-valued column (see
# ``centre``) q z^2 is c (q z), so only the wide columns have a q z^2
# product, as only they have a P z^2 one.  For a one-row call z is 0.


def _centred_gauss(terms, mc, sigmas):
    """Log firing of each row of (mc, sigmas), and the map to its gradients.

    terms are centre's (zt, c, wide, z2w): the data less a reference row,
    transposed to (n_features, n_samples), the value c of its two-valued
    columns and the squares of the others; mc is the rule means less the
    same row.  Returns (e, grad): e[s, j] = -0.5 sum_f ((z - mc) / sigma)^2,
    shape (n_rows, n_samples), and grad(q) gives sum_j q[s, j] times
    de[s, j] / dmeans and de[s, j] / dsigmas, both (n_rows, n_features).
    """
    zt, c, wide, z2w = terms
    p = 1.0 / (sigmas * sigmas)
    mp = mc * p
    e = (p * c - 2.0 * mp) @ zt
    if wide.size:
        e += p[:, wide] @ z2w
    e += (mc * mp).sum(axis=1)[:, None]
    e *= -0.5

    def grad(q):
        qs = q.sum(axis=1)[:, None]
        qz = q @ zt.T
        gm = (qz - qs * mc) * p
        qz2 = qz * c
        if wide.size:
            qz2[:, wide] = q @ z2w.T
        gs = (qz2 - 2.0 * mc * qz + qs * mc * mc) * (p / sigmas)
        return gm, gs

    return e, grad


# numpy's exp takes a slow path on arguments whose result underflows: 5 to
# 150 times the time of a normal result (numpy 2.4, x86-64), and one-hot
# data fire many rules far below that.  Below _EXP_ZERO the result is +0.0.
_EXP_ZERO = -746.0


def _exp_shifted(e, shift):
    """exp(e - shift) in place of e, bit for bit, with every argument below
    _EXP_ZERO given +0.0 without calling exp on it."""
    e -= shift
    if not e.min() < _EXP_ZERO:  # none (or a NaN, which exp keeps)
        return np.exp(e, out=e)
    keep = np.greater_equal(e, _EXP_ZERO, out=np.empty(e.shape))
    np.maximum(e, _EXP_ZERO, out=e)
    e *= keep  # -0.0 where not kept: exp gives 1.0, then 0.0
    np.exp(e, out=e)
    e *= keep
    return e


def t1_epoch(data, y, means, sigmas, cons):
    x0, *terms = data
    n = terms[0].shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        e, grad = _centred_gauss(terms, means - x0, sigmas)
    with np.errstate(invalid="ignore"):
        w = _exp_shifted(e, e.max(axis=0))
    den = w.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = (cons @ w) / den
    diff = f - y
    with np.errstate(over="ignore"):
        err = 0.5 * np.mean(diff * diff)

    # q[S,j] = (g_S - f_j) r_j / den_j w_Sj with r = (f - y) / n
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rd = diff / n / den
        q = np.subtract(cons[:, None], f)
        q *= rd
        q *= w
        gm, gs = grad(q)
        gc = w @ rd
    return gm, gs, gc, err


# ---------------------------------------------------------------------------
# full-batch gradient epoch, interval type-2 system
# ---------------------------------------------------------------------------
#
# f(x) = (y_l + y_r)/2 from the KM reduction; gradients follow the two
# type-1 expansions picked out by the converged switch splits.  The kernel
# sorts the rules' parameters once, by a stable sort on ascending consequent
# mean that is fixed for the whole call, so firings and gradients are in
# sorted order throughout and only the (n_rules, n_features) results go
# back.  It takes the centred firing and gradients of the type-1 kernel for
# both sigma matrices at once: stacked, sigma_lower over sigma_upper, they
# are one (2 n_rules, n_features) matrix, so each BLAS product reads the
# data once.  Firings are (n_rules, n_samples).
#
# With a and b the firings of the y_l and y_r expansions (upper rows above
# the switch point of y_l, below that of y_r), r = (f - y) / n and
# ra = r / (2 sum_S a), rb = r / (2 sum_S b) per sample, the consequent
# gradient is a ra + b rb summed over samples, and the weight on a rule's
# log firing is a (c_S - y_l) ra + b (c_S - y_r) rb, each term routed to
# the lower or the upper row that its expansion took.  Every step from the
# log firings to these weights is local to a sample, so it runs in the
# column blocks of km_batch and writes the weights over the log firings:
# whole (rules, samples) temporaries of a full-size batch would neither
# stay in cache nor be allocated without page faults, once per step.


def it2_epoch(data, y, means, sig_lo, sig_up, cons):
    order = np.argsort(cons, kind="stable")
    x0, *terms = data
    n = terms[0].shape[1]
    d = means.shape[0]
    mc = means[order] - x0
    with np.errstate(over="ignore", invalid="ignore"):
        e, grad = _centred_gauss(terms, np.vstack([mc, mc]),
                                 np.vstack([sig_lo[order], sig_up[order]]))
    cs = cons[order]
    diff = np.empty(n)
    gc = np.zeros(d)
    for b in _column_blocks(n, d):
        gc += _it2_columns(e[:, b], y[b], cs, 2 * n, diff[b])
    err = 0.5 * np.mean(diff * diff)
    with np.errstate(over="ignore", invalid="ignore"):
        gm, gs = grad(e)  # e now holds the weights q
    back = np.argsort(order)
    return ((gm[:d] + gm[d:])[back], gs[:d][back], gs[d:][back], gc[back],
            err)


def _it2_columns(e, y, cs, two_n, diff):
    """it2_epoch from the log firings e of a block of columns, (2 d, m),
    to their weights q, written in place of e.  Writes f - y to diff and
    returns the block's share of the consequent gradient."""
    d = len(cs)
    with np.errstate(invalid="ignore"):
        w = _exp_shifted(e, e[d:].max(axis=0))
    _flush(w)
    lo, up = w[:d], w[d:]
    yl, yr, kl, kr = _km_columns(lo, up, cs)
    with np.errstate(invalid="ignore"):  # uncovered sample: inf + -inf
        np.subtract(0.5 * (yl + yr), y, out=diff)

    # 0/1 masks in floats: the products that route by them are exact, and
    # unlike np.where on an irregular mask they run without branches
    idx = np.arange(d)[:, None]
    upper_l = np.less(idx, kl, out=np.empty(lo.shape))  # upper in y_l
    upper_r = np.greater_equal(idx, kr, out=np.empty(lo.shape))  # in y_r
    a = _blend(upper_l, up, lo)
    b = _blend(upper_r, up, lo)
    with np.errstate(invalid="ignore", divide="ignore"):
        ra = diff / (two_n * a.sum(axis=0))
        rb = diff / (two_n * b.sum(axis=0))
        gc = a @ ra + b @ rb
        a *= np.subtract(cs[:, None], yl)
        a *= ra
        b *= np.subtract(cs[:, None], yr)
        b *= rb
        np.add(_split(a, upper_l), _split(b, upper_r), out=w[d:])
        np.add(a, b, out=w[:d])
    return gc


def _blend(mask, up, lo):
    """up where the 0/1 mask is 1, lo where it is 0, exactly (finite input)."""
    out = lo * mask
    np.subtract(lo, out, out=out)
    out += up * mask
    return out


def _split(t, mask):
    """Return t's share on the mask's 1 entries; t keeps the rest (exact)."""
    upper = t * mask
    t -= upper
    return upper


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
